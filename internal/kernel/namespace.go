package kernel

import (
	"fmt"
	"path"
	"strings"

	"repro/internal/ext4"
	"repro/internal/sim"
)

// Mount namespaces (paper §5.2 "Containers"): BypassD supports
// sharing an SSD between containers with no extra mechanism because
// access control is the kernel's job. A containerized process gets an
// isolated view of the file system — its paths resolve under a
// per-process root — and since fmap() only maps files the kernel let
// the process open, the hardware enforcement composes for free.

// NewContainerProcess creates a process whose file-system view is
// confined under root (which is created if missing). The credential
// applies inside the container as usual.
func (m *Machine) NewContainerProcess(p *sim.Proc, cred ext4.Cred, root string) (*Process, error) {
	if !strings.HasPrefix(root, "/") || root == "/" {
		return nil, fmt.Errorf("kernel: container root %q must be a non-root absolute path", root)
	}
	root = strings.TrimSuffix(root, "/")
	// mkdir -p the container root.
	partial := ""
	for _, c := range strings.Split(strings.TrimPrefix(root, "/"), "/") {
		partial += "/" + c
		if _, err := m.FS.Lookup(p, partial, ext4.Root); err != nil {
			if _, err := m.FS.Mkdir(p, partial, 0o755, ext4.Root); err != nil {
				return nil, err
			}
		}
	}
	pr := m.NewProcess(cred)
	pr.Root = root
	return pr, nil
}

// resolve maps a process-visible path to the global namespace. A
// container path is cleaned before it is joined under the root:
// cleaning an absolute path drops every ".." that would climb above
// "/", so a container cannot escape its root.
func (pr *Process) resolve(name string) (string, error) {
	if !strings.HasPrefix(name, "/") {
		return "", fmt.Errorf("kernel: path %q not absolute", name)
	}
	if pr.Root == "" {
		return name, nil
	}
	return pr.Root + path.Clean(name), nil
}
