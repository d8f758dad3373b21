package kernel

import (
	"bytes"
	"testing"

	"repro/internal/ext4"
	"repro/internal/nvme"
	"repro/internal/sim"
)

func TestRenamePreservesBypassMapping(t *testing.T) {
	s, m := newMachine(t)
	pr := m.NewProcess(ext4.Root)
	s.Spawn("app", func(p *sim.Proc) {
		data := bytes.Repeat([]byte{0x3c}, 8192)
		mkFile(t, p, pr, "/before", data)
		_, base, err := pr.OpenBypass(p, "/before", false)
		if err != nil || base == 0 {
			t.Errorf("OpenBypass: %v", err)
			return
		}
		// Rename while mapped: the inode (and its FTEs) are stable.
		if err := m.FS.Rename(p, "/before", "/after", pr.Cred); err != nil {
			t.Error(err)
			return
		}
		q, _ := pr.CreateUserQueue(p, 8)
		buf := make([]byte, 4096)
		_ = q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: 1, UseVBA: true, VBA: base, Sectors: 8, Buf: buf})
		for {
			if c, ok := q.PopCQE(); ok {
				if !c.Status.OK() {
					t.Errorf("read after rename: %v", c.Status)
				}
				break
			}
			q.CQReady.Wait(p)
		}
		if !bytes.Equal(buf, data[:4096]) {
			t.Error("wrong data after rename")
		}
		// And the new path resolves while the old does not.
		if _, err := pr.Open(p, "/after", false); err != nil {
			t.Errorf("open new name: %v", err)
		}
		if _, err := pr.Open(p, "/before", false); err == nil {
			t.Error("old name still opens")
		}
	})
	s.Run()
	s.Shutdown()
}

func TestRelinkSyscallGrowsMappedTarget(t *testing.T) {
	s, m := newMachine(t)
	pr := m.NewProcess(ext4.Root)
	s.Spawn("app", func(p *sim.Proc) {
		mkFile(t, p, pr, "/target", bytes.Repeat([]byte{1}, 4096))
		mkFile(t, p, pr, "/staging", bytes.Repeat([]byte{2}, 8192))

		tfd, base, err := pr.OpenBypass(p, "/target", true)
		if err != nil || base == 0 {
			t.Errorf("OpenBypass: %v", err)
			return
		}
		sfd, err := pr.Open(p, "/staging", true)
		if err != nil {
			t.Error(err)
			return
		}
		if err := pr.Relink(p, sfd, tfd); err != nil {
			t.Error(err)
			return
		}
		f, _ := pr.FDInfo(tfd)
		if f.Size() != 12288 {
			t.Errorf("target size = %d, want 12288", f.Size())
			return
		}
		// The grafted pages are reachable through the existing VBA
		// mapping immediately.
		q, _ := pr.CreateUserQueue(p, 8)
		buf := make([]byte, 4096)
		_ = q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: 1, UseVBA: true, VBA: base + 8192, Sectors: 8, Buf: buf})
		for {
			if c, ok := q.PopCQE(); ok {
				if !c.Status.OK() {
					t.Errorf("read grafted page: %v", c.Status)
				}
				break
			}
			q.CQReady.Wait(p)
		}
		if buf[0] != 2 {
			t.Errorf("grafted byte = %#x, want staging data", buf[0])
		}
	})
	s.Run()
	s.Shutdown()
}
