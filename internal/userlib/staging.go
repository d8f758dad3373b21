package userlib

import (
	"fmt"

	"repro/internal/sim"
)

// StagingAppender implements the SplitFS-style append path the paper
// names in §5.1: appends land in a preallocated staging file as
// userspace overwrites (no kernel on the data path), and a periodic
// relink() grafts the staged blocks onto the target with one metadata
// operation and zero data movement.
type StagingAppender struct {
	lib       *Lib
	th        *Thread
	targetFD  int
	stagingFD int
	chunk     int64 // staging capacity between relinks
	staged    int64 // bytes currently staged
}

// NewStagingAppender prepares a staging file of chunk bytes next to
// the target. The target must currently end on a block boundary (it
// grows in whole staged chunks).
func (l *Lib) NewStagingAppender(p *sim.Proc, th *Thread, targetFD int, stagingPath string, chunk int64) (*StagingAppender, error) {
	if chunk <= 0 || chunk%4096 != 0 {
		return nil, fmt.Errorf("userlib: staging chunk %d must be a positive block multiple", chunk)
	}
	if _, err := l.state(targetFD); err != nil {
		return nil, err
	}
	cfd, err := l.Proc.Create(p, stagingPath, 0o600)
	if err != nil {
		return nil, err
	}
	if err := l.Proc.Fallocate(p, cfd, chunk); err != nil {
		return nil, err
	}
	if err := l.Proc.Close(p, cfd); err != nil {
		return nil, err
	}
	sfd, err := l.Open(p, stagingPath, true)
	if err != nil {
		return nil, err
	}
	return &StagingAppender{
		lib: l, th: th, targetFD: targetFD, stagingFD: sfd, chunk: chunk,
	}, nil
}

// Append stages data from userspace and relinks when the staging file
// fills. Data must be block-aligned in length for the relink to keep
// the target block-aligned.
func (a *StagingAppender) Append(p *sim.Proc, data []byte) (int, error) {
	if int64(len(data))%4096 != 0 {
		return 0, fmt.Errorf("userlib: staged appends must be 4KiB-aligned")
	}
	if int64(len(data)) > a.chunk {
		return 0, fmt.Errorf("userlib: append %d exceeds staging chunk %d", len(data), a.chunk)
	}
	if a.staged+int64(len(data)) > a.chunk {
		if err := a.Flush(p); err != nil {
			return 0, err
		}
	}
	n, err := a.th.Pwrite(p, a.stagingFD, data, a.staged)
	if err != nil {
		return n, err
	}
	a.staged += int64(n)
	return n, nil
}

// Flush relinks all staged blocks into the target and re-preallocates
// the staging file.
func (a *StagingAppender) Flush(p *sim.Proc) error {
	if a.staged == 0 {
		return nil
	}
	// Trim the staging file to exactly the staged bytes so only they
	// move, then relink.
	if err := a.lib.Proc.Ftruncate(p, a.stagingFD, a.staged); err != nil {
		return err
	}
	if err := a.lib.Proc.Relink(p, a.stagingFD, a.targetFD); err != nil {
		return err
	}
	a.staged = 0
	// Track the target's new size in UserLib state.
	if fs, err := a.lib.state(a.targetFD); err == nil {
		if f, err := a.lib.Proc.FDInfo(a.targetFD); err == nil {
			fs.Size = f.Size()
		}
	}
	// Refill the staging file for the next round.
	if err := a.lib.Proc.Fallocate(p, a.stagingFD, a.chunk); err != nil {
		return err
	}
	if fs, err := a.lib.state(a.stagingFD); err == nil {
		fs.Size = a.chunk
	}
	return nil
}
