package kernel

import (
	"bytes"
	"testing"

	"repro/internal/ext4"
	"repro/internal/nvme"
	"repro/internal/sim"
)

func TestFmapRegionBasicAccess(t *testing.T) {
	s, m := newMachine(t)
	pr := m.NewProcess(ext4.Root)
	pr.ExtentFmap = true
	data := make([]byte, 16384)
	for i := range data {
		data[i] = byte(i / 7)
	}
	s.Spawn("app", func(p *sim.Proc) {
		mkFile(t, p, pr, "/f", data)
		fd, err := openNoFmap(p, pr, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		base, err := pr.Fmap(p, fd)
		if err != nil || base == 0 {
			t.Errorf("extent fmap: base=%d err=%v", base, err)
			return
		}
		q, _ := pr.CreateUserQueue(p, 16)
		buf := make([]byte, 4096)
		if err := q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: 1, UseVBA: true, VBA: base + 8192, Sectors: 8, Buf: buf}); err != nil {
			t.Error(err)
			return
		}
		for {
			if c, ok := q.PopCQE(); ok {
				if !c.Status.OK() {
					t.Errorf("region read: %v", c.Status)
				}
				break
			}
			q.CQReady.Wait(p)
		}
		if !bytes.Equal(buf, data[8192:12288]) {
			t.Error("region-mapped read returned wrong data")
		}
	})
	s.Run()
	s.Shutdown()
}

func TestFmapRegionMuchCheaperThanColdFmap(t *testing.T) {
	s, m := newMachine(t)
	pr := m.NewProcess(ext4.Root)
	const size = 256 << 20
	var coldPT, coldRegion sim.Time
	s.Spawn("app", func(p *sim.Proc) {
		fd, err := pr.Create(p, "/big", 0o666)
		if err != nil {
			t.Error(err)
			return
		}
		if err := pr.Fallocate(p, fd, size); err != nil {
			t.Error(err)
			return
		}
		_ = pr.Fsync(p, fd)
		_ = pr.Close(p, fd)
		in, _ := m.FS.Lookup(p, "/big", ext4.Root)
		in.DropFileTable()

		// Page-table cold fmap.
		pr2 := m.NewProcess(ext4.Root)
		fd2, _ := openNoFmap(p, pr2, "/big")
		start := p.Now()
		if b, err := pr2.Fmap(p, fd2); err != nil || b == 0 {
			t.Errorf("fmap: %v", err)
			return
		}
		coldPT = p.Now() - start

		// Extent-table registration.
		pr3 := m.NewProcess(ext4.Root)
		pr3.ExtentFmap = true
		fd3, _ := openNoFmap(p, pr3, "/big")
		start = p.Now()
		if b, err := pr3.Fmap(p, fd3); err != nil || b == 0 {
			t.Errorf("extent fmap: %v", err)
			return
		}
		coldRegion = p.Now() - start
	})
	s.Run()
	// Table 5: 256MB cold fmap ≈ 334µs; extent registration is O(1)
	// for a contiguous file: two orders of magnitude cheaper.
	if coldRegion*50 > coldPT {
		t.Fatalf("region fmap %v not ≫ cheaper than page-table cold fmap %v", coldRegion, coldPT)
	}
	s.Shutdown()
}

func TestFmapRegionPermissionAndRevocation(t *testing.T) {
	s, m := newMachine(t)
	pr := m.NewProcess(ext4.Root)
	pr.ExtentFmap = true
	other := m.NewProcess(ext4.Root)
	s.Spawn("app", func(p *sim.Proc) {
		mkFile(t, p, pr, "/f", make([]byte, 8192))
		fd, _ := openNoFmap(p, pr, "/f")
		// Read-only region: writes denied.
		base, err := pr.Fmap(p, fd)
		if err != nil || base == 0 {
			t.Errorf("extent fmap: %v", err)
			return
		}
		q, _ := pr.CreateUserQueue(p, 16)
		buf := make([]byte, 4096)
		do := func(op nvme.Opcode, vba uint64) nvme.Status {
			_ = q.Submit(nvme.SQE{Opcode: op, CID: 7, UseVBA: true, VBA: vba, Sectors: 8, Buf: buf})
			for {
				if c, ok := q.PopCQE(); ok {
					return c.Status
				}
				q.CQReady.Wait(p)
			}
		}
		if st := do(nvme.OpWrite, base); st != nvme.StatusAccessDenied {
			t.Errorf("write on RO region = %v, want access-denied", st)
			return
		}
		// Beyond the file: fault.
		if st := do(nvme.OpRead, base+1<<20); st != nvme.StatusTranslationFault {
			t.Errorf("read past region = %v, want translation-fault", st)
			return
		}
		// Revocation: kernel-interface open unregisters the region.
		if _, err := other.Open(p, "/f", false); err != nil {
			t.Error(err)
			return
		}
		if st := do(nvme.OpRead, base); st != nvme.StatusTranslationFault {
			t.Errorf("post-revocation region read = %v, want translation-fault", st)
		}
	})
	s.Run()
	s.Shutdown()
}

func TestFmapRegionGrowth(t *testing.T) {
	s, m := newMachine(t)
	pr := m.NewProcess(ext4.Root)
	pr.ExtentFmap = true
	s.Spawn("app", func(p *sim.Proc) {
		mkFile(t, p, pr, "/grow", make([]byte, 4096))
		fd, err := pr.Open(p, "/grow", true)
		if err != nil {
			t.Error(err)
			return
		}
		// Temporarily treat the fd as direct-access for the region map.
		f, _ := pr.FDInfo(fd)
		f.Ino.KernelOpens--
		base, err := pr.Fmap(p, fd)
		if err != nil || base == 0 {
			t.Errorf("extent fmap: %v", err)
			return
		}
		// Grow via the kernel (append): region must re-register.
		if _, err := pr.Pwrite(p, fd, make([]byte, 8192), 4096); err != nil {
			t.Error(err)
			return
		}
		q, _ := pr.CreateUserQueue(p, 16)
		buf := make([]byte, 4096)
		_ = q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: 1, UseVBA: true, VBA: base + 8192, Sectors: 8, Buf: buf})
		for {
			if c, ok := q.PopCQE(); ok {
				if !c.Status.OK() {
					t.Errorf("read of grown region: %v", c.Status)
				}
				break
			}
			q.CQReady.Wait(p)
		}
	})
	s.Run()
	s.Shutdown()
}

// After Revoke then Restore, fmap on the same descriptor must re-map
// rather than hand back the withdrawn base: with FTEs and with an
// extent table, a direct read through the returned VBA succeeds.
func TestFmapAfterRevokeRestore(t *testing.T) {
	for name, extent := range map[string]bool{"fte": false, "region": true} {
		t.Run(name, func(t *testing.T) {
			s, m := newMachine(t)
			pr := m.NewProcess(ext4.Root)
			pr.ExtentFmap = extent
			data := make([]byte, 16384)
			for i := range data {
				data[i] = byte(i / 5)
			}
			s.Spawn("app", func(p *sim.Proc) {
				mkFile(t, p, pr, "/f", data)
				fd, err := openNoFmap(p, pr, "/f")
				if err != nil {
					t.Error(err)
					return
				}
				if base, err := pr.Fmap(p, fd); err != nil || base == 0 {
					t.Errorf("first fmap: base=%d err=%v", base, err)
					return
				}
				in, err := m.FS.Lookup(p, "/f", pr.Cred)
				if err != nil {
					t.Error(err)
					return
				}
				m.Revoke(in)
				m.Restore(in)
				base, err := pr.Fmap(p, fd)
				if err != nil || base == 0 {
					t.Errorf("fmap after restore: base=%d err=%v", base, err)
					return
				}
				q, err := pr.CreateUserQueue(p, 16)
				if err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, 4096)
				if err := q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: 1, UseVBA: true, VBA: base + 4096, Sectors: 8, Buf: buf}); err != nil {
					t.Error(err)
					return
				}
				for {
					if c, ok := q.PopCQE(); ok {
						if !c.Status.OK() {
							t.Errorf("read after restore: %v", c.Status)
						}
						break
					}
					q.CQReady.Wait(p)
				}
				if !bytes.Equal(buf, data[4096:8192]) {
					t.Error("read after restore returned wrong data")
				}
			})
			s.Run()
			s.Shutdown()
		})
	}
}
