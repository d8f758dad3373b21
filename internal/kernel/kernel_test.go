package kernel

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/iommu"
	"repro/internal/nvme"
	"repro/internal/sim"
)

const testCap = 1 << 30

func newMachine(t *testing.T) (*sim.Sim, *Machine) {
	t.Helper()
	s := sim.New()
	m, err := NewMachineN(s, []device.Config{device.OptaneP5800X(testCap)}, nil, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

// mkFile creates a file with the given content through the kernel.
func mkFile(t *testing.T, p *sim.Proc, pr *Process, path string, data []byte) {
	t.Helper()
	fd, err := pr.Create(p, path, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 0 {
		if n, err := pr.Pwrite(p, fd, data, 0); err != nil || n != len(data) {
			t.Fatalf("pwrite: n=%d err=%v", n, err)
		}
	}
	if err := pr.Fsync(p, fd); err != nil {
		t.Fatal(err)
	}
	if err := pr.Close(p, fd); err != nil {
		t.Fatal(err)
	}
}

func TestTable1SyncReadLatency(t *testing.T) {
	s, m := newMachine(t)
	pr := m.NewProcess(ext4.Root)
	data := make([]byte, 64*1024)
	rand.New(rand.NewSource(1)).Read(data)

	var lat sim.Time
	s.Spawn("app", func(p *sim.Proc) {
		mkFile(t, p, pr, "/f", data)
		fd, err := pr.Open(p, "/f", false)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		start := p.Now()
		if n, err := pr.Pread(p, fd, buf, 4096); err != nil || n != 4096 {
			t.Errorf("pread: n=%d err=%v", n, err)
			return
		}
		lat = p.Now() - start
		if !bytes.Equal(buf, data[4096:8192]) {
			t.Error("sync read returned wrong data")
		}
	})
	s.Run()
	// Table 1: 160+2810+540+220+4020+100 = 7850 ns.
	if lat < 7700 || lat > 8000 {
		t.Fatalf("sync 4K read = %v, want ~7.85µs (Table 1)", lat)
	}
	s.Shutdown()
}

func TestOpenCostTable5(t *testing.T) {
	s, m := newMachine(t)
	pr := m.NewProcess(ext4.Root)
	var openLat sim.Time
	s.Spawn("app", func(p *sim.Proc) {
		mkFile(t, p, pr, "/f", make([]byte, 4096))
		start := p.Now()
		fd, err := pr.Open(p, "/f", false)
		if err != nil {
			t.Error(err)
			return
		}
		openLat = p.Now() - start
		_ = pr.Close(p, fd)
	})
	s.Run()
	// Table 5 row 1: default open ~1.28µs for a warm dcache.
	if openLat < 1100 || openLat > 1500 {
		t.Fatalf("open = %v, want ~1.28µs", openLat)
	}
	s.Shutdown()
}

func TestFmapWarmVsColdTable5(t *testing.T) {
	s, m := newMachine(t)
	pr := m.NewProcess(ext4.Root)
	const fileSize = 64 << 20 // 64 MiB
	var coldLat, warmLat sim.Time
	s.Spawn("app", func(p *sim.Proc) {
		// Build the file in chunks.
		fd, err := pr.Create(p, "/big", 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		if err := pr.Fallocate(p, fd, fileSize); err != nil {
			t.Error(err)
			return
		}
		if err := pr.Fsync(p, fd); err != nil {
			t.Error(err)
			return
		}
		if err := pr.Close(p, fd); err != nil {
			t.Error(err)
			return
		}
		// Drop the cached file table to force a cold fmap.
		in, err := m.FS.Lookup(p, "/big", ext4.Root)
		if err != nil {
			t.Error(err)
			return
		}
		in.DropFileTable()

		// cold fmap in a fresh process
		pr2 := m.NewProcess(ext4.Root)
		fd2, err := openNoFmap(p, pr2, "/big")
		if err != nil {
			t.Error(err)
			return
		}
		start := p.Now()
		b, err := pr2.Fmap(p, fd2)
		coldLat = p.Now() - start
		if err != nil || b == 0 {
			t.Errorf("cold fmap: base=%d err=%v", b, err)
			return
		}
		// warm fmap in a third process
		pr3 := m.NewProcess(ext4.Root)
		fd3, err := openNoFmap(p, pr3, "/big")
		if err != nil {
			t.Error(err)
			return
		}
		start = p.Now()
		b, err = pr3.Fmap(p, fd3)
		warmLat = p.Now() - start
		if err != nil || b == 0 {
			t.Errorf("warm fmap: base=%d err=%v", b, err)
			return
		}
	})
	s.Run()
	// Table 5, 64 MiB: warm fmap ≈ 1.0µs (2.76-1.74), cold ≈ 84µs.
	if warmLat < 500 || warmLat > 3*sim.Microsecond {
		t.Fatalf("warm fmap = %v, want ~1-2µs", warmLat)
	}
	if coldLat < 60*sim.Microsecond || coldLat > 120*sim.Microsecond {
		t.Fatalf("cold fmap = %v, want ~84µs", coldLat)
	}
	s.Shutdown()
}

// openNoFmap opens through the kernel without counting as a
// kernel-interface open (mimics UserLib's open-then-fmap split so the
// fmap cost can be measured in isolation).
func openNoFmap(p *sim.Proc, pr *Process, path string) (int, error) {
	in, err := pr.M.FS.Lookup(p, path, pr.Cred)
	if err != nil {
		return 0, err
	}
	return pr.installFD(in, path, false), nil
}

func TestVBAAccessThroughUserQueue(t *testing.T) {
	s, m := newMachine(t)
	pr := m.NewProcess(ext4.Root)
	data := make([]byte, 16384)
	rand.New(rand.NewSource(3)).Read(data)
	s.Spawn("app", func(p *sim.Proc) {
		mkFile(t, p, pr, "/f", data)
		fd, base, err := pr.OpenBypass(p, "/f", true)
		if err != nil || base == 0 {
			t.Errorf("OpenBypass: base=%d err=%v", base, err)
			return
		}
		q, err := pr.CreateUserQueue(p, 64)
		if err != nil {
			t.Error(err)
			return
		}
		// Read page 2 directly from userspace via VBA.
		buf := make([]byte, 4096)
		if err := q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: 1, UseVBA: true, VBA: base + 8192, Sectors: 8, Buf: buf}); err != nil {
			t.Error(err)
			return
		}
		var c nvme.CQE
		for {
			var ok bool
			if c, ok = q.PopCQE(); ok {
				break
			}
			q.CQReady.Wait(p)
		}
		if !c.Status.OK() {
			t.Errorf("VBA read status: %v", c.Status)
			return
		}
		if !bytes.Equal(buf, data[8192:12288]) {
			t.Error("VBA read returned wrong data")
		}
		_ = fd
	})
	s.Run()
	s.Shutdown()
}

func TestRevocationOnKernelInterfaceOpen(t *testing.T) {
	s, m := newMachine(t)
	alice := m.NewProcess(ext4.Cred{UID: 100, GID: 100})
	bob := m.NewProcess(ext4.Cred{UID: 0, GID: 0})
	s.Spawn("app", func(p *sim.Proc) {
		mkFile(t, p, bob, "/shared", make([]byte, 8192))
		// Make it world-readable/writable for alice.
		in, _ := m.FS.Lookup(p, "/shared", ext4.Root)
		_ = in

		fd, base, err := alice.OpenBypass(p, "/shared", false)
		if err != nil || base == 0 {
			t.Errorf("alice OpenBypass: base=%d err=%v", base, err)
			return
		}
		q, _ := alice.CreateUserQueue(p, 16)
		buf := make([]byte, 4096)
		submit := func() nvme.Status {
			if err := q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: 9, UseVBA: true, VBA: base, Sectors: 8, Buf: buf}); err != nil {
				t.Error(err)
				return nvme.StatusInternalError
			}
			for {
				if c, ok := q.PopCQE(); ok {
					return c.Status
				}
				q.CQReady.Wait(p)
			}
		}
		if st := submit(); !st.OK() {
			t.Errorf("pre-revocation read: %v", st)
			return
		}

		// Bob opens through the kernel interface: revocation.
		bfd, err := bob.Open(p, "/shared", false)
		if err != nil {
			t.Error(err)
			return
		}
		if st := submit(); st != nvme.StatusTranslationFault {
			t.Errorf("post-revocation read: %v, want translation-fault", st)
			return
		}
		// fmap() retry returns VBA 0 while the kernel open persists.
		if b, err := alice.Fmap(p, fd); err != nil || b != 0 {
			t.Errorf("fmap after revocation: base=%d err=%v, want 0", b, err)
			return
		}
		// Kernel interface still works for alice.
		if _, err := alice.Pread(p, fd, buf, 0); err != nil {
			t.Errorf("fallback pread: %v", err)
			return
		}
		_ = bob.Close(p, bfd)
	})
	s.Run()
	s.Shutdown()
}

func TestWorldCannotMapOthersFiles(t *testing.T) {
	s, m := newMachine(t)
	owner := m.NewProcess(ext4.Cred{UID: 0})
	thief := m.NewProcess(ext4.Cred{UID: 66, GID: 66})
	s.Spawn("app", func(p *sim.Proc) {
		fd, err := owner.Create(p, "/topsecret", 0o600)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := owner.Pwrite(p, fd, []byte("classified"), 0); err != nil {
			t.Error(err)
			return
		}
		_ = owner.Fsync(p, fd)
		_ = owner.Close(p, fd)
		if _, _, err := thief.OpenBypass(p, "/topsecret", false); err == nil {
			t.Error("thief opened a 0600 file owned by root")
		}
	})
	s.Run()
	s.Shutdown()
}

func TestAppendGrowsMappingInPlace(t *testing.T) {
	s, m := newMachine(t)
	pr := m.NewProcess(ext4.Root)
	s.Spawn("app", func(p *sim.Proc) {
		mkFile(t, p, pr, "/grow", make([]byte, 4096))
		_, base, err := pr.OpenBypass(p, "/grow", true)
		if err != nil || base == 0 {
			t.Errorf("OpenBypass: base=%d err=%v", base, err)
			return
		}
		// Append through the kernel: 3 MiB crosses a 2 MiB fragment
		// boundary, forcing syncGrowth to attach a new fragment.
		wfd, err := pr.Open(p, "/grow", true)
		if err != nil {
			t.Error(err)
			return
		}
		// Note: kernel-interface open by the same process revokes
		// too (paper does not special-case same-process); so check
		// growth with a pure-bypass workflow instead via Pwrite on
		// the bypass fd.
		_ = wfd
	})
	s.Run()
	s.Shutdown()

	// Pure-bypass growth path: append via the kernel append syscall
	// on the same (bypass) descriptor.
	s2 := sim.New()
	m2, err := NewMachineN(s2, []device.Config{device.OptaneP5800X(testCap)}, nil, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	pr2 := m2.NewProcess(ext4.Root)
	s2.Spawn("app", func(p *sim.Proc) {
		mkFile(t, p, pr2, "/grow", make([]byte, 4096))
		fd, base, err := pr2.OpenBypass(p, "/grow", true)
		if err != nil || base == 0 {
			t.Errorf("OpenBypass: base=%d err=%v", base, err)
			return
		}
		big := make([]byte, 3<<20)
		for i := range big {
			big[i] = 0x7e
		}
		if _, err := pr2.Pwrite(p, fd, big, 4096); err != nil {
			t.Error(err)
			return
		}
		// The new fragment must be reachable via VBA immediately.
		q, _ := pr2.CreateUserQueue(p, 16)
		buf := make([]byte, 4096)
		off := uint64(2 << 20) // second fragment
		if err := q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: 1, UseVBA: true, VBA: base + off, Sectors: 8, Buf: buf}); err != nil {
			t.Error(err)
			return
		}
		for {
			if c, ok := q.PopCQE(); ok {
				if !c.Status.OK() {
					t.Errorf("read of grown region: %v", c.Status)
				}
				break
			}
			q.CQReady.Wait(p)
		}
		if buf[0] != 0x7e {
			t.Errorf("grown region byte = %#x, want 0x7e", buf[0])
		}
	})
	s2.Run()
	s2.Shutdown()
}

func TestAioQD1MatchesSyncShape(t *testing.T) {
	s, m := newMachine(t)
	pr := m.NewProcess(ext4.Root)
	var aioLat, syncLat sim.Time
	s.Spawn("app", func(p *sim.Proc) {
		mkFile(t, p, pr, "/f", make([]byte, 1<<20))
		fd, _ := pr.Open(p, "/f", false)
		buf := make([]byte, 4096)

		start := p.Now()
		_, _ = pr.Pread(p, fd, buf, 0)
		syncLat = p.Now() - start

		ctx := pr.NewAioContext()
		start = p.Now()
		if err := ctx.Submit(p, []AioOp{{FD: fd, Off: 4096, Buf: buf}}); err != nil {
			t.Error(err)
			return
		}
		res := ctx.GetEvents(p, 1, 1)
		aioLat = p.Now() - start
		if len(res) != 1 || res[0].Err != nil {
			t.Errorf("aio result: %+v", res)
		}
	})
	s.Run()
	// libaio at QD1 ≈ sync plus an extra syscall pair (paper Fig. 6).
	if aioLat < syncLat || aioLat > syncLat+2*sim.Microsecond {
		t.Fatalf("aio QD1 = %v vs sync %v", aioLat, syncLat)
	}
	s.Shutdown()
}

func TestAioDeepQueueOverlaps(t *testing.T) {
	s, m := newMachine(t)
	pr := m.NewProcess(ext4.Root)
	var elapsed sim.Time
	const ops = 64
	s.Spawn("app", func(p *sim.Proc) {
		mkFile(t, p, pr, "/f", make([]byte, ops*4096))
		fd, _ := pr.Open(p, "/f", false)
		ctx := pr.NewAioContext()
		batch := make([]AioOp, ops)
		bufs := make([][]byte, ops)
		for i := range batch {
			bufs[i] = make([]byte, 4096)
			batch[i] = AioOp{FD: fd, Off: int64(i) * 4096, Buf: bufs[i], Tag: i}
		}
		start := p.Now()
		if err := ctx.Submit(p, batch); err != nil {
			t.Error(err)
			return
		}
		got := 0
		for got < ops {
			got += len(ctx.GetEvents(p, 1, ops))
		}
		elapsed = p.Now() - start
	})
	s.Run()
	// At QD64 the run is bounded by CPU submission work (~3.6µs/op)
	// with device time overlapped — well under the 64 * 7.85µs ≈
	// 502µs a synchronous loop would take. This is exactly KVell_64's
	// throughput-for-latency trade (Fig. 16).
	if elapsed > 300*sim.Microsecond {
		t.Fatalf("QD64 batch took %v, expected deep-queue overlap", elapsed)
	}
	s.Shutdown()
}

func TestUringLatencyBetweenSyncAndUserspace(t *testing.T) {
	s, m := newMachine(t)
	pr := m.NewProcess(ext4.Root)
	var lat sim.Time
	s.Spawn("app", func(p *sim.Proc) {
		mkFile(t, p, pr, "/f", make([]byte, 1<<20))
		fd, _ := pr.Open(p, "/f", false)
		u := pr.NewUring(p)
		buf := make([]byte, 4096)
		// warm one op
		u.SubmitRead(p, fd, buf, 0)
		u.Wait(p)
		start := p.Now()
		u.SubmitRead(p, fd, buf, 4096)
		r := u.Wait(p)
		lat = p.Now() - start
		if r.Err != nil || r.N != 4096 {
			t.Errorf("uring read: %+v", r)
		}
	})
	s.Run()
	// io_uring beats sync (7.85µs) but trails userspace (~5µs).
	if lat < 6*sim.Microsecond || lat >= 7850*sim.Nanosecond {
		t.Fatalf("io_uring 4K read = %v, want between ~6µs and 7.85µs", lat)
	}
	s.Shutdown()
}

func TestXRPChainLatency(t *testing.T) {
	s, m := newMachine(t)
	pr := m.NewProcess(ext4.Root)
	var lat sim.Time
	var steps int
	s.Spawn("app", func(p *sim.Proc) {
		// A 7-hop chain of 512 B nodes, each naming the next offset.
		data := make([]byte, 8*512)
		for hop := 0; hop < 7; hop++ {
			data[hop*512] = byte(hop + 1) // next hop index
		}
		mkFile(t, p, pr, "/chain", data)
		fd, _ := pr.Open(p, "/chain", false)
		buf := make([]byte, 512)
		start := p.Now()
		n, err := pr.XRPChain(p, fd, 0, 512, buf, func(step int, b []byte) (int64, int64, bool) {
			if step == 6 {
				return 0, 0, true
			}
			return int64(b[0]) * 512, 512, false
		})
		lat = p.Now() - start
		steps = n
		if err != nil {
			t.Error(err)
		}
	})
	s.Run()
	if steps != 7 {
		t.Fatalf("steps = %d, want 7", steps)
	}
	// One full-stack entry (~3.8µs software) + 7 device reads
	// (~3.5µs each at 512B) + 6 cheap resubmits (~0.7µs each):
	// far below 7 full syscalls (7*7.3µs ≈ 51µs).
	if lat > 40*sim.Microsecond {
		t.Fatalf("xrp chain = %v, want well under sync-path 7x cost", lat)
	}
	if lat < 25*sim.Microsecond {
		t.Fatalf("xrp chain = %v, implausibly fast", lat)
	}
	s.Shutdown()
}

func TestTimestampsDeferredUntilClose(t *testing.T) {
	s, m := newMachine(t)
	pr := m.NewProcess(ext4.Root)
	s.Spawn("app", func(p *sim.Proc) {
		mkFile(t, p, pr, "/ts", make([]byte, 4096))
		fd, base, err := pr.OpenBypass(p, "/ts", true)
		if err != nil || base == 0 {
			t.Errorf("OpenBypass: %v", err)
			return
		}
		f, _ := pr.FDInfo(fd)
		before := f.Ino.Mtime
		p.Sleep(10 * sim.Millisecond)
		f.MarkTimesDirty() // UserLib records a userspace write happened
		if f.Ino.Mtime != before {
			t.Error("mtime updated before close")
		}
		p.Sleep(10 * sim.Millisecond)
		_ = pr.Close(p, fd)
		if f.Ino.Mtime == before {
			t.Error("mtime not updated at close")
		}
	})
	s.Run()
	s.Shutdown()
}

// TestRevokeInvalidatesTranslationCaches asserts the hardware
// invalidation discipline end to end: once the IOMMU has served (and
// cached) translations for a mapping — IOTLB leaf entries and the
// paging-structure cache's upper-level path — a kernel Revoke must
// leave no translation cache able to resolve the revoked range.
func TestRevokeInvalidatesTranslationCaches(t *testing.T) {
	s, m := newMachine(t)
	pr := m.NewProcess(ext4.Root)
	s.Spawn("app", func(p *sim.Proc) {
		mkFile(t, p, pr, "/f", make([]byte, 1<<20))
		_, base, err := pr.OpenBypass(p, "/f", false)
		if err != nil || base == 0 {
			t.Errorf("OpenBypass: base=%d err=%v", base, err)
			return
		}
		req := iommu.Request{PASID: pr.PASID, DevID: m.Dev.Config().DevID, VBA: base, Bytes: 4096}
		// Warm every cache level: the first translation descends and
		// populates the PWC, the second is served from it.
		for i := 0; i < 2; i++ {
			if r := m.MMU.Translate(req); r.Status != iommu.OK {
				t.Errorf("warmup translation %d = %v", i, r.Status)
				return
			}
		}
		in, err := m.FS.Lookup(p, "/f", pr.Cred)
		if err != nil {
			t.Error(err)
			return
		}
		m.Revoke(in)
		if r := m.MMU.Translate(req); r.Status != iommu.Fault {
			t.Errorf("post-revoke translation = %v, want fault (stale cached path survived)", r.Status)
		}
	})
	s.Run()
	s.Shutdown()
}
