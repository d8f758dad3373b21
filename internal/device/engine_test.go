package device

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/nvme"
	"repro/internal/sim"
)

// doneRec is one observed completion: when the submitter saw the CQE,
// on which device, for which command, with what status.
type doneRec struct {
	at     sim.Time
	dev    string
	cid    uint16
	status nvme.Status
}

func (r doneRec) String() string {
	return fmt.Sprintf("%d %s %d %v", int64(r.at), r.dev, r.cid, r.status)
}

// reap collects n completions from q, stamping each with the
// submitter's clock at the wakeup that observed it.
func reap(p *sim.Proc, q *nvme.QueuePair, dev string, n int, out *[]doneRec) {
	for n > 0 {
		c, ok := q.PopCQE()
		if !ok {
			q.CQReady.Wait(p)
			continue
		}
		*out = append(*out, doneRec{at: p.Now(), dev: dev, cid: c.CID, status: c.Status})
		n--
	}
}

// checkSeq fails t unless got renders exactly as want, naming the
// first differing completion.
func checkSeq(t *testing.T, got []doneRec, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d completions, want %d:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].String() != want[i] {
			t.Fatalf("completion %d = %q, want %q\nfull sequence: %v", i, got[i], want[i], got)
		}
	}
}

// TestVFsShareChannelPoolFIFO saturates a two-channel parent from two
// virtual functions. VF a queues six 4 KiB reads at t=0 and VF b six
// more 1 µs later, so both VFs' dispatchers end up parked on the
// parent's shared channel pool. The full completion sequence is
// pinned. Past the first batch, every 4020 ns service round must
// complete exactly one read of each VF, a's first: a joined the
// pool's FIFO first, and each release hands its unit to the oldest
// waiter instead of letting one VF drain its backlog.
func TestVFsShareChannelPoolFIFO(t *testing.T) {
	s := sim.New()
	cfg := OptaneP5800X(capBytes)
	cfg.Channels = 2
	parent := newDevice(s, cfg)
	vfs := make([]*SSD, 2)
	for i, name := range []string{"vf-a", "vf-b"} {
		vf, err := Carve(s, parent, name, uint8(9+i), int64(i)<<16, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		vfs[i] = vf
	}
	var got []doneRec
	for i, vf := range vfs {
		vf, start := vf, sim.Time(i)*sim.Microsecond
		s.Spawn(vf.Config().Name, func(p *sim.Proc) {
			p.Sleep(start)
			q, _ := vf.CreateQueue(0, 16)
			buf := make([]byte, 4096)
			for cid := 1; cid <= 6; cid++ {
				if err := q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: uint16(cid), SLBA: int64(cid * 8), Sectors: 8, Buf: buf}); err != nil {
					t.Error(err)
					return
				}
			}
			reap(p, q, vf.Config().Name, 6, &got)
		})
	}
	s.Run()
	s.Shutdown()

	want := []string{
		"4020 vf-a 1 success", "4020 vf-a 2 success",
		"8040 vf-a 3 success", "8040 vf-b 1 success",
		"12060 vf-a 4 success", "12060 vf-b 2 success",
		"16080 vf-a 5 success", "16080 vf-b 3 success",
		"20100 vf-a 6 success", "20100 vf-b 4 success",
		"24120 vf-b 5 success", "24120 vf-b 6 success",
	}
	checkSeq(t, got, want)
	// Rounds 2-5: both VFs are backlogged, so each round is one grant
	// to each, in the pool's FIFO order.
	for i := 2; i < 10; i += 2 {
		a, b := got[i], got[i+1]
		if a.at != b.at || a.dev != "vf-a" || b.dev != "vf-b" {
			t.Fatalf("round at completions %d-%d = %v, %v; want one vf-a then one vf-b read at the same instant", i, i+1, a, b)
		}
	}
}

// TestFaultedFlushBehindWrites queues a flush behind four in-flight
// writes, then a read, a write and a second flush, with the device's
// delay, timeout and media-error sites armed. Each command's
// completion time and status is pinned; the flushes must complete
// only after every write admitted before them, whatever its fate.
func TestFaultedFlushBehindWrites(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	name := d.Config().Name
	reg := metrics.NewRegistry()
	d.SetObservers(faults.NewInjector(1, []faults.Rule{
		{Site: faults.DeviceSite(name, faults.KindDelay), Period: 2, Delay: 7 * sim.Microsecond},
		{Site: faults.DeviceSite(name, faults.KindTimeout), Start: 2, Count: 1, Delay: 20 * sim.Microsecond},
		{Site: faults.DeviceSite(name, faults.KindMedia), Start: 1, Count: 1},
	}), reg)
	var got []doneRec
	s.Spawn("app", func(p *sim.Proc) {
		q, _ := d.CreateQueue(0, 16)
		buf := make([]byte, 8192)
		cmds := []nvme.SQE{
			{Opcode: nvme.OpWrite, CID: 1, SLBA: 0, Sectors: 8, Buf: buf[:4096]},
			{Opcode: nvme.OpWrite, CID: 2, SLBA: 8, Sectors: 16, Buf: buf},
			{Opcode: nvme.OpWrite, CID: 3, SLBA: 24, Sectors: 8, Buf: buf[:4096]},
			{Opcode: nvme.OpWrite, CID: 4, SLBA: 32, Sectors: 8, Buf: buf[:4096]},
			{Opcode: nvme.OpFlush, CID: 5},
			{Opcode: nvme.OpRead, CID: 6, SLBA: 0, Sectors: 8, Buf: buf[:4096]},
			{Opcode: nvme.OpWrite, CID: 7, SLBA: 40, Sectors: 8, Buf: buf[:4096]},
			{Opcode: nvme.OpFlush, CID: 8},
		}
		for _, e := range cmds {
			if err := q.Submit(e); err != nil {
				t.Error(err)
				return
			}
		}
		reap(p, q, name, len(cmds), &got)
	})
	s.Run()
	s.Shutdown()

	want := []string{
		"4460 optane-p5800x 1 success",
		"4460 optane-p5800x 3 media-error",
		"11460 optane-p5800x 4 success",
		"11460 optane-p5800x 7 success",
		"12121 optane-p5800x 2 success",
		"17121 optane-p5800x 5 success",
		"17121 optane-p5800x 8 success",
		"20000 optane-p5800x 6 command-timeout",
	}
	checkSeq(t, got, want)
	var lastWrite sim.Time
	for _, r := range got {
		if r.cid != 5 && r.cid != 6 && r.cid != 8 {
			lastWrite = max(lastWrite, r.at)
		}
	}
	for _, r := range got {
		if (r.cid == 5 || r.cid == 8) && r.at < lastWrite+d.Config().FlushLatency {
			t.Fatalf("flush %d completed at %v, before the last write (%v) plus the flush latency", r.cid, r.at, lastWrite)
		}
	}
	if n := reg.Counter("device_ops_total", "dev", name, "op", "flush").Value(); n != 2 {
		t.Fatalf("flushes = %d, want 2", n)
	}
}
