package userlib

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

func TestStagingAppenderEndToEnd(t *testing.T) {
	e := newEnv(t)
	const records = 24
	rec := bytes.Repeat([]byte{0xd5}, 4096)
	e.s.Spawn("app", func(p *sim.Proc) {
		e.seed(t, p, "/log", nil)
		th, err := e.l.NewThread(p)
		if err != nil {
			t.Error(err)
			return
		}
		fd, err := e.l.Open(p, "/log", true)
		if err != nil {
			t.Error(err)
			return
		}
		// 32 KiB staging chunk: a relink every 8 appends.
		a, err := e.l.NewStagingAppender(p, th, fd, "/log.staging", 8*4096)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < records; i++ {
			if n, err := a.Append(p, rec); err != nil || n != 4096 {
				t.Errorf("append %d: n=%d err=%v", i, n, err)
				return
			}
		}
		if err := a.Flush(p); err != nil {
			t.Error(err)
			return
		}
		// The target sees every record, readable through the direct
		// path.
		f, _ := e.l.Proc.FDInfo(fd)
		if f.Size() != records*4096 {
			t.Errorf("target size = %d, want %d", f.Size(), records*4096)
			return
		}
		got := make([]byte, 4096)
		for i := 0; i < records; i++ {
			if _, err := th.Pread(p, fd, got, int64(i)*4096); err != nil {
				t.Errorf("read back %d: %v", i, err)
				return
			}
			if !bytes.Equal(got, rec) {
				t.Errorf("record %d corrupted", i)
				return
			}
		}
	})
	e.s.Run()
	e.s.Shutdown()
}

func TestStagingAppenderValidation(t *testing.T) {
	e := newEnv(t)
	e.s.Spawn("app", func(p *sim.Proc) {
		e.seed(t, p, "/log", nil)
		th, _ := e.l.NewThread(p)
		fd, _ := e.l.Open(p, "/log", true)
		if _, err := e.l.NewStagingAppender(p, th, fd, "/s", 1000); err == nil {
			t.Error("unaligned chunk accepted")
		}
		a, err := e.l.NewStagingAppender(p, th, fd, "/s2", 4*4096)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := a.Append(p, make([]byte, 100)); err == nil {
			t.Error("unaligned append accepted")
		}
		if _, err := a.Append(p, make([]byte, 8*4096)); err == nil {
			t.Error("append larger than chunk accepted")
		}
	})
	e.s.Run()
	e.s.Shutdown()
}

func TestStagingAppendsStayInUserspace(t *testing.T) {
	e := newEnv(t)
	e.s.Spawn("app", func(p *sim.Proc) {
		e.seed(t, p, "/log", nil)
		th, _ := e.l.NewThread(p)
		fd, _ := e.l.Open(p, "/log", true)
		a, err := e.l.NewStagingAppender(p, th, fd, "/stg", 64*4096)
		if err != nil {
			t.Error(err)
			return
		}
		before := e.direct()
		rec := make([]byte, 4096)
		for i := 0; i < 32; i++ {
			if _, err := a.Append(p, rec); err != nil {
				t.Error(err)
				return
			}
		}
		// Every staged append is a direct userspace overwrite.
		if e.direct()-before != 32 {
			t.Errorf("direct ops = %d, want 32", e.direct()-before)
		}
	})
	e.s.Run()
	e.s.Shutdown()
}
