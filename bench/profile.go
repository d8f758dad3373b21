package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// profileGroups are the layers a CPU profile's self samples are split
// into, each reported as <group>.cpu_pct. Every sample lands in exactly
// one group, so the shares sum to 100.
var profileGroups = []string{
	"sim", "sim.epoch", "runtime.sched", "runtime.copy", "runtime.rest",
	"device", "nvme", "iommu", "pagetable", "userlib", "kernel", "ext4", "core",
	"storage", "kvell", "frontend", "workload", "tenants",
	"stats", "metrics", "trace", "bench", "other",
}

// schedFiles are the runtime sources whose samples are goroutine
// park/ready, channel and scheduler work — the cost of the simulator's
// proc handoffs rather than of the model.
var schedFiles = map[string]bool{
	"proc.go": true, "chan.go": true, "select.go": true, "sema.go": true,
	"lock_futex.go": true, "lock_spinbit.go": true, "lock_sema.go": true,
	"os_linux.go": true, "sys_linux_amd64.s": true, "asm_amd64.s": true,
	"runtime2.go": true, "preempt.go": true,
}

// copyFiles are the runtime's memory copy and clear routines: self time
// there is data movement on behalf of the caller, mostly the model's
// DMA and buffer copies.
var copyFiles = map[string]bool{
	"memmove_amd64.s": true, "memclr_amd64.s": true, "duff_amd64.s": true,
}

// groupOf maps a sample's leaf function to its profile group.
func groupOf(fn, file string) string {
	pkg, _, _ := strings.Cut(fn, "[") // drop type arguments
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		switch base := path.Base(file); {
		case schedFiles[base]:
			return "runtime.sched"
		case copyFiles[base]:
			return "runtime.copy"
		}
		return "runtime.rest"
	case pkg == "main":
		return "bench"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		if name == "sim" && path.Base(file) == "parallel.go" {
			return "sim.epoch"
		}
		for _, g := range profileGroups {
			if g == name {
				return g
			}
		}
	}
	return "other"
}

// profileShares decodes a gzipped pprof CPU profile and returns the
// self-sample count of every group and the total sample count.
func profileShares(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		fn, file := "", ""
		if lines := p.locLines[s.locs[0]]; len(lines) > 0 {
			// The first line of a location is the innermost inlined
			// function: the code that was executing.
			f := p.funcs[lines[0]]
			fn, file = p.str(f.name), p.str(f.file)
		}
		counts[groupOf(fn, file)] += s.values[0]
		total += s.values[0]
	}
	return counts, total, nil
}

// The subset of the pprof profile.proto the grouping needs.
type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofFunc struct{ name, file int64 }

type pprofData struct {
	samples  []pprofSample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcs    map[uint64]pprofFunc
	strings  []string
}

func (p *pprofData) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errProto = errors.New("profile: malformed protobuf")

// protoFields walks the fields of one protobuf message, calling fn with
// each field number, wire type, varint value (wire type 0) and
// length-delimited payload (wire type 2).
func protoFields(b []byte, fn func(field int, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field, packed or not.
func varints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*pprofData, error) {
	p := &pprofData{locLines: map[uint64][]uint64{}, funcs: map[uint64]pprofFunc{}}
	err := protoFields(raw, func(field, wire int, _ uint64, msg []byte) error {
		switch field {
		case 2: // Sample
			var s pprofSample
			var vals []uint64
			err := protoFields(msg, func(f, w int, v uint64, pl []byte) (err error) {
				switch f {
				case 1:
					s.locs, err = varints(s.locs, w, v, pl)
				case 2:
					vals, err = varints(vals, w, v, pl)
				}
				return err
			})
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(msg, func(f, _ int, v uint64, pl []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(pl, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5: // Function
			var id uint64
			var f pprofFunc
			err := protoFields(msg, func(ff, _ int, v uint64, _ []byte) error {
				switch ff {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			p.funcs[id] = f
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}
