// Package bypassd is a full-system reproduction of "BypassD: Enabling
// fast userspace access to shared SSDs" (Yadalam et al., ASPLOS '24).
//
// It implements the paper's I/O architecture end to end on a
// deterministic simulated machine: an Optane-class NVMe SSD, an IOMMU
// extended to translate Virtual Block Addresses through File Table
// Entries, an ext4-like kernel file system with fmap() and
// revocation, BypassD's UserLib, and the baselines the paper compares
// against (synchronous kernel I/O, libaio, io_uring SQPOLL, SPDK,
// XRP). All latencies are virtual nanoseconds, calibrated to the
// paper's measurements, so experiments are exact and reproducible.
//
// # Quick start
//
//	sys, err := bypassd.New(1 << 30) // 1 GiB device
//	if err != nil { ... }
//	bypassd.Run(sys, "app", func(p *bypassd.Proc) {
//		pr := sys.NewProcess(bypassd.RootCred)
//		io, _ := sys.NewFileIO(p, pr, bypassd.EngineBypassD)
//		fd, _ := io.Open(p, "/data", true)
//		io.Pwrite(p, fd, payload, 0)   // direct from "userspace"
//		io.Pread(p, fd, buf, 0)        // ~5µs on the virtual clock
//	})
//
// The benchmark harness behind every table and figure of the paper's
// evaluation lives in internal/experiments and is driven by
// cmd/bypassd-bench and the Benchmark* functions in this package.
package bypassd

import (
	"repro/internal/core"
	"repro/internal/ext4"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Re-exported core types. The simulation kernel's Proc is the handle
// every I/O call threads through: it is the simulated thread.
type (
	// System is a booted simulated machine.
	System = core.System
	// Engine selects one of the compared I/O systems.
	Engine = core.Engine
	// FileIO is the uniform per-thread file interface.
	FileIO = core.FileIO
	// Proc is a simulated thread.
	Proc = sim.Proc
	// Time is virtual nanoseconds.
	Time = sim.Time
	// Cred is a user identity for permission checks.
	Cred = ext4.Cred
	// Store is a raw device image (for snapshots).
	Store = storage.Store
)

// The evaluated engines.
const (
	EngineSync    = core.EngineSync
	EngineLibaio  = core.EngineLibaio
	EngineUring   = core.EngineUring
	EngineSPDK    = core.EngineSPDK
	EngineBypassD = core.EngineBypassD
)

// RootCred is the superuser credential.
var RootCred = ext4.Root

// New boots a fresh system: formatted file system, Optane-class
// device model, IOMMU with the BypassD extension, and the calibrated
// kernel stack.
func New(capacityBytes int64) (*System, error) {
	return core.New(capacityBytes)
}

// NewFromImage boots a system over an existing storage image (e.g. a
// snapshot from System.Snapshot).
func NewFromImage(capacityBytes int64, img *Store) (*System, error) {
	return core.Boot(core.Config{Capacity: capacityBytes, Image: img})
}

// Run spawns fn as a simulated thread and drives the simulation until
// all work completes. It is the usual entry point for examples and
// tests; fn may spawn further threads via sys.Sim.Spawn.
func Run(sys *System, name string, fn func(p *Proc)) {
	sys.Sim.Spawn(name, fn)
	sys.Sim.Run()
}
