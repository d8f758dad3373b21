package kernel

import (
	"errors"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

func newMachine2(t *testing.T) *Machine {
	t.Helper()
	dcfgs := []device.Config{device.OptaneP5800X(testCap), device.OptaneP5800X(testCap)}
	m, err := NewMachineN(sim.New(), dcfgs, nil, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A setup error is Drive's result, and the traffic setup spawned
// before failing runs coupled: nothing is armed.
func TestDriveReturnsSetupError(t *testing.T) {
	m := newMachine2(t)
	defer m.Sim.Shutdown()
	boom := errors.New("boom")
	armed := true
	err := m.Drive("setup", 2, func(p *sim.Proc, _ func(error)) error {
		m.Sim.SpawnOn(m.Nodes[1].Shard, "traffic", func(q *sim.Proc) {
			q.Sleep(1)
			armed = m.Sim.ParallelArmed()
		})
		return boom
	})
	if err != boom {
		t.Fatalf("Drive = %v, want the setup error", err)
	}
	if armed {
		t.Fatal("parallel drain armed after a failed setup")
	}
}

// The first error passed to fail wins over later ones.
func TestDriveFirstFailWins(t *testing.T) {
	_, m := newMachine(t)
	defer m.Sim.Shutdown()
	first, second := errors.New("first"), errors.New("second")
	err := m.Drive("setup", 1, func(p *sim.Proc, fail func(error)) error {
		m.Sim.Spawn("late", func(q *sim.Proc) {
			q.Sleep(2)
			fail(second)
		})
		m.Sim.Spawn("early", func(q *sim.Proc) {
			q.Sleep(1)
			fail(first)
		})
		return nil
	})
	if err != first {
		t.Fatalf("Drive = %v, want %v", err, first)
	}
}

// On a multi-device machine, setup runs coupled, the traffic it spawns
// runs under the parallel drain, and the simulator is coupled again
// once Drive returns.
func TestDriveArmsTrafficOnly(t *testing.T) {
	m := newMachine2(t)
	defer m.Sim.Shutdown()
	var setupArmed, trafficArmed bool
	err := m.Drive("setup", 2, func(p *sim.Proc, _ func(error)) error {
		setupArmed = m.Sim.ParallelArmed()
		m.Sim.SpawnOn(m.Nodes[1].Shard, "traffic", func(q *sim.Proc) {
			trafficArmed = m.Sim.ParallelArmed()
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if setupArmed || !trafficArmed {
		t.Fatalf("armed: setup %v traffic %v, want false and true", setupArmed, trafficArmed)
	}
	if m.Sim.ParallelArmed() {
		t.Fatal("simulator still armed after Drive")
	}
}

// Procs on different shards may fail in the same drain, on two host
// goroutines; Drive returns one of their errors (run under -race). Each
// shard has enough events that the second worker claims one before
// the first worker is done.
func TestDriveConcurrentFail(t *testing.T) {
	m := newMachine2(t)
	defer m.Sim.Shutdown()
	errs := []error{errors.New("shard 0"), errors.New("shard 1")}
	err := m.Drive("setup", 2, func(p *sim.Proc, fail func(error)) error {
		for i, n := range m.Nodes {
			m.Sim.SpawnOn(n.Shard, "traffic", func(q *sim.Proc) {
				for range 10000 {
					q.Sleep(1)
				}
				fail(errs[i])
			})
		}
		return nil
	})
	if err != errs[0] && err != errs[1] {
		t.Fatalf("Drive = %v, want one of the shard errors", err)
	}
}
