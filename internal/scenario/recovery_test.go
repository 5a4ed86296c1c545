package scenario

import (
	"context"
	"testing"
	"time"

	"walberla/internal/comm"
	"walberla/internal/sim"
)

// TestRecoveryMatrix runs one table of recovery invariants over both step
// runtimes, with the faults injected where a user injects them — the
// scenario's own faults section: every world × recovery mode × failure
// kind finishes on the field hash of the same scenario run fault-free,
// having restored exactly once in the way the mode implies, and without
// touching the disk when no checkpoint directory is configured.
func TestRecoveryMatrix(t *testing.T) {
	const steps, every, victim, at = 8, 2, 1, 5
	worlds := []struct {
		name  string
		build func() *Scenario
	}{
		{"uniform cavity", func() *Scenario {
			return &Scenario{
				Version:    Version,
				Geometry:   Geometry{Example: "cavity", LidVelocity: 0.08},
				Resolution: Resolution{Grid: [3]int{2, 2, 1}, CellsPerBlock: [3]int{8, 8, 8}},
			}
		}},
		{"refined shear layer", func() *Scenario {
			// The cavity's near-lid shear layer, refined one level at
			// runtime.
			sc := amrBase()
			sc.Refinement.Interval = 2
			return sc
		}},
		{"refined shear layer over unix sockets", func() *Scenario {
			sc := amrBase()
			sc.Refinement.Interval = 2
			sc.Transport.Network = "unix"
			return sc
		}},
	}
	for _, w := range worlds {
		ref := w.build()
		ref.Parallel.Ranks, ref.Run.Steps = 3, steps
		clean, err := Execute(context.Background(), ref, ExecuteOptions{})
		if err != nil {
			t.Fatalf("%s: fault-free run: %v", w.name, err)
		}
		for _, mode := range []string{"rewind", "shrink", "heal"} {
			for _, kind := range []string{"crash", "hang"} {
				if mode == "rewind" && kind == "hang" {
					continue // a rank that hangs never rejoins, which rewinding needs
				}
				t.Run(w.name+"/"+mode+"/"+kind, func(t *testing.T) {
					sc := w.build()
					sc.Parallel.Ranks, sc.Run.Steps = 3, steps
					sc.Resilience = Resilience{CheckpointEvery: every, Mode: mode}
					if mode == "rewind" {
						sc.Resilience.Dir = t.TempDir()
					}
					if mode == "heal" {
						sc.Parallel.Spares = 1
					}
					ev := []FaultEvent{{Rank: victim, Step: at}}
					if kind == "hang" {
						sc.Faults.Hangs = ev
						sc.Resilience.FailTimeout = Duration(500 * time.Millisecond)
					} else {
						sc.Faults.Crashes = ev
					}
					// What rank 0 put on its sockets, if it has any: every
					// replica byte it counted must be among them.
					var wire comm.NetStats
					got, err := Execute(context.Background(), sc, ExecuteOptions{
						Each: func(c *comm.Comm, _ *sim.Simulation) {
							if ns, ok := c.NetStats(); ok && c.Rank() == 0 {
								wire = ns
							}
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					if got.Hash != clean.Hash {
						t.Errorf("finished on hash %016x, fault-free %016x", got.Hash, clean.Hash)
					}
					r := got.Metrics.Recovery
					if r.Restores != 1 || r.FailuresDetected != 1 {
						t.Errorf("%d restores for %d failures, want 1 and 1: %+v", r.Restores, r.FailuresDetected, r)
					}
					want := map[string][2]int{"rewind": {0, 0}, "shrink": {1, 0}, "heal": {0, 1}}[mode]
					if r.Shrinks != want[0] || r.Heals != want[1] {
						t.Errorf("%d shrinks and %d heals, want %d and %d", r.Shrinks, r.Heals, want[0], want[1])
					}
					if sc.Transport.Network == "unix" && wire.BytesSent < r.ReplicaBytes {
						t.Errorf("%d replica bytes sent, but only %d bytes crossed rank 0's sockets", r.ReplicaBytes, wire.BytesSent)
					}
					if mode != "rewind" && (r.DiskReadsDuringRecovery != 0 || r.BuddyRestores != 1) {
						t.Errorf("recovery without a checkpoint directory read the disk %d times (%d buddy restores)", r.DiskReadsDuringRecovery, r.BuddyRestores)
					}
					// A survivor still inside the step before the failure aborts
					// there, so the replay is anything up to one interval.
					if r.StepsReplayed > every {
						t.Errorf("replayed %d steps, more than the interval of %d", r.StepsReplayed, every)
					}
				})
			}
		}
	}
}

// TestRebalanceMatrix: the periodic balance runs inside the step under
// every driver. A uniform and a refined world, rebalanced every 3 steps
// or not, with and without a crash healed onto one spare, all end on
// their world's hash of a fault-free run without rebalancing.
func TestRebalanceMatrix(t *testing.T) {
	const steps = 8
	worlds := []struct {
		name  string
		build func() *Scenario
	}{
		{"uniform cavity", func() *Scenario {
			return &Scenario{
				Version:    Version,
				Geometry:   Geometry{Example: "cavity", LidVelocity: 0.08},
				Resolution: Resolution{Grid: [3]int{2, 2, 1}, CellsPerBlock: [3]int{8, 8, 8}},
			}
		}},
		{"refined shear layer", func() *Scenario {
			sc := amrBase()
			sc.Refinement.Interval = 2
			return sc
		}},
	}
	for _, w := range worlds {
		ref := w.build()
		ref.Parallel.Ranks, ref.Run.Steps = 2, steps
		clean, err := Execute(context.Background(), ref, ExecuteOptions{})
		if err != nil {
			t.Fatalf("%s: reference run: %v", w.name, err)
		}
		for _, every := range []int{0, 3} {
			for _, crash := range []bool{false, true} {
				sc := w.build()
				sc.Parallel.Ranks, sc.Run.Steps, sc.Run.RebalanceEvery = 2, steps, every
				if crash {
					sc.Resilience = Resilience{CheckpointEvery: 2, Mode: "heal"}
					sc.Parallel.Spares = 1
					sc.Faults.Crashes = []FaultEvent{{Rank: 1, Step: 5}}
				}
				got, err := Execute(context.Background(), sc, ExecuteOptions{})
				if err != nil {
					t.Errorf("%s, rebalance_every %d, crash %v: %v", w.name, every, crash, err)
					continue
				}
				if got.Hash != clean.Hash || got.Steps != steps {
					t.Errorf("%s, rebalance_every %d, crash %v: %d steps, hash %016x, want %d and %016x", w.name, every, crash, got.Steps, got.Hash, steps, clean.Hash)
				}
			}
		}
	}
}
