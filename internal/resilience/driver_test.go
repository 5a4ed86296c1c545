package resilience

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"walberla/internal/comm"
	"walberla/internal/field"
	"walberla/internal/lattice"
	"walberla/internal/output"
	"walberla/internal/telemetry"
)

// counterWorld is the driver's World without an LBM: its whole state is
// the number of steps it has taken, a step is one barrier (so a peer's
// death is noticed), and its records are one tiny record holding that
// number (counterRecord).
type counterWorld struct {
	c *comm.Comm
	n int

	installed   []int                     // the counts of every record installed
	failInstall func(*counterWorld) error // consulted once per Install
}

// counterRecord is a count as the one record of its rank: a single-cell
// D2Q9 field without ghost layers whose first value is the count.
func counterRecord(n int) State {
	f := field.NewPDFField(lattice.D2Q9(), 1, 1, 1, 0, field.AoS)
	f.Data()[0] = float64(n)
	return State{{Src: f, Dst: f}}
}

// count reads a count back from its record.
func count(r output.LeafSnapshot) int { return int(r.Src.Data()[0]) }

func (w *counterWorld) Comm() *comm.Comm { return w.c }

func (w *counterWorld) Step() error {
	if err := w.c.BarrierErr(); err != nil {
		return err
	}
	w.n++
	return nil
}

func (w *counterWorld) Telemetry() (*telemetry.Lane, *telemetry.Registry) { return nil, nil }
func (w *counterWorld) Records() (State, *lattice.Stencil)                { return counterRecord(w.n), lattice.D2Q9() }
func (w *counterWorld) Reset() error                                      { w.n = 0; return nil }

// Install takes the count of its first record — its own, or on a
// recruit its ward's — and keeps every record's count.
func (w *counterWorld) Install(c *comm.Comm, _ int, recs State) error {
	if f := w.failInstall; f != nil {
		w.failInstall = nil
		if err := f(w); err != nil {
			return err
		}
	}
	w.c, w.n = c, count(recs[0])
	for _, r := range recs {
		w.installed = append(w.installed, count(r))
	}
	return nil
}

// outcome is what one rank's driver run ended with.
type outcome struct {
	world *counterWorld
	stats Stats
	err   error
}

// drive runs `active` counter worlds (plus spares parked for Heal) from
// step `from` to step `to` under the driver and returns every rank's
// outcome by world rank.
func drive(t *testing.T, ctx context.Context, active, spares int, cfg Config, from, to int, crashes []comm.CrashSpec, tweak func(*counterWorld)) []outcome {
	t.Helper()
	out := make([]outcome, active+spares)
	var mu sync.Mutex
	opts := comm.Options{Faults: &comm.FaultPlan{Seed: 1, Crashes: crashes}}
	comm.RunWithOptions(active+spares, opts, func(c *comm.Comm) {
		var o outcome
		if c.WorldRank() >= active {
			var w World
			w, o.stats, _, o.err = RunSpare(ctx, c, active, cfg, func(nc *comm.Comm) (World, error) {
				return &counterWorld{c: nc}, nil
			})
			if w != nil {
				o.world = w.(*counterWorld)
			}
		} else {
			if spares > 0 {
				c = c.GrowWorld(active)
			}
			o.world = &counterWorld{c: c, n: from}
			if tweak != nil {
				tweak(o.world)
			}
			d, err := NewDriver(o.world, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			o.err = d.Run(ctx, from, to)
			o.stats = d.Stats
		}
		mu.Lock()
		out[c.WorldRank()] = o
		mu.Unlock()
	})
	return out
}

// TestDriverRecovery drives the loop through one injected crash of rank 1
// at step 5 in every mode, with generations at every second step.
func TestDriverRecovery(t *testing.T) {
	const to = 8
	crash := []comm.CrashSpec{{Rank: 1, Step: 5}}
	for _, tc := range []struct {
		name           string
		active, spares int
		cfg            Config
		disk           bool
		retired        int // world rank that must return ErrRetired, -1 for none
		replayed       int
		want           Stats // the counters that must match exactly on every finisher
		finalSize      int
	}{
		{name: "rewind to a disk set", active: 2, cfg: Config{CheckpointEvery: 2}, disk: true,
			retired: -1, replayed: 1, finalSize: 2},
		{name: "rewind to the initial state", active: 2, cfg: Config{},
			retired: -1, replayed: 5, finalSize: 2},
		{name: "shrink from the ring", active: 3, cfg: Config{Mode: Shrink, CheckpointEvery: 2},
			retired: 1, replayed: 1, want: Stats{Shrinks: 1, BuddyRestores: 1}, finalSize: 2},
		{name: "heal onto a spare", active: 2, spares: 1, cfg: Config{Mode: Heal, CheckpointEvery: 2},
			retired: 1, replayed: 1, want: Stats{Heals: 1, BuddyRestores: 1}, finalSize: 2},
		{name: "heal without spares degrades to shrink", active: 3, cfg: Config{Mode: Heal, CheckpointEvery: 2},
			retired: 1, replayed: 1, want: Stats{Shrinks: 1, BuddyRestores: 1}, finalSize: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.MaxFailures, cfg.BackoffBase = -1, time.Millisecond
			if tc.disk {
				cfg.Dir = t.TempDir()
			}
			adopted := 0
			for r, o := range drive(t, context.Background(), tc.active, tc.spares, cfg, 0, to, crash, nil) {
				if r == tc.retired {
					if !errors.Is(o.err, ErrRetired) {
						t.Errorf("rank %d: err = %v, want ErrRetired", r, o.err)
					}
					for q := 0; q < tc.active+tc.spares; q++ {
						if alive := o.world.c.Alive(q); alive == (q == r) {
							t.Errorf("world rank %d alive = %v, want only the victim dead", q, alive)
						}
					}
					continue
				}
				if o.err != nil {
					t.Errorf("rank %d: %v", r, o.err)
					continue
				}
				s := o.stats
				if o.world.n != to || o.world.c.Size() != tc.finalSize {
					t.Errorf("rank %d finished at state %d on %d ranks, want %d on %d", r, o.world.n, o.world.c.Size(), to, tc.finalSize)
				}
				// The recruit joined at the restored step and replayed nothing.
				if r < tc.active && s.StepsReplayed != tc.replayed {
					t.Errorf("rank %d: StepsReplayed = %d, want %d", r, s.StepsReplayed, tc.replayed)
				}
				if r < tc.active && (s.FailuresDetected != 1 || s.Restores != 1) {
					t.Errorf("rank %d: %d failures, %d restores, want 1 and 1", r, s.FailuresDetected, s.Restores)
				}
				if s.Shrinks != tc.want.Shrinks || s.Heals != tc.want.Heals || s.BuddyRestores != tc.want.BuddyRestores {
					t.Errorf("rank %d: %+v, want %+v", r, s, tc.want)
				}
				if !tc.disk && s.DiskReadsDuringRecovery != 0 && tc.cfg.Mode != Rewind {
					t.Errorf("rank %d read the disk %d times on the memory rung", r, s.DiskReadsDuringRecovery)
				}
				adopted += s.BlocksAdopted
				for _, a := range o.world.installed {
					if a != 4 {
						t.Errorf("rank %d installed state %d, want the step-4 generation", r, a)
					}
				}
			}
			if want := tc.want.Shrinks + tc.want.Heals; adopted != want {
				t.Errorf("%d ward states adopted in total, want %d", adopted, want)
			}
		})
	}
}

// TestDriverProtectsItsFirstStep: a run that starts between two
// multiples of CheckpointEvery (a resumed one) is protected at its first
// step, so a crash before the next multiple restores that step in every
// mode, and a recruit runs to the survivors' end step.
func TestDriverProtectsItsFirstStep(t *testing.T) {
	const from, to = 5, 9
	crash := []comm.CrashSpec{{Rank: 1, Step: 6}}
	for _, tc := range []struct {
		name           string
		active, spares int
		cfg            Config
		retired        int // world rank that must return ErrRetired, -1 for none
	}{
		{name: "rewind", active: 2, cfg: Config{CheckpointEvery: 4}, retired: -1},
		{name: "shrink", active: 3, cfg: Config{Mode: Shrink, CheckpointEvery: 4}, retired: 1},
		{name: "heal", active: 2, spares: 1, cfg: Config{Mode: Heal, CheckpointEvery: 4}, retired: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.MaxFailures, cfg.BackoffBase, cfg.Dir = -1, time.Millisecond, t.TempDir()
			for r, o := range drive(t, context.Background(), tc.active, tc.spares, cfg, from, to, crash, nil) {
				if r == tc.retired {
					if !errors.Is(o.err, ErrRetired) {
						t.Errorf("rank %d: err = %v, want ErrRetired", r, o.err)
					}
					continue
				}
				if o.err != nil || o.world.n != to {
					t.Errorf("rank %d finished at state %d (err %v), want %d", r, o.world.n, o.err, to)
				}
				if r < tc.active && o.stats.StepsReplayed != 1 {
					t.Errorf("rank %d replayed %d steps, want 1 (from the first step)", r, o.stats.StepsReplayed)
				}
				for _, a := range o.world.installed {
					if a != from {
						t.Errorf("rank %d installed state %d, want the first step's %d", r, a, from)
					}
				}
			}
			if got := output.ListValidSets(cfg.Dir); !slices.Equal(got, []int64{8, from}) {
				t.Errorf("sets %v, want [8 %d]", got, from)
			}
		})
	}
}

// TestDriverFailureBudget: MaxFailures -1 selects the default of 8, 0 is
// zero tolerance, n tolerates exactly n events.
func TestDriverFailureBudget(t *testing.T) {
	two := []comm.CrashSpec{{Rank: 1, Step: 2}, {Rank: 0, Step: 4}}
	for _, tc := range []struct {
		max    int
		giveUp bool
	}{{-1, false}, {0, true}, {1, true}, {2, false}} {
		cfg := Config{MaxFailures: tc.max, BackoffBase: time.Millisecond}
		for r, o := range drive(t, context.Background(), 2, 0, cfg, 0, 6, two, nil) {
			if gaveUp := o.err != nil && strings.Contains(o.err.Error(), "giving up"); gaveUp != tc.giveUp || (o.err != nil) != tc.giveUp {
				t.Errorf("MaxFailures %d, rank %d: err = %v, want give-up %v", tc.max, r, o.err, tc.giveUp)
			}
			if !tc.giveUp && (o.world.n != 6 || o.stats.FailuresDetected != 2) {
				t.Errorf("MaxFailures %d, rank %d: state %d after %d failures, want 6 after 2", tc.max, r, o.world.n, o.stats.FailuresDetected)
			}
		}
	}
}

// TestDriverRepairFailureIsRetried: a repair that dies of a rank failure
// is one more failure event — backed off for and repeated — not the end of
// the run.
func TestDriverRepairFailureIsRetried(t *testing.T) {
	cfg := Config{CheckpointEvery: 2, Dir: t.TempDir(), MaxFailures: -1, BackoffBase: time.Millisecond}
	out := drive(t, context.Background(), 2, 0, cfg, 0, 6, []comm.CrashSpec{{Rank: 1, Step: 3}}, func(w *counterWorld) {
		if w.c.Rank() != 0 {
			return
		}
		w.failInstall = func(w *counterWorld) error {
			w.c.Accuse(0, "install died")
			return &comm.RankFailedError{Rank: 0, Cause: "install died"}
		}
	})
	for r, o := range out {
		if o.err != nil || o.world.n != 6 {
			t.Errorf("rank %d: state %d, err %v", r, o.world.n, o.err)
		}
		if o.stats.FailuresDetected != 2 {
			t.Errorf("rank %d: %d failures detected, want 2 (the crash and the failed repair)", r, o.stats.FailuresDetected)
		}
	}
	if got := out[0].stats.Restores; got != 1 {
		t.Errorf("rank 0 completed %d restores, want 1 (its first repair failed)", got)
	}
}

// TestDriverCancelDuringBackoff: cancellation cuts the back-off short, the
// rendezvous still completes, and every rank leaves with ErrInterrupted.
func TestDriverCancelDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	cfg := Config{MaxFailures: 4, BackoffBase: time.Hour, BackoffMax: time.Hour}
	start := time.Now()
	for r, o := range drive(t, ctx, 2, 0, cfg, 0, 1000, []comm.CrashSpec{{Rank: 1, Step: 2}}, nil) {
		if !errors.Is(o.err, ErrInterrupted) {
			t.Errorf("rank %d: err = %v, want ErrInterrupted", r, o.err)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v — the back-off ignored the context", d)
	}
}

// TestDriverConfig: validation (rewind checkpointing needs a directory),
// defaults and the back-off ladder.
func TestDriverConfig(t *testing.T) {
	for _, bad := range []Config{{Mode: Mode(7)}, {Mode: Mode(-1)}, {CheckpointEvery: -1}, {CheckpointEvery: 2}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
	for _, tc := range []struct{ in, want int }{{-1, 8}, {-7, 8}, {0, 0}, {5, 5}} {
		cfg := Config{MaxFailures: tc.in}
		if err := cfg.Validate(); err != nil || cfg.MaxFailures != tc.want {
			t.Errorf("Validate(MaxFailures=%d) = %d, %v, want %d", tc.in, cfg.MaxFailures, err, tc.want)
		}
		if cfg.BackoffBase != 10*time.Millisecond || cfg.BackoffMax != 2*time.Second {
			t.Errorf("default backoff = %v/%v, want 10ms/2s", cfg.BackoffBase, cfg.BackoffMax)
		}
	}
	cfg := Config{BackoffBase: 10 * time.Millisecond, BackoffMax: 80 * time.Millisecond}
	for n, want := range map[int]time.Duration{1: 10, 2: 20, 3: 40, 4: 80, 5: 80, 30: 80, 1000: 80} {
		if got := cfg.backoff(n); got != want*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", n, got, want*time.Millisecond)
		}
	}
	comm.Run(1, func(c *comm.Comm) {
		if _, err := NewDriver(&counterWorld{c: c}, Config{Mode: Heal}); err != nil {
			t.Errorf("NewDriver refused Heal: %v", err)
		}
		if _, _, _, err := RunSpare(context.Background(), c, 1, Config{Mode: Shrink}, nil); err == nil {
			t.Error("RunSpare accepted Shrink, want an error")
		}
	})
}

// TestDriverInterruptedWrapsCause keeps the two sentinels matchable on a
// cancelled run.
func TestDriverInterruptedWrapsCause(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := fmt.Errorf("operator said stop")
	cancel(cause)
	if err := Interrupted(ctx); !errors.Is(err, ErrInterrupted) || !errors.Is(err, cause) {
		t.Errorf("Interrupted = %v, want both ErrInterrupted and the cause", err)
	}
	if err := Interrupted(context.Background()); err != ErrInterrupted {
		t.Errorf("Interrupted without a cause = %v", err)
	}
}

// TestDriverAgree: one member's refusal fails every member — the refuser
// with its own error, the others with one counting the refusals — and no
// refusal passes everywhere.
func TestDriverAgree(t *testing.T) {
	refusal := errors.New("record refused")
	comm.Run(3, func(c *comm.Comm) {
		if err := Agree(c, nil); err != nil {
			t.Errorf("rank %d: no refusal, err = %v", c.Rank(), err)
		}
		var mine error
		if c.Rank() == 1 {
			mine = refusal
		}
		err := Agree(c, mine)
		if want := "refused by 1 of 3 ranks"; c.Rank() == 1 && err != refusal || c.Rank() != 1 && (err == nil || !strings.Contains(err.Error(), want)) {
			t.Errorf("rank %d: err = %v", c.Rank(), err)
		}
	})
}
