package comm

import (
	"sync"
	"testing"
	"time"

	"walberla/internal/telemetry"
)

func TestSetTelemetryRecordsTraffic(t *testing.T) {
	trace := telemetry.NewTrace()
	var mu sync.Mutex
	regs := map[int]*telemetry.Registry{}
	lanes := map[int]*telemetry.Lane{}

	Run(2, func(c *Comm) {
		tr := trace.NewTracer(c.Rank(), 0, 64)
		reg := telemetry.NewRegistry()
		c.SetTelemetry(tr.Driver(), reg)
		c.SetTelemetryStep(5)
		mu.Lock()
		regs[c.Rank()] = reg
		lanes[c.Rank()] = tr.Driver()
		mu.Unlock()

		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			c.RecvFloat64s(0, 7)
		}
		c.Barrier()
	})

	for rank := 0; rank < 2; rank++ {
		snap := regs[rank].Snapshot(rank)
		if snap.Counter("comm.sends") == 0 {
			t.Fatalf("rank %d: no sends counted (collectives should count)", rank)
		}
		var sends, recvs, barriers int
		lanes[rank].Each(func(s telemetry.Span) {
			switch s.Phase {
			case telemetry.PhaseSend:
				sends++
				if s.Step != 5 {
					t.Fatalf("rank %d: send span step = %d, want 5", rank, s.Step)
				}
			case telemetry.PhaseRecv:
				recvs++
			case telemetry.PhaseBarrier:
				barriers++
			}
		})
		if sends == 0 || recvs == 0 {
			t.Fatalf("rank %d: spans sends=%d recvs=%d", rank, sends, recvs)
		}
		if barriers != 1 {
			t.Fatalf("rank %d: barrier spans = %d, want 1", rank, barriers)
		}
	}
	if regs[0].Snapshot(0).Counter("comm.bytes_sent") == 0 {
		t.Fatal("rank 0: no bytes counted")
	}
}

func TestTelemetryFaultInstants(t *testing.T) {
	plan := &FaultPlan{Seed: 42, Delay: 1, MaxDelay: time.Millisecond, Hangs: []CrashSpec{{Rank: 1, Step: 0}}}
	var lane *telemetry.Lane
	var reg *telemetry.Registry
	RunWithOptions(2, Options{Faults: plan, FailTimeout: 50 * time.Millisecond}, func(c *Comm) {
		if c.Rank() == 1 {
			defer recoverHang(t, c, true)
			c.SetStep(0)
			return
		}
		tr := telemetry.NewTracer(0, 0, 64)
		r := telemetry.NewRegistry()
		c.SetTelemetry(tr.Driver(), r)
		lane, reg = tr.Driver(), r
		c.SendErr(1, 3, []float64{1}) //nolint:errcheck
		// Rank 1 hangs and never replies; the failure detector declares it
		// failed, which the aborted receive shows as an instant event.
		c.RecvErr(1, 4) //nolint:errcheck
	})
	if reg.Snapshot(0).Counter("comm.delayed") != 1 {
		t.Fatalf("delayed = %d, want 1", reg.Snapshot(0).Counter("comm.delayed"))
	}
	var delays, failed int
	lane.Each(func(s telemetry.Span) {
		switch s.Phase {
		case telemetry.PhaseFaultDelay:
			delays++
		case telemetry.PhaseRankFailed:
			failed++
			if s.Arg != 1 {
				t.Errorf("rank-failed instant names rank %d, want 1", s.Arg)
			}
		}
	})
	if delays != 1 || failed != 1 {
		t.Fatalf("instants: delays=%d failed=%d, want 1/1", delays, failed)
	}
}
