package sim

import (
	"fmt"
	"testing"
)

// churn is a small model that uses everything a Reset has to undo: named
// streams (plain and mirrored), events that reschedule themselves, a
// cancelled event, an Every ticker, a tracer and, at stopAt > 0, a Stop.
// It returns a transcript of what happened up to the horizon.
func churn(s *Simulator, horizon, stopAt Time) string {
	log := ""
	s.SetTracer(func(t Time, name string) { log += fmt.Sprintf("%s@%.6f ", name, t) })
	if stopAt > 0 {
		s.Schedule(stopAt, "stop", s.Stop)
	}
	arrive := s.Stream("arrive")
	fail := s.MirroredStream("fail")
	var tick func()
	tick = func() { s.Schedule(arrive.ExpFloat64(), "arrive", tick) }
	tick()
	s.Schedule(fail.Float64()*horizon, "fail", func() {})
	s.Cancel(s.Schedule(horizon/2, "never", func() {}))
	s.Every(1, 3, "tick", func(Time) {})
	s.RunUntil(horizon)
	return fmt.Sprintf("%sexecuted=%d pending=%d now=%v stopped=%v", log, s.Executed(), s.Pending(), s.Now(), s.Stopped())
}

// TestResetMatchesNew: a simulator that has run — and was left with
// events pending, one cancelled, streams advanced, a tracer installed,
// stopped mid-run — replays, after Reset, exactly what a new simulator
// does; in plain mode, in keyed mode, and across a switch between the two.
func TestResetMatchesNew(t *testing.T) {
	reused := New(1)
	churn(reused, 50, 7) // leaves it stopped
	if !reused.Stopped() || reused.Pending() == 0 {
		t.Fatalf("the dirtying run left stopped=%v pending=%d", reused.Stopped(), reused.Pending())
	}
	for _, seed := range []uint64{9, 1, 9} {
		reused.Reset(seed)
		if reused.Now() != 0 || reused.Executed() != 0 || reused.Pending() != 0 || reused.Stopped() || reused.Keyed() {
			t.Fatalf("after Reset: now=%v executed=%d pending=%d stopped=%v keyed=%v",
				reused.Now(), reused.Executed(), reused.Pending(), reused.Stopped(), reused.Keyed())
		}
		if got, want := churn(reused, 40, 0), churn(New(seed), 40, 0); got != want {
			t.Fatalf("seed %d: reset simulator ran\n%s\nnew simulator ran\n%s", seed, got, want)
		}
	}
	for _, anti := range []bool{false, true, false} {
		reused.ResetKeyed(3, 8, anti)
		if !reused.Keyed() || reused.Antithetic() != anti {
			t.Fatalf("after ResetKeyed(anti=%v): keyed=%v antithetic=%v", anti, reused.Keyed(), reused.Antithetic())
		}
		if got, want := churn(reused, 40, 0), churn(NewKeyed(3, 8, anti), 40, 0); got != want {
			t.Fatalf("antithetic=%v: reset simulator ran\n%s\nnew simulator ran\n%s", anti, got, want)
		}
	}
	reused.Reset(9)
	if got, want := churn(reused, 40, 0), churn(New(9), 40, 0); got != want {
		t.Fatal("a simulator reset from keyed back to plain mode differs from a new one")
	}
}

// TestResetForgetsMirrorVariant: which variant a stream name was
// requested as is per-run state; a fresh simulator accepts either, so a
// reset one must.
func TestResetForgetsMirrorVariant(t *testing.T) {
	s := NewKeyed(1, 1, true)
	plain := s.Stream("x").Uint64()
	s.ResetKeyed(1, 1, true)
	if mirrored := s.MirroredStream("x").Uint64(); mirrored != ^plain {
		t.Errorf("after a reset, the mirrored variant drew %#x, want the complement of %#x", mirrored, plain)
	}
}

// TestResetDropsCallbacks: the closures of events that never fired are
// released by Reset, not kept alive in recycled slots.
func TestResetDropsCallbacks(t *testing.T) {
	s := New(1)
	for i := 0; i < 3*chunkSize; i++ {
		s.Schedule(Time(i), "pending", func() {})
	}
	s.Reset(2)
	for _, chunk := range s.arena {
		for i := range chunk {
			if e := &chunk[i]; e.fn != nil || e.name != "" || e.state != evFree {
				t.Fatalf("slot still holds fn=%v name=%q state=%d after Reset", e.fn != nil, e.name, e.state)
			}
		}
	}
	if len(s.free) != int(s.allocated) {
		t.Fatalf("%d of %d slots on the free list after Reset", len(s.free), s.allocated)
	}
}

// TestResetReuseZeroAlloc pins the reset path: resetting and running the
// same shape of model again — same stream names, same number of events —
// allocates nothing, in either mode.
func TestResetReuseZeroAlloc(t *testing.T) {
	names, mirrored := make([]string, 64), make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("node-%d", i)
		mirrored[i] = fmt.Sprintf("node-%d/ttf", i)
	}
	fn := func() {}
	s := New(1)
	model := func() {
		for i, name := range names {
			s.Schedule(s.Stream(name).ExpFloat64(), name, fn)
			s.Schedule(100+s.MirroredStream(mirrored[i]).Float64(), name, fn) // stays pending
		}
		s.RunUntil(50)
	}
	model()
	trial := uint64(0)
	if allocs := testing.AllocsPerRun(50, func() {
		trial++
		s.Reset(trial)
		model()
	}); allocs != 0 {
		t.Errorf("Reset + rerun allocates %.0f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		trial++
		s.ResetKeyed(7, trial, trial&1 == 1)
		model()
	}); allocs != 0 {
		t.Errorf("ResetKeyed + rerun allocates %.0f times, want 0", allocs)
	}
}
