package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, d := range []Time{5, 1, 3, 2, 4} {
		d := d
		s.Schedule(d, "e", func() { fired = append(fired, s.Now()) })
	}
	s.Run()
	if !sort.Float64sAreSorted(fired) {
		t.Fatalf("events fired out of order: %v", fired)
	}
	if len(fired) != 5 {
		t.Fatalf("fired %d events, want 5", len(fired))
	}
	if s.Now() != 5 {
		t.Fatalf("final time %v, want 5", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1, "tie", func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	ran := false
	e := s.Schedule(1, "x", func() { ran = true })
	s.Cancel(e)
	if s.Pending() != 0 {
		t.Fatalf("pending %d right after Cancel, want 0: the entry leaves the calendar at once", s.Pending())
	}
	// The handle is dead now. Cancelling it again is a no-op for as long as
	// nothing has been scheduled since (after that the slot may be someone
	// else's); so is cancelling nil.
	s.Cancel(e)
	s.Cancel(nil)
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if s.Executed() != 0 {
		t.Fatalf("executed %d, want 0", s.Executed())
	}
}

func TestCancelFromWithinEvent(t *testing.T) {
	s := New(1)
	ran := false
	var target, self *Event
	self = s.Schedule(1, "canceller", func() {
		s.Cancel(self) // the firing event: a no-op, its slot is freed when it returns
		s.Cancel(target)
		if s.Pending() != 0 {
			t.Errorf("pending %d inside the canceller, want 0", s.Pending())
		}
	})
	target = s.Schedule(2, "target", func() { ran = true })
	s.Run()
	if ran {
		t.Fatal("event cancelled mid-run still ran")
	}
	if s.Executed() != 1 || s.Now() != 1 {
		t.Fatalf("executed %d events up to t=%v, want 1 up to t=1", s.Executed(), s.Now())
	}
}

// TestCancelFreesSlotAtOnce: the calendar holds pending events and nothing
// else. Pending is the heap's length after every operation, and a model
// that schedules and cancels forever keeps reusing one slot.
func TestCancelFreesSlotAtOnce(t *testing.T) {
	s := New(1)
	check := func(when string, want int) {
		t.Helper()
		if s.Pending() != want || len(s.heap) != want {
			t.Fatalf("%s: Pending %d, heap holds %d, want %d", when, s.Pending(), len(s.heap), want)
		}
	}
	fn := func() {}
	var keep []*Event
	for i := 0; i < 5; i++ {
		keep = append(keep, s.Schedule(Time(10+i), "keep", fn))
		check("after Schedule", i+1)
	}
	for i := 0; i < 10000; i++ {
		e := s.Schedule(Time(i%7), "churn", fn)
		check("after churn Schedule", 6)
		s.Cancel(e)
		check("after churn Cancel", 5)
	}
	if s.allocated != 6 {
		t.Fatalf("schedule-cancel churn grew the arena to %d slots, want 6", s.allocated)
	}
	s.Cancel(keep[0]) // the heap's top
	check("after cancelling the top", 4)
	keep[3] = s.Reschedule(keep[3], 1)
	check("after Reschedule", 4)
	s.Step()
	check("after Step", 3)
	if s.Now() != 1 {
		t.Fatalf("the rescheduled event should have fired first, at t=1; now %v", s.Now())
	}
	s.Run()
	check("after Run", 0)
	if len(s.free) != int(s.allocated) {
		t.Fatalf("%d of %d slots free on an empty calendar", len(s.free), s.allocated)
	}
}

// TestRescheduleKeepsHandle: a pending event is moved, not replaced — same
// *Event, new Time, one firing — and lands among same-time events where a
// freshly scheduled one would: after those already there, before later
// ones.
func TestRescheduleKeepsHandle(t *testing.T) {
	s := New(1)
	var order []string
	log := func(name string) func() { return func() { order = append(order, name) } }
	x := s.Schedule(1, "x", log("x"))
	s.Schedule(5, "a", log("a"))
	s.Schedule(5, "b", log("b"))
	if got := s.Reschedule(x, 5); got != x {
		t.Fatal("Reschedule of a pending event returned a different *Event")
	}
	if x.Time() != 5 || x.Name() != "x" {
		t.Fatalf("moved event reads %q at %v, want x at 5", x.Name(), x.Time())
	}
	s.Schedule(5, "c", log("c"))
	y := s.Schedule(9, "y", log("y"))
	if got := s.Reschedule(y, 2); got != y || y.Time() != 2 { // earlier: sifts up
		t.Fatalf("moving y earlier gave time %v (same handle: %v), want 2", y.Time(), got == y)
	}
	if s.Pending() != 5 {
		t.Fatalf("pending %d, want 5", s.Pending())
	}
	// From inside its own callback there is nothing to move: a fresh event.
	var z *Event
	z = s.Schedule(6, "z", func() { // fires at 6 and, rescheduled once, at 7
		order = append(order, "z")
		if s.Now() == 6 {
			if again := s.Reschedule(z, 1); again == z {
				t.Error("Reschedule of the firing event returned the firing slot")
			}
		}
	})
	s.Run()
	if got, want := fmt.Sprint(order), "[y a b x c z z]"; got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
	if s.Executed() != 7 || s.Now() != 7 {
		t.Fatalf("executed %d up to t=%v, want 7 up to t=7", s.Executed(), s.Now())
	}
}

func TestReschedule(t *testing.T) {
	s := New(1)
	var at Time
	e := s.Schedule(1, "r", func() { at = s.Now() })
	s.Reschedule(e, 5)
	s.Run()
	if at != 5 {
		t.Fatalf("rescheduled event fired at %v, want 5", at)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.Schedule(1, "chain", recurse)
		}
	}
	s.Schedule(0, "chain", recurse)
	s.Run()
	if depth != 100 {
		t.Fatalf("chain depth %d, want 100", depth)
	}
	if s.Now() != 99 {
		t.Fatalf("final time %v, want 99", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(Time(i), "e", func() { count++ })
	}
	s.RunUntil(5.5)
	if count != 5 {
		t.Fatalf("executed %d events by t=5.5, want 5", count)
	}
	if s.Now() != 5.5 {
		t.Fatalf("clock %v, want exactly 5.5", s.Now())
	}
	if s.Pending() != 5 {
		t.Fatalf("pending %d, want 5", s.Pending())
	}
	s.RunUntil(100)
	if count != 10 {
		t.Fatalf("executed %d total, want 10", count)
	}
}

// TestParkedEventsPastTheHorizon: events past the horizon stay out of the
// heap and still fire, cancel and move exactly as the calendar without a
// horizon would have them: the transcript of the same program with and
// without SetHorizon is one.
func TestParkedEventsPastTheHorizon(t *testing.T) {
	run := func(horizon Time) string {
		s := New(1)
		s.SetHorizon(horizon)
		log := ""
		note := func(name string) func() { return func() { log += fmt.Sprintf("%s@%v ", name, s.Now()) } }
		var late []*Event
		for i := 0; i < 8; i++ {
			s.Schedule(Time(i), fmt.Sprint("early", i), note(fmt.Sprint("early", i)))
			late = append(late, s.Schedule(Time(20+i%3), fmt.Sprint("late", i), note(fmt.Sprint("late", i))))
		}
		if horizon == 10 && (len(s.heap) != 8 || len(s.parked) != 8 || s.Pending() != 16) {
			t.Fatalf("heap %d, parked %d, pending %d; want the 8 events past 10 parked", len(s.heap), len(s.parked), s.Pending())
		}
		s.Cancel(late[0])
		late[1] = s.Reschedule(late[1], 3)  // into the heap, behind early3
		late[2] = s.Reschedule(late[2], 25) // parked still, with a new seq
		s.Schedule(2, "moves", func() {
			log += "moves "
			late[3] = s.Reschedule(late[3], 1) // from a callback, into the heap
			s.Cancel(late[4])
		})
		s.RunUntil(10)
		log += fmt.Sprintf("| pending=%d ", s.Pending())
		s.RunUntil(21)
		log += fmt.Sprintf("| pending=%d ", s.Pending())
		s.Run()
		return log
	}
	want := run(math.Inf(1))
	for _, h := range []Time{10, 0, 20.5, 30} {
		if got := run(h); got != want {
			t.Fatalf("horizon %v ran\n%s\nwithout one\n%s", h, got, want)
		}
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(Time(i), "e", func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("executed %d, want 3 (stopped)", count)
	}
	if !s.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

// TestEndOfInstant: an end-of-instant function runs once no event is
// pending at the instant it was registered in — after the events at that
// instant, even those scheduled after it, and before a later event, before
// Step reports the calendar empty and before RunUntil and RunUntilN return
// at their horizon. Owners run first registered first, and an event one of
// them schedules at the instant runs before the next owner. Stop leaves a
// pending function pending: a stopped run ends inside its instant, and no
// Step or RunUntil runs it afterwards. Reset drops it.
func TestEndOfInstant(t *testing.T) {
	s := New(1)
	var log []string
	note := func(what string) func() {
		return func() { log = append(log, fmt.Sprintf("%s@%v", what, s.Now())) }
	}
	s.Schedule(1, "a", func() {
		note("a")()
		s.AtInstantEnd(note("end1"))
		s.AtInstantEnd(func() {
			note("end2")()
			s.Schedule(0, "tie", note("tie")) // at this instant: before end3
		})
		s.AtInstantEnd(note("end3"))
		s.Schedule(0, "b", note("b"))
	})
	s.Schedule(2, "c", note("c"))
	s.Run()
	want := "[a@1 b@1 end1@1 end2@1 tie@1 end3@1 c@2]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("ran %s, want %s", got, want)
	}

	// The last event's function runs before Step reports the calendar empty.
	log = nil
	s.Schedule(1, "d", func() { s.AtInstantEnd(note("end")) })
	if !s.Step() || len(log) != 0 {
		t.Fatalf("Step ran %v with the function's instant not over", log)
	}
	if s.Step() || fmt.Sprint(log) != "[end@3]" {
		t.Fatalf("the last Step ran %v, want [end@3] and false", log)
	}

	// RunUntil and RunUntilN end the instant before they return, also one
	// registered from outside with no event at all.
	for _, run := range []func(Time){
		s.RunUntil,
		func(h Time) { s.RunUntilN(h, 1) },
	} {
		log = nil
		s.Schedule(1, "e", func() { s.AtInstantEnd(note("end")) })
		s.Schedule(5, "f", note("f"))
		run(s.Now() + 2)
		if want := fmt.Sprintf("[end@%v]", s.Now()-1); fmt.Sprint(log) != want {
			t.Fatalf("the run to the horizon ran %v, want %s", log, want)
		}
		s.AtInstantEnd(note("outside"))
		run(s.Now())
		if want := fmt.Sprintf("[end@%v outside@%v]", s.Now()-1, s.Now()); fmt.Sprint(log) != want {
			t.Fatalf("a run to now ran %v, want %s", log, want)
		}
		s.Step() // f
	}

	// Stop: the function registered at the stopping instant stays pending.
	log = nil
	s.Schedule(1, "stop", func() {
		s.AtInstantEnd(note("end"))
		s.Stop()
	})
	s.Run()
	s.RunUntil(s.Now() + 1)
	if s.Step() || len(log) != 0 || len(s.ends) != 1 {
		t.Fatalf("a stopped simulator ran %v, %d functions pending; want none run, one pending", log, len(s.ends))
	}
	s.Reset(1)
	if len(s.ends) != 0 {
		t.Fatalf("Reset left %d end-of-instant functions", len(s.ends))
	}
	s.Schedule(1, "g", note("g"))
	s.Run()
	if fmt.Sprint(log) != "[g@1]" {
		t.Fatalf("after Reset the simulator ran %v, want [g@1]", log)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative delay")
		}
	}()
	New(1).Schedule(-1, "bad", func() {})
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.Schedule(5, "later", func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on past-time At")
		}
	}()
	s.At(1, "past", func() {})
}

func TestDeterminism(t *testing.T) {
	run := func(seed uint64) []Time {
		s := New(seed)
		r := s.Stream("arrivals")
		var times []Time
		var arrive func()
		n := 0
		arrive = func() {
			times = append(times, s.Now())
			n++
			if n < 50 {
				s.Schedule(r.ExpFloat64(), "arrive", arrive)
			}
		}
		s.Schedule(0, "arrive", arrive)
		s.Run()
		return times
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestEvery(t *testing.T) {
	s := New(1)
	var fires []Time
	var stop func()
	stop = s.Every(1, 2, "tick", func(at Time) {
		fires = append(fires, at)
		if len(fires) == 4 {
			stop()
		}
	})
	s.Run()
	want := []Time{1, 3, 5, 7}
	if len(fires) != len(want) {
		t.Fatalf("fired %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fired %v, want %v", fires, want)
		}
	}
}

func TestEveryDoubleStop(t *testing.T) {
	// A second stop() must stay a no-op: the first one freed the ticker's
	// slot, and the bystander scheduled next is handed exactly that slot.
	s := New(1)
	stop := s.Every(1, 1, "tick", func(Time) {})
	stop()
	ran := false
	s.Schedule(2, "bystander", func() { ran = true })
	if s.allocated != 1 {
		t.Fatalf("the bystander did not recycle the ticker's slot (%d slots allocated)", s.allocated)
	}
	stop()
	s.Run()
	if !ran {
		t.Fatal("double stop() cancelled an unrelated recycled event")
	}
}

func TestTracer(t *testing.T) {
	s := New(1)
	var names []string
	s.SetTracer(func(_ Time, name string) { names = append(names, name) })
	s.Schedule(1, "a", func() {})
	s.Schedule(2, "b", func() {})
	s.Run()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("trace %v, want [a b]", names)
	}
}

func TestHeapPropertyRandomOrder(t *testing.T) {
	f := func(delays []float64) bool {
		s := New(7)
		valid := make([]float64, 0, len(delays))
		for _, d := range delays {
			if d >= 0 && !math.IsNaN(d) && !math.IsInf(d, 0) && d < 1e12 {
				valid = append(valid, d)
			}
		}
		var fired []Time
		for _, d := range valid {
			s.Schedule(d, "e", func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		return sort.Float64sAreSorted(fired) && len(fired) == len(valid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleStepZeroAlloc(t *testing.T) {
	// Steady-state Schedule+Step must not allocate: events are recycled
	// through the arena free list and the heap reuses its capacity. This
	// is the allocation-regression guard for the §4.2 speed work — if a
	// future change boxes events again, this fails.
	s := New(1)
	var tick func()
	tick = func() { s.Schedule(1, "tick", tick) }
	s.Schedule(0, "tick", tick)
	for i := 0; i < 4096; i++ { // warm the arena, free list and heap
		if !s.Step() {
			t.Fatal("calendar drained during warmup")
		}
	}
	allocs := testing.AllocsPerRun(10000, func() {
		if !s.Step() {
			t.Fatal("calendar drained")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule+Step allocates %.1f allocs/event, want 0", allocs)
	}
}

func TestCancelHeavySteadyStateZeroAlloc(t *testing.T) {
	// Cancel and Reschedule churn is allocation-free and leaves nothing
	// behind: the victim is moved in place while still pending, the decoy
	// is cancelled and its slot reused at once, so the arena stays at the
	// three slots the model has live at its peak.
	s := New(1)
	var tick func()
	tick = func() { s.Schedule(1, "tick", tick) }
	s.Schedule(0, "tick", tick)
	fn := func() {}
	victim := s.Schedule(1.5, "victim", fn)
	cycle := func() {
		if moved := s.Reschedule(victim, 1.5); moved != victim {
			t.Fatal("Reschedule of a pending event returned a different *Event")
		}
		s.Cancel(s.Schedule(0.5, "decoy", fn))
		if !s.Step() {
			t.Fatal("calendar drained")
		}
	}
	for i := 0; i < 1024; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(5000, cycle)
	if allocs != 0 {
		t.Fatalf("steady-state Reschedule+Cancel+Step allocates %.1f allocs/event, want 0", allocs)
	}
	if s.allocated != 3 || s.Pending() != 2 {
		t.Fatalf("churn left %d slots allocated and %d events pending, want 3 and 2", s.allocated, s.Pending())
	}
}

func TestStreamMemoized(t *testing.T) {
	// Two Stream("x") calls must return the *same* source: draws advance
	// across call sites instead of silently replaying identical values
	// (the duplicate-stream hazard: a model that re-requests its stream
	// per event would otherwise see the same "random" draw forever).
	s := New(3)
	a := s.Stream("x")
	b := s.Stream("x")
	if a != b {
		t.Fatal("Stream(\"x\") returned two distinct sources")
	}
	v1 := s.Stream("x").Uint64()
	v2 := s.Stream("x").Uint64()
	if v1 == v2 {
		t.Fatalf("repeated Stream draws replayed the same value %d", v1)
	}
	// Shared state: draws interleaved through either handle follow one
	// sequence.
	ref := New(3).Stream("x")
	ref.Uint64()
	ref.Uint64()
	if got, want := a.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("stream state not shared: got %d, want %d", got, want)
	}
}

func TestStreamStability(t *testing.T) {
	// The stream for a name must not depend on other streams having been
	// requested first (model-extensibility requirement).
	s1 := New(9)
	_ = s1.Stream("other")
	a := s1.Stream("disk").Uint64()
	s2 := New(9)
	b := s2.Stream("disk").Uint64()
	if a != b {
		t.Fatal("stream depends on request order")
	}
}

func TestKeyedStreamsPureAndMirrored(t *testing.T) {
	a := NewKeyed(5, 7, false)
	b := NewKeyed(5, 7, false)
	if a.Stream("x").Uint64() != b.Stream("x").Uint64() {
		t.Fatal("keyed streams are not a pure function of (seed, trial, name)")
	}
	if !a.Keyed() || a.Antithetic() {
		t.Fatal("keyed flags wrong")
	}
	// The antithetic twin mirrors MirroredStream and shares Stream.
	plain := NewKeyed(5, 7, false)
	anti := NewKeyed(5, 7, true)
	if plain.Stream("shared").Uint64() != anti.Stream("shared").Uint64() {
		t.Error("plain Stream differs between antithetic twins")
	}
	if plain.MirroredStream("ttf").Uint64() != ^anti.MirroredStream("ttf").Uint64() {
		t.Error("MirroredStream is not the bitwise complement in the antithetic twin")
	}
	// Different trials give different draws.
	if NewKeyed(5, 7, false).Stream("x").Uint64() == NewKeyed(5, 9, false).Stream("x").Uint64() {
		t.Error("trial does not decorrelate keyed simulator streams")
	}
}

func TestMixedMirrorRequestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mixed mirrored/plain request for one name did not panic")
		}
	}()
	s := NewKeyed(1, 1, true)
	s.Stream("x")
	s.MirroredStream("x")
}
