package sim

import (
	"bytes"
	"slices"
	"testing"
)

// refEvent is one pending event of the reference calendar.
type refEvent struct {
	time Time
	seq  uint64
	id   int
}

// calendarRun drives a Simulator and a naive reference — a slice searched
// for its (time, seq) minimum — with one program, two bytes an operation.
// The program also moves the simulator's horizon, which the reference has
// no notion of: parking an event past it must change nothing observable.
// The simulator is in control: every callback pops the reference's minimum
// and must be that event, at that time; after every operation the clock,
// Executed, Pending and each pending handle's Time agree. End-of-instant
// functions are registered too, and each must run at the instant it was
// registered in, once no event at that instant is pending, in registration
// order, before the clock moves on. Only the public
// surface is used, and only live handles, so the same program means the
// same thing to any calendar that keeps the (time, seq) order.
type calendarRun struct {
	t    *testing.T
	s    *Simulator
	prog []byte
	pc   int

	now      Time
	seq      uint64
	executed uint64
	pending  []refEvent
	handles  map[int]*Event // pending id -> its handle
	nextID   int
	// The event whose callback is running, if one is. It may be cancelled
	// (a no-op) and rescheduled (a fresh event, same callback).
	inCallback   bool
	firing       int
	firingHandle *Event
	// The end-of-instant functions registered and not yet run, in
	// registration order.
	ends []refEnd
}

// refEnd is one end-of-instant function the reference expects to run.
type refEnd struct {
	at Time // the instant it was registered at
	id int
}

// calendarDelays has repeats and zeros so that ties are the common case.
var calendarDelays = [8]Time{0, 0, 1, 1, 2, 0.5, 3, 7}

func (c *calendarRun) schedule(delay Time, nested int) {
	id := c.nextID
	c.nextID++
	c.pending = append(c.pending, refEvent{c.now + delay, c.seq, id})
	c.seq++
	c.handles[id] = c.s.Schedule(delay, "fuzz", func() { c.fire(id, nested) })
}

// atEnd registers an end-of-instant function. When it runs it schedules,
// if it is told to, an event after delay: at delay 0 that event is at the
// same instant and must run before the functions registered after this one.
func (c *calendarRun) atEnd(delay Time, nested int, schedules bool) {
	id := c.nextID
	c.nextID++
	c.ends = append(c.ends, refEnd{c.now, id})
	c.s.AtInstantEnd(func() { c.end(id, delay, nested, schedules) })
}

// end is every end-of-instant function: it must be the first one
// registered and not yet run, at its instant, with no event left at it.
func (c *calendarRun) end(id int, delay Time, nested int, schedules bool) {
	if len(c.ends) == 0 || c.ends[0].id != id {
		c.t.Fatalf("end-of-instant function %d ran out of registration order: the reference expects %v", id, c.ends)
	}
	if at := c.ends[0].at; c.s.Now() != at {
		c.t.Fatalf("end-of-instant function %d registered at %v ran at %v", id, at, c.s.Now())
	}
	c.ends = c.ends[1:]
	for _, e := range c.pending {
		if e.time <= c.s.Now() {
			c.t.Fatalf("end-of-instant function %d ran at %v with event %d at %v pending", id, c.s.Now(), e.id, e.time)
		}
	}
	c.agree("in an end-of-instant function")
	if schedules {
		c.schedule(delay, nested)
	}
}

// fire is every event's callback: the reference's minimum must be this
// event; then the next `nested` operations run from inside the callback.
func (c *calendarRun) fire(id, nested int) {
	if len(c.pending) == 0 {
		c.t.Fatalf("event %d fired at %v; the reference calendar is empty", id, c.s.Now())
	}
	at := 0
	for i, e := range c.pending {
		if m := c.pending[at]; e.time < m.time || (e.time == m.time && e.seq < m.seq) {
			at = i
		}
	}
	min := c.pending[at]
	c.pending = slices.Delete(c.pending, at, at+1)
	if min.id != id || min.time != c.s.Now() {
		c.t.Fatalf("event %d fired at %v; the reference says event %d at %v", id, c.s.Now(), min.id, min.time)
	}
	c.now = min.time
	c.executed++
	c.inCallback, c.firing, c.firingHandle = true, id, c.handles[id]
	delete(c.handles, id)
	c.agree("at the start of a callback")
	for ; nested > 0; nested-- {
		c.op()
	}
	c.inCallback = false
}

// target picks a live event: one of the pending, or the firing one.
func (c *calendarRun) target(arg int) (id int, pending, ok bool) {
	ids := make([]int, 0, len(c.handles)+1)
	for id := range c.handles {
		ids = append(ids, id)
	}
	if _, again := c.handles[c.firing]; c.inCallback && !again {
		ids = append(ids, c.firing)
	}
	if len(ids) == 0 {
		return 0, false, false
	}
	slices.Sort(ids)
	id = ids[arg%len(ids)]
	_, pending = c.handles[id]
	return id, pending, true
}

func (c *calendarRun) refIndex(id int) int {
	return slices.IndexFunc(c.pending, func(e refEvent) bool { return e.id == id })
}

// op decodes and runs one operation on both calendars. The first byte
// modulo 6 picks it; the rest of that byte, flags, marks a schedule that
// registers an end-of-instant function instead (odd flags) and whether
// that function schedules the event when it runs (flags&2).
func (c *calendarRun) op() {
	if c.pc+2 > len(c.prog) {
		return
	}
	code, flags, arg := c.prog[c.pc]%6, c.prog[c.pc]/6, int(c.prog[c.pc+1])
	c.pc += 2
	delay := calendarDelays[arg&7]
	if c.inCallback && (code == 3 || code == 4) {
		code = 0 // no Step or RunUntil from inside a callback
	}
	switch code {
	case 1: // cancel
		id, pending, ok := c.target(arg >> 3)
		if !ok {
			break
		}
		if !pending {
			c.s.Cancel(c.firingHandle) // a no-op
			break
		}
		c.s.Cancel(c.handles[id])
		delete(c.handles, id)
		at := c.refIndex(id)
		c.pending = slices.Delete(c.pending, at, at+1)
	case 2: // reschedule
		id, pending, ok := c.target(arg >> 3)
		if !ok {
			break
		}
		if pending {
			c.handles[id] = c.s.Reschedule(c.handles[id], delay)
			c.pending[c.refIndex(id)] = refEvent{c.now + delay, c.seq, id}
		} else {
			c.handles[id] = c.s.Reschedule(c.firingHandle, delay)
			c.pending = append(c.pending, refEvent{c.now + delay, c.seq, id})
		}
		c.seq++
	case 3: // step: it ends the instant if it can, then executes one event or none
		before := c.executed
		if got := c.s.Step(); got != (c.executed == before+1) || (!got && (len(c.pending) > 0 || len(c.ends) > 0)) {
			c.t.Fatalf("Step returned %v after executing %d events, with %d events and %d end-of-instant functions in the reference",
				got, c.executed-before, len(c.pending), len(c.ends))
		}
	case 4: // run until
		horizon := c.now + delay
		c.s.RunUntil(horizon)
		for _, e := range c.pending {
			if e.time <= horizon {
				c.t.Fatalf("RunUntil(%v) left event %d at %v behind", horizon, e.id, e.time)
			}
		}
		if len(c.ends) > 0 {
			c.t.Fatalf("RunUntil(%v) returned with %d end-of-instant functions not run", horizon, len(c.ends))
		}
		c.now = horizon
	case 5: // horizon, raised or lowered
		c.s.SetHorizon(c.now + delay)
	default:
		if flags&1 == 1 {
			c.atEnd(delay, (arg>>3)&3, flags&2 != 0)
			break
		}
		c.schedule(delay, (arg>>3)&3)
	}
	c.agree("after an operation")
}

func (c *calendarRun) agree(when string) {
	s := c.s
	if s.Now() != c.now || s.Executed() != c.executed || s.Pending() != len(c.pending) {
		c.t.Fatalf("%s (pc %d): now %v executed %d pending %d; the reference has now %v executed %d pending %d",
			when, c.pc, s.Now(), s.Executed(), s.Pending(), c.now, c.executed, len(c.pending))
	}
	for _, e := range c.pending {
		if got := c.handles[e.id].Time(); got != e.time {
			c.t.Fatalf("%s (pc %d): event %d's handle reads time %v, the reference %v", when, c.pc, e.id, got, e.time)
		}
	}
	for _, e := range c.ends {
		if e.at != s.Now() {
			c.t.Fatalf("%s (pc %d): the clock is at %v, past end-of-instant function %d registered at %v",
				when, c.pc, s.Now(), e.id, e.at)
		}
	}
}

func runCalendarProgram(t *testing.T, prog []byte) {
	if len(prog) > 4096 {
		prog = prog[:4096]
	}
	c := &calendarRun{t: t, s: New(1), prog: prog, handles: map[int]*Event{}}
	for c.pc+2 <= len(c.prog) {
		c.op()
	}
	// Drain: callbacks with operations left to run have no program left.
	c.s.Run()
	if len(c.pending) != 0 || c.s.Pending() != 0 || c.s.Executed() != c.executed || len(c.ends) != 0 {
		t.Fatalf("after the drain: %d pending (reference %d), executed %d (reference %d), %d end-of-instant functions not run",
			c.s.Pending(), len(c.pending), c.s.Executed(), c.executed, len(c.ends))
	}
	if len(c.s.parked) != 0 {
		t.Fatalf("after the drain: %d events still parked", len(c.s.parked))
	}
}

// calendarSeeds are the shapes the models put on the calendar.
func calendarSeeds() [][]byte {
	// A repair storm: a few flow completions, each moved many times between
	// the steps that fire one of them, whose callback schedules a successor
	// and moves two more.
	var storm []byte
	for i := 0; i < 8; i++ {
		storm = append(storm, 0, byte(2+i%6|2<<3))
	}
	for i := 0; i < 60; i++ {
		storm = append(storm, 2, byte(i*8+i%7), 2, byte(i*24+(i+3)%8), 2, byte(i*40+2), 3, 0,
			0, byte(4|1<<3), 2, byte(i*16+5))
	}
	// Ties: everything at one time, cancelled and moved from inside callbacks.
	ties := bytes.Repeat([]byte{0, 3 << 3, 0, 1 | 2<<3, 1, 8, 2, 16, 3, 0}, 40)
	// Horizons: RunUntil over a calendar that refills from its callbacks.
	horizons := bytes.Repeat([]byte{0, 2 | 3<<3, 0, 5 | 1<<3, 4, 2, 1, 0, 2, 9, 4, 0}, 30)
	// A trial: a short horizon, then failures drawn mostly past it, some
	// cancelled or moved to either side of it from outside and from
	// callbacks, a run to the horizon, and a run past it.
	trial := []byte{5, 1}
	for i := 0; i < 40; i++ {
		trial = append(trial, 0, byte(i*8+6|(i%3)<<3), 0, byte(7|(i%4)<<3))
	}
	for i := 0; i < 20; i++ {
		trial = append(trial, 1, byte(i*16), 2, byte(i*24+i%8), 3, 0, 5, byte(i%8))
	}
	trial = append(trial, 4, 2, 5, 0, 4, 7, 4, 7)
	// Instants: end-of-instant functions registered from outside and from
	// callbacks at instants with ties, some scheduling an event at their own
	// instant and some a later one, stepped and run to horizons.
	const end, endScheduling = 6, 18 // schedule ops with flags 1 and 3
	instants := bytes.Repeat([]byte{0, 0 | 2<<3, 0, 0, end, 2, endScheduling, 0, endScheduling, 2 | 1<<3,
		3, 0, end, 0, 3, 0, 4, 1, endScheduling, 0, 3, 0, 3, 0}, 12)
	return [][]byte{storm, ties, horizons, trial, {}, {3, 0}, {2, 0, 1, 0, 4, 7}, {5, 0, 0, 7, 2, 0, 4, 1}, instants}
}

// FuzzCalendar holds the calendar against the naive reference: whatever
// is scheduled, cancelled, moved and stepped, from outside or from inside
// callbacks, and wherever the horizon is moved, the events fire in
// (time, seq) order, and every end-of-instant function runs at the end of
// the instant it was registered in.
func FuzzCalendar(f *testing.F) {
	for _, seed := range calendarSeeds() {
		f.Add(seed)
	}
	f.Fuzz(runCalendarProgram)
}
