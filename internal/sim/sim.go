// Package sim is the discrete-event simulation engine at the heart of the
// wind tunnel (§2.3 of the paper). It provides a virtual clock, an event
// calendar (arena-backed 4-ary heap keyed by time with FIFO tie-breaking),
// cancellable events, named deterministic random streams, an early-abort
// mechanism (§4.2: "abort a simulation run before it completes, if it is
// clear ... that the design constraint will not be met"), and event
// tracing.
//
// Time is a float64 in model units; the packages above use hours for
// failure processes and seconds for request-level processes — each
// Scenario picks one unit and sticks to it.
//
// # Calendar internals
//
// The calendar is built for sweep throughput (§4.2 calls for the tunnel
// itself to be fast): events live in a chunked arena and are recycled
// through a free list, so steady-state Schedule+Step performs zero heap
// allocations; the priority queue is an inlined 4-ary min-heap of small
// value entries keyed by (time, seq) — no interface boxing, FIFO
// tie-breaking preserved; Cancel is lazy (a tombstone skipped at pop)
// instead of a structural heap removal. Because (time, seq) is a total
// order, the execution order is exactly that of the previous binary-heap
// implementation: engine refactors change how events are stored, never
// which event fires next.
//
// # Reuse
//
// A sweep is thousands of replications of one model, so a Simulator can
// be run again instead of built again: Reset (ResetKeyed for the keyed
// mode) returns it, in place, to the state New (NewKeyed) builds, keeping
// the arena, the heap's backing array and the stream table. The contract
// is the same in every layer that has a Reset (cluster, storage, repair):
// a reset value is equal to a freshly built one, and every handle from
// before — here *Event, and the *rng.Source a Stream call returned — is
// dead.
package sim

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Time is a point in simulated time. The unit is chosen by the model.
type Time = float64

// Event slot lifecycle states.
const (
	evFree      uint8 = iota // on the free list, contents cleared
	evPending                // scheduled, waiting in the heap
	evTombstone              // cancelled, awaiting lazy removal at pop
	evFiring                 // callback currently executing
)

// Event is a scheduled callback. It is returned by Schedule/At so callers
// can Cancel it.
//
// Events are recycled: once an event has fired, its *Event may be reused
// by a later Schedule. Holding a pointer past the event's firing and
// cancelling it later is therefore invalid (it could cancel an unrelated
// recycled event); cancel pending events, and drop references once an
// event has fired. Cancelling a pending event any number of times, or
// cancelling from within any callback (including the event's own), is
// safe.
type Event struct {
	time    Time
	seq     uint64
	name    string
	fn      func()
	created Time
	state   uint8
}

// Time returns the scheduled firing time.
func (e *Event) Time() Time { return e.time }

// Name returns the event's diagnostic label.
func (e *Event) Name() string { return e.name }

// Arena geometry: events are allocated in fixed chunks so slot addresses
// stay stable while the arena grows (callers hold *Event across grows).
const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// heapEntry is one priority-queue element: the sort key plus the arena
// index of its event. Entries are plain values — comparisons never touch
// the arena.
type heapEntry struct {
	time Time
	seq  uint64
	idx  int32
}

func entryLess(a, b heapEntry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// Tracer receives every executed event when tracing is enabled.
type Tracer func(t Time, name string)

// Simulator is a sequential discrete-event simulator. It is not safe for
// concurrent use; the wind tunnel parallelizes across runs, not within one
// (§4.2's intra-run parallelism is planned via the interaction graph in
// internal/core, which schedules independent runs concurrently).
type Simulator struct {
	now  Time
	heap []heapEntry

	arena     []*[chunkSize]Event
	free      []int32
	allocated int32
	live      int // pending (non-tombstoned) events

	seq      uint64
	executed uint64
	stopped  bool
	root     rng.Source
	// streams holds every named stream ever requested. Reset keeps the
	// entries and bumps epoch; a stream is reseeded in place the first
	// time it is requested in the new epoch.
	streams map[string]*stream
	epoch   uint64
	// Keyed-stream mode (common random numbers, §4.2): when keyed is
	// true, Stream(name) derives rng.Keyed(keySeed, keyTrial, name) — a
	// pure function of the triple, so every simulator built with the same
	// (seed, trial) sees identical draws per stream name regardless of
	// which design point it simulates. antithetic mirrors the uniforms
	// of MirroredStream sources only; each stream records which variant
	// it was created as, so a mixed request is caught instead of silently
	// returning the wrong one.
	keyed      bool
	keySeed    uint64
	keyTrial   uint64
	antithetic bool
	tracer     Tracer
	// abortCheck, when set, is consulted every abortEvery events; a true
	// return stops the run (early abort, §4.2).
	abortCheck func() bool
	abortEvery uint64
	aborted    bool
}

// stream is one named random stream: the source, the epoch it was last
// seeded in, and whether it was requested mirrored.
type stream struct {
	src    rng.Source
	epoch  uint64
	mirror bool
}

// New returns a Simulator whose random streams derive from seed.
func New(seed uint64) *Simulator {
	s := new(Simulator)
	s.Reset(seed)
	return s
}

// NewKeyed returns a Simulator whose named streams are keyed by
// (seed, trial, name) — the common-random-numbers mode: stream draws are
// a pure function of the triple, independent of the design point being
// simulated, so paired design points sharing (seed, trial) experience
// identical failure draws. With antithetic set, MirroredStream sources
// emit the complemented uniforms of the plain (seed, trial) twin while
// Stream sources stay identical to it.
func NewKeyed(seed, trial uint64, antithetic bool) *Simulator {
	s := new(Simulator)
	s.ResetKeyed(seed, trial, antithetic)
	return s
}

// Reset returns the simulator, in place, to the state New(seed) builds:
// clock at zero, calendar empty with every pending callback dropped,
// counters, stop and abort flags cleared, no tracer, no abort check,
// named streams reseeded. It keeps the event arena, the heap's backing
// array and the stream table, so a reset simulator re-running a model of
// the same shape allocates nothing.
//
// A reset simulator is equal to a freshly built one, and every handle
// from before is dead: an *Event must not be cancelled or rescheduled, a
// *rng.Source from Stream must be requested again. Reset must not be
// called from inside an event callback.
func (s *Simulator) Reset(seed uint64) {
	s.reset(seed)
	s.keyed, s.keySeed, s.keyTrial, s.antithetic = false, 0, 0, false
}

// ResetKeyed is Reset to the state NewKeyed(seed, trial, antithetic)
// builds.
func (s *Simulator) ResetKeyed(seed, trial uint64, antithetic bool) {
	s.reset(seed)
	s.keyed, s.keySeed, s.keyTrial, s.antithetic = true, seed, trial, antithetic
}

// reset is the one initialisation routine behind New, NewKeyed, Reset
// and ResetKeyed.
func (s *Simulator) reset(seed uint64) {
	// Every slot is either free or referenced from the heap (pending or
	// tombstoned), so freeing the heap's slots empties the calendar.
	for _, entry := range s.heap {
		s.freeSlot(entry.idx, s.slot(entry.idx))
	}
	s.heap = s.heap[:0]
	s.now, s.live, s.seq, s.executed = 0, 0, 0, 0
	s.stopped, s.aborted = false, false
	s.root.Reseed(seed)
	s.epoch++
	s.tracer = nil
	s.abortCheck, s.abortEvery = nil, 1024
}

// Antithetic reports whether this simulator is the mirrored member of
// an antithetic pair.
func (s *Simulator) Antithetic() bool { return s.antithetic }

// Keyed reports whether streams are keyed by (seed, trial, name).
func (s *Simulator) Keyed() bool { return s.keyed }

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Executed returns the number of events executed so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// Pending returns the number of events still scheduled (cancelled events
// are excluded even while their tombstones await lazy removal).
func (s *Simulator) Pending() int { return s.live }

// Aborted reports whether the last run was stopped by the abort check.
func (s *Simulator) Aborted() bool { return s.aborted }

// Stream returns the deterministic random stream for name. Distinct names
// give independent streams, and the mapping is stable across runs with the
// same seed regardless of call order. Repeated calls with the same name
// return the same Source, so draws advance instead of silently replaying:
// a model can re-request its stream by name at every event without
// resetting it.
//
// In an antithetic keyed simulator, Stream is NOT mirrored: both members
// of a pair see identical draws, so everything except the explicitly
// mirrored coordinates (see MirroredStream) is common random numbers
// within the pair — the textbook antithetic construction.
func (s *Simulator) Stream(name string) *rng.Source {
	return s.stream(name, false)
}

// MirroredStream is Stream for the coordinates antithetic pairing
// inverts: in the mirrored member of a pair the returned source emits
// complemented uniforms, while the plain member (and any non-antithetic
// simulator) sees the ordinary keyed stream. Models route their failure
// time draws through MirroredStream so a pair explores "many failures"
// and "few failures" trajectories with everything else held common.
func (s *Simulator) MirroredStream(name string) *rng.Source {
	return s.stream(name, true)
}

func (s *Simulator) stream(name string, mirror bool) *rng.Source {
	st, ok := s.streams[name]
	switch {
	case !ok:
		if s.streams == nil {
			s.streams = make(map[string]*stream)
		}
		st = new(stream)
		s.streams[name] = st
	case st.epoch != s.epoch:
		// Left over from before a Reset: seed it again, in place.
	case s.keyed && st.mirror != mirror:
		// A name must be consistently plain or mirrored: handing the
		// cached other variant back would silently break the
		// antithetic pairing contract on this coordinate.
		panic(fmt.Sprintf("sim: stream %q requested both mirrored and non-mirrored", name))
	default:
		return &st.src
	}
	st.epoch, st.mirror = s.epoch, mirror
	if s.keyed {
		st.src.Rekey(s.keySeed, s.keyTrial, name)
		st.src.SetAntithetic(mirror && s.antithetic)
	} else {
		s.root.DeriveInto(&st.src, name)
	}
	return &st.src
}

// SetTracer installs fn as the event tracer (nil disables tracing).
func (s *Simulator) SetTracer(fn Tracer) { s.tracer = fn }

// SetAbortCheck installs an early-abort predicate evaluated every `every`
// executed events. When it returns true the run stops and Aborted()
// reports true.
func (s *Simulator) SetAbortCheck(fn func() bool, every uint64) {
	if every == 0 {
		every = 1
	}
	s.abortCheck = fn
	s.abortEvery = every
}

// slot returns the arena slot for idx.
func (s *Simulator) slot(idx int32) *Event {
	return &s.arena[idx>>chunkBits][idx&chunkMask]
}

// alloc returns a fresh or recycled event slot.
func (s *Simulator) alloc() (int32, *Event) {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx, s.slot(idx)
	}
	if int(s.allocated) == len(s.arena)*chunkSize {
		s.arena = append(s.arena, new([chunkSize]Event))
	}
	idx := s.allocated
	s.allocated++
	return idx, s.slot(idx)
}

// freeSlot recycles a popped slot, dropping its references so the closure
// and name become collectable immediately.
func (s *Simulator) freeSlot(idx int32, e *Event) {
	e.state = evFree
	e.fn = nil
	e.name = ""
	s.free = append(s.free, idx)
}

// heapPush inserts entry, restoring the 4-ary heap order.
func (s *Simulator) heapPush(entry heapEntry) {
	h := append(s.heap, entry)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.heap = h
}

// heapPop removes and returns the minimum entry.
func (s *Simulator) heapPop() heapEntry {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	s.heap = h
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[best]) {
				best = j
			}
		}
		if !entryLess(h[best], h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top
}

// pruneTop pops and recycles tombstoned entries until the heap is empty
// or a live event is at the top (lazy cancellation).
func (s *Simulator) pruneTop() {
	for len(s.heap) > 0 {
		idx := s.heap[0].idx
		e := s.slot(idx)
		if e.state != evTombstone {
			return
		}
		s.heapPop()
		s.freeSlot(idx, e)
	}
}

// Schedule enqueues fn to run after delay (>= 0) and returns the event.
func (s *Simulator) Schedule(delay Time, name string, fn func()) *Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: negative or NaN delay %v for event %q at t=%v", delay, name, s.now))
	}
	return s.At(s.now+delay, name, fn)
}

// At enqueues fn to run at absolute time t (>= Now) and returns the event.
func (s *Simulator) At(t Time, name string, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event %q in the past: %v < now %v", name, t, s.now))
	}
	if fn == nil {
		panic(fmt.Sprintf("sim: nil callback for event %q", name))
	}
	idx, e := s.alloc()
	e.time = t
	e.seq = s.seq
	e.name = name
	e.fn = fn
	e.created = s.now
	e.state = evPending
	s.heapPush(heapEntry{time: t, seq: s.seq, idx: idx})
	s.seq++
	s.live++
	return e
}

// Cancel removes a scheduled event. Cancelling an already-cancelled or
// currently-firing event is a no-op. The removal is lazy: the slot is
// tombstoned here and recycled when it reaches the top of the heap.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.state != evPending {
		return
	}
	e.state = evTombstone
	s.live--
}

// Reschedule cancels e and schedules a fresh event with the same name and
// callback after delay, returning the new event. e must be pending or
// currently firing.
func (s *Simulator) Reschedule(e *Event, delay Time) *Event {
	s.Cancel(e)
	return s.Schedule(delay, e.name, e.fn)
}

// Step executes the next event. It returns false when the calendar is
// empty or the simulator has been stopped.
func (s *Simulator) Step() bool {
	if s.stopped {
		return false
	}
	s.pruneTop()
	if len(s.heap) == 0 {
		return false
	}
	entry := s.heapPop()
	e := s.slot(entry.idx)
	if e.time < s.now {
		panic(fmt.Sprintf("sim: time went backwards: event %q at %v < now %v", e.name, e.time, s.now))
	}
	s.now = e.time
	s.executed++
	s.live--
	e.state = evFiring
	if s.tracer != nil {
		s.tracer(s.now, e.name)
	}
	e.fn()
	// Recycle only after the callback returns: the callback may observe
	// (and no-op-Cancel) its own still-firing event, and new events it
	// schedules must not be handed this slot while it runs.
	s.freeSlot(entry.idx, e)
	if s.abortCheck != nil && s.executed%s.abortEvery == 0 && s.abortCheck() {
		s.aborted = true
		s.stopped = true
	}
	return !s.stopped
}

// Run executes events until the calendar drains or Stop is called.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with time <= horizon, leaves later events
// queued, and advances the clock to exactly horizon.
func (s *Simulator) RunUntil(horizon Time) {
	if horizon < s.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", horizon, s.now))
	}
	for !s.stopped {
		s.pruneTop()
		if len(s.heap) == 0 || s.heap[0].time > horizon {
			break
		}
		if !s.Step() {
			break
		}
	}
	if !s.stopped && s.now < horizon {
		s.now = horizon
	}
}

// Stop halts the run; subsequent Step calls return false.
func (s *Simulator) Stop() { s.stopped = true }

// Stopped reports whether Stop was called (or an abort fired).
func (s *Simulator) Stopped() bool { return s.stopped }

// Every schedules fn at t0, t0+period, t0+2*period, ... until the
// returned stop function is called or the simulator stops. fn receives
// the firing time.
func (s *Simulator) Every(t0 Time, period Time, name string, fn func(Time)) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every requires positive period, got %v", period))
	}
	stopped := false
	var schedule func(at Time)
	var current *Event
	schedule = func(at Time) {
		current = s.At(at, name, func() {
			if stopped {
				return
			}
			fn(s.now)
			if !stopped {
				schedule(s.now + period)
			}
		})
	}
	schedule(t0)
	return func() {
		stopped = true
		// Clear the handle so a second stop() is a no-op even after the
		// cancelled slot has been recycled by a later Schedule.
		s.Cancel(current)
		current = nil
	}
}
