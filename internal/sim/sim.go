// Package sim is the discrete-event simulation engine at the heart of the
// wind tunnel (§2.3 of the paper). It provides a virtual clock, an event
// calendar (arena-backed 4-ary heap keyed by time with FIFO tie-breaking),
// cancellable events, named deterministic random streams and event
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
// tie-breaking preserved. The heap is indexed: pos records, per arena
// slot, where that slot's entry sits, and the sift loops keep it current,
// so Cancel removes the entry and frees the slot at once and Reschedule
// rewrites a pending event's key — the new time and a fresh sequence
// number, exactly what Schedule would have given it — and sifts the entry
// from where it is. The heap holds pending events and nothing else:
// Pending is its length, and a model that moves a few events many times
// (a repair storm's flow completions) pays one sift per move, not a dead
// entry to pop later. Because (time, seq) is a total order, the execution
// order is that of any calendar keyed on it (FuzzCalendar runs one that
// is a slice searched for its minimum alongside): engine refactors change
// how events are stored, never which event fires next.
//
// A model that knows how far it will run says so with SetHorizon, and an
// event scheduled past the horizon is parked: it takes its slot and its
// sequence number but stays out of the heap, in an unordered list where
// pos records its index instead. A trial of a rare-failure model draws
// every component's first failure and almost all of them land past the
// end of the run; parked, none of them costs a sift, nor deepens the heap
// the events that do fire are sifted through. Cancel and Reschedule work
// on a parked event as on any other, and the parked events at or before
// a later horizon (SetHorizon, or a RunUntil past the horizon) enter the
// heap in (time, seq) order. Every parked event is later than the
// horizon, so while the heap's minimum is at or before it, that minimum
// is the calendar's; once it is not, Step puts every parked event back
// before it pops. The execution order is unchanged by construction.
//
// The price is the handle contract: an *Event is dead once its event has
// fired or been cancelled, because its slot may be handed out again by
// the very next Schedule. Cancelling a dead handle is a no-op only until
// then; after that it cancels a stranger. Holders drop (nil) a handle
// when they cancel it and when its callback runs.
//
// # End of an instant
//
// A model that keeps derived state — netsim's max–min allocation — may
// have several changes to it at one simulated instant, and only the state
// after the last of them is ever read across elapsed time. AtInstantEnd
// lets it pay for one rebuild per instant instead of one per change: the
// functions it registers run once no event is pending at the current
// time, before the clock moves on or a run stops at its horizon.
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
// dead. A stream Handle is the exception: it names a table entry, and the
// table is kept.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/rng"
)

// Time is a point in simulated time. The unit is chosen by the model.
type Time = float64

// Event slot lifecycle states.
const (
	evFree    uint8 = iota // on the free list, contents cleared
	evPending              // scheduled, in the heap
	evParked               // scheduled past the horizon, in the parked list
	evFiring               // callback currently executing
)

// Event is a scheduled callback. It is returned by Schedule/At so callers
// can Cancel or Reschedule it.
//
// Events are recycled: once an event has fired or been cancelled, its
// *Event may be handed out again by a later Schedule. Using a handle
// after that is invalid (it could cancel an unrelated recycled event):
// drop the reference when the event fires and when it is cancelled.
// Cancelling from within any callback (including the event's own, which
// is a no-op) is safe.
type Event struct {
	time  Time
	name  string
	fn    func()
	idx   int32 // this slot's arena index; set once, when the slot is first handed out
	state uint8
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
// concurrent use; the wind tunnel parallelizes across trials and design
// points, not within one run (§4.2's model-island parallelism is not
// implemented).
type Simulator struct {
	now Time
	// heap holds exactly the pending events; pos[idx] is the heap position
	// of arena slot idx's entry (meaningful only while that slot is
	// pending), kept flat so a sift step writes one int32 and never touches
	// the arena.
	heap []heapEntry
	pos  []int32
	// parked holds the pending events later than horizon that have not
	// entered the heap (see SetHorizon), in no order; pos[idx] is a parked
	// slot's index here.
	parked  []heapEntry
	horizon Time

	arena     []*[chunkSize]Event
	free      []int32
	allocated int32

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
	// ends holds the end-of-instant functions registered and not yet run,
	// in registration order (see AtInstantEnd).
	ends []func()
}

// stream is one named random stream: the source, the epoch it was last
// seeded in, whether it was requested mirrored, and the Hash of its name.
type stream struct {
	src    rng.Source
	epoch  uint64
	mirror bool
	name   string
	hash   uint64
}

// Handle is a named stream resolved once: it holds the simulator's own
// entry for the name, so Source costs neither a lookup nor a hash of the
// name. A handle outlives Reset — the entry is kept and seeded again on
// its first use in the new epoch — though a *rng.Source it returned does
// not. The zero Handle is not usable.
type Handle struct {
	s      *Simulator
	st     *stream
	mirror bool
}

// StreamHandle returns the handle whose Source is Stream(name).
func (s *Simulator) StreamHandle(name string) Handle {
	return Handle{s: s, st: s.entry(name)}
}

// MirroredStreamHandle returns the handle whose Source is
// MirroredStream(name).
func (s *Simulator) MirroredStreamHandle(name string) Handle {
	return Handle{s: s, st: s.entry(name), mirror: true}
}

// Source returns what Stream (for a mirrored handle, MirroredStream) of
// the handle's name returns now: the same source, draws advancing.
func (h Handle) Source() *rng.Source { return h.s.resolve(h.st, h.mirror) }

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
// clock at zero, calendar empty with every pending callback dropped, no
// horizon, counters and the stop flag cleared, no tracer, and every named
// stream due to be seeded again at its next request. It keeps the event arena,
// the heap's backing array and the stream table, so a reset simulator
// re-running a model of the same shape allocates nothing.
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
	// Every slot is free, pending in the heap or parked, so freeing the
	// heap's and the parked list's slots empties the calendar.
	for _, entry := range s.heap {
		s.freeSlot(s.slot(entry.idx))
	}
	for _, entry := range s.parked {
		s.freeSlot(s.slot(entry.idx))
	}
	s.heap, s.parked = s.heap[:0], s.parked[:0]
	s.horizon = math.Inf(1)
	s.now, s.seq, s.executed = 0, 0, 0
	s.stopped = false
	s.root.Reseed(seed)
	s.epoch++
	s.tracer = nil
	clear(s.ends)
	s.ends = s.ends[:0]
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

// Pending returns the number of events still scheduled, parked ones
// included.
func (s *Simulator) Pending() int { return len(s.heap) + len(s.parked) }

// SetHorizon tells the simulator that the run is not meant to go past h:
// an event scheduled later than h is parked out of the heap until the
// horizon is raised past it, here or by a RunUntil beyond h (see Calendar
// internals). It changes no event's firing order or time, only what the
// calendar pays for events that never fire. The parked events at or
// before h enter the heap now; the events already in it stay. Reset
// removes the horizon (+Inf: nothing is parked).
func (s *Simulator) SetHorizon(h Time) {
	s.horizon = h
	if len(s.parked) == 0 {
		return
	}
	start := len(s.heap)
	keep := s.parked[:0]
	for _, entry := range s.parked {
		if entry.time > h {
			s.pos[entry.idx] = int32(len(keep))
			keep = append(keep, entry)
			continue
		}
		s.heap = append(s.heap, entry)
		s.slot(entry.idx).state = evPending
	}
	s.parked = keep
	// Entered in (time, seq) order, an entry never sifts past the others
	// entered with it: into an empty heap, the sorted run is the heap.
	slices.SortFunc(s.heap[start:], func(a, b heapEntry) int {
		if c := cmp.Compare(a.time, b.time); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for i := start; i < len(s.heap); i++ {
		s.siftUp(i, s.heap[i])
	}
}

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
	return s.resolve(s.entry(name), mirror)
}

// entry returns the table's entry for name, creating it unseeded.
func (s *Simulator) entry(name string) *stream {
	st, ok := s.streams[name]
	if !ok {
		if s.streams == nil {
			s.streams = make(map[string]*stream)
		}
		st = &stream{name: name, hash: rng.Hash(name)}
		s.streams[name] = st
	}
	return st
}

// resolve returns st's source, seeding it in place the first time it is
// asked for in this epoch (a new entry has never been seeded).
func (s *Simulator) resolve(st *stream, mirror bool) *rng.Source {
	if st.epoch == s.epoch {
		if s.keyed && st.mirror != mirror {
			// A name must be consistently plain or mirrored: handing the
			// cached other variant back would silently break the
			// antithetic pairing contract on this coordinate.
			panic(fmt.Sprintf("sim: stream %q requested both mirrored and non-mirrored", st.name))
		}
		return &st.src
	}
	st.epoch, st.mirror = s.epoch, mirror
	if s.keyed {
		st.src.RekeyHashed(s.keySeed, s.keyTrial, st.hash)
		st.src.SetAntithetic(mirror && s.antithetic)
	} else {
		s.root.DeriveHashed(&st.src, st.hash)
	}
	return &st.src
}

// SetTracer installs fn as the event tracer (nil disables tracing).
func (s *Simulator) SetTracer(fn Tracer) { s.tracer = fn }

// slot returns the arena slot for idx.
func (s *Simulator) slot(idx int32) *Event {
	return &s.arena[idx>>chunkBits][idx&chunkMask]
}

// alloc returns a fresh or recycled event slot.
func (s *Simulator) alloc() *Event {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return s.slot(idx)
	}
	if int(s.allocated) == len(s.arena)*chunkSize {
		s.arena = append(s.arena, new([chunkSize]Event))
		s.pos = append(s.pos, make([]int32, chunkSize)...)
	}
	e := s.slot(s.allocated)
	e.idx = s.allocated
	s.allocated++
	return e
}

// freeSlot recycles a slot that has left the heap, dropping its references
// so the closure and name become collectable immediately.
func (s *Simulator) freeSlot(e *Event) {
	e.state = evFree
	e.fn = nil
	e.name = ""
	s.free = append(s.free, e.idx)
}

// siftUp puts entry at heap position i or above it, moving larger
// ancestors down into the hole. It is the only writer of a heap position
// besides siftDown, and both record every entry they place in pos.
func (s *Simulator) siftUp(i int, entry heapEntry) {
	h, pos := s.heap, s.pos
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(entry, h[p]) {
			break
		}
		h[i] = h[p]
		pos[h[i].idx] = int32(i)
		i = p
	}
	h[i] = entry
	pos[entry.idx] = int32(i)
}

// siftDown puts entry at heap position i or below it, moving the smallest
// child up into the hole while that child is smaller than entry.
func (s *Simulator) siftDown(i int, entry heapEntry) {
	h, pos := s.heap, s.pos
	n := len(h)
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
		if !entryLess(h[best], entry) {
			break
		}
		h[i] = h[best]
		pos[h[i].idx] = int32(i)
		i = best
	}
	h[i] = entry
	pos[entry.idx] = int32(i)
}

// place puts entry at heap position i — a hole, or an entry being
// replaced — and restores the heap order in whichever direction it is
// broken.
func (s *Simulator) place(i int, entry heapEntry) {
	if i > 0 && entryLess(entry, s.heap[(i-1)>>2]) {
		s.siftUp(i, entry)
	} else {
		s.siftDown(i, entry)
	}
}

// removeAt takes the entry at heap position i out of the heap: the last
// entry fills the hole.
func (s *Simulator) removeAt(i int) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if i < n {
		s.place(i, last)
	}
}

// unpark takes the entry at parked index i out of the parked list: the
// last entry fills the hole.
func (s *Simulator) unpark(i int) {
	n := len(s.parked) - 1
	if i < n {
		last := s.parked[n]
		s.parked[i] = last
		s.pos[last.idx] = int32(i)
	}
	s.parked = s.parked[:n]
}

// enqueue files entry, its slot's new key, in the heap — or, past the
// horizon, in the parked list — and sets the slot's state to match.
func (s *Simulator) enqueue(e *Event, entry heapEntry) {
	if entry.time > s.horizon {
		e.state = evParked
		s.pos[entry.idx] = int32(len(s.parked))
		s.parked = append(s.parked, entry)
		return
	}
	e.state = evPending
	s.heap = append(s.heap, heapEntry{})
	s.siftUp(len(s.heap)-1, entry)
}

// Schedule enqueues fn to run after delay (>= 0) and returns the event.
func (s *Simulator) Schedule(delay Time, name string, fn func()) *Event {
	return s.At(s.after(delay, name), name, fn)
}

// after returns the time delay from now, refusing a delay no event may have.
func (s *Simulator) after(delay Time, name string) Time {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: negative or NaN delay %v for event %q at t=%v", delay, name, s.now))
	}
	return s.now + delay
}

// At enqueues fn to run at absolute time t (>= Now) and returns the event.
func (s *Simulator) At(t Time, name string, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event %q in the past: %v < now %v", name, t, s.now))
	}
	if fn == nil {
		panic(fmt.Sprintf("sim: nil callback for event %q", name))
	}
	e := s.alloc()
	e.time = t
	e.name = name
	e.fn = fn
	s.enqueue(e, heapEntry{time: t, seq: s.seq, idx: e.idx})
	s.seq++
	return e
}

// Cancel removes a scheduled event from the calendar and frees its slot at
// once: e is dead afterwards (see Event). Cancelling nil or the currently
// firing event is a no-op.
func (s *Simulator) Cancel(e *Event) {
	if e == nil {
		return
	}
	switch e.state {
	case evPending:
		s.removeAt(int(s.pos[e.idx]))
	case evParked:
		s.unpark(int(s.pos[e.idx]))
	default:
		return
	}
	s.freeSlot(e)
}

// Reschedule moves e, with its name and callback, to fire after delay. A
// pending event is moved in place and e itself is returned: it takes the
// time and the fresh sequence number — so the FIFO position among events
// at that time — that cancelling it and scheduling a new one would give.
// From inside e's own callback there is nothing to move, and a fresh event
// is scheduled and returned. e must be pending or currently firing.
//
// A pending event stays in the heap wherever it moves. A parked event
// stays parked while its new time is past the horizon and enters the heap
// when it is not.
func (s *Simulator) Reschedule(e *Event, delay Time) *Event {
	switch e.state {
	case evPending:
		e.time = s.after(delay, e.name)
		s.place(int(s.pos[e.idx]), heapEntry{time: e.time, seq: s.seq, idx: e.idx})
	case evParked:
		e.time = s.after(delay, e.name)
		s.unpark(int(s.pos[e.idx]))
		s.enqueue(e, heapEntry{time: e.time, seq: s.seq, idx: e.idx})
	default:
		return s.Schedule(delay, e.name, e.fn)
	}
	s.seq++
	return e
}

// AtInstantEnd registers fn to run once, at the end of the current
// instant: when no event is pending at Now any more, before Step executes
// a later event or reports the calendar empty, and before RunUntil or
// RunUntilN return at their horizon. fn may schedule events, at Now too;
// those run before the functions registered after fn. The hook takes any
// number of owners, run first registered first; a function registered
// twice runs twice, so an owner that registers from many places keeps a
// flag of its own. A stopped simulator runs none of them: Stop ends the
// run inside its instant and leaves them pending, and Reset drops them.
func (s *Simulator) AtInstantEnd(fn func()) {
	if fn == nil {
		panic("sim: nil end-of-instant function")
	}
	s.ends = append(s.ends, fn)
}

// endInstant runs the end-of-instant functions while no event is pending
// at now: one that schedules an event at now leaves the rest until that
// event has run.
func (s *Simulator) endInstant() {
	for len(s.ends) > 0 && !s.stopped && !s.eventBy(s.now) {
		fn := s.ends[0]
		n := copy(s.ends, s.ends[1:])
		s.ends[n] = nil
		s.ends = s.ends[:n]
		fn()
	}
}

// Step executes the next event, after ending the current instant if no
// event is pending at it (see AtInstantEnd). It returns false when the
// calendar is empty or the simulator has been stopped.
func (s *Simulator) Step() bool {
	if s.stopped {
		return false
	}
	s.endInstant()
	if len(s.parked) > 0 && (len(s.heap) == 0 || s.heap[0].time > s.horizon) {
		// Past the horizon the parked events may come first.
		s.SetHorizon(math.Inf(1))
	}
	if len(s.heap) == 0 {
		return false
	}
	entry := s.heap[0]
	s.removeAt(0)
	e := s.slot(entry.idx)
	if e.time < s.now {
		panic(fmt.Sprintf("sim: time went backwards: event %q at %v < now %v", e.name, e.time, s.now))
	}
	s.now = e.time
	s.executed++
	e.state = evFiring
	if s.tracer != nil {
		s.tracer(s.now, e.name)
	}
	e.fn()
	// Recycle only after the callback returns: the callback may observe
	// (and no-op-Cancel) its own still-firing event, and new events it
	// schedules must not be handed this slot while it runs.
	s.freeSlot(e)
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
	s.runUntil(horizon, math.MaxInt)
}

// RunUntilN is RunUntil that also stops once it has executed n events
// (n >= 1). It reports whether the run reached the horizon — the clock is
// at horizon, or Stop was called — rather than being cut by n while an
// event at or before the horizon was still pending. Calling it again with
// the same horizon until it reports true executes the events RunUntil
// would, in the same order, and leaves the same state, so a caller can
// look up between slices of a long run.
func (s *Simulator) RunUntilN(horizon Time, n int) bool {
	if horizon < s.now {
		panic(fmt.Sprintf("sim: RunUntilN(%v) before now %v", horizon, s.now))
	}
	return s.runUntil(horizon, n)
}

func (s *Simulator) runUntil(horizon Time, n int) bool {
	for ; n > 0 && s.due(horizon); n-- {
		if !s.Step() {
			return true
		}
	}
	if n == 0 && s.due(horizon) {
		return false
	}
	if !s.stopped && s.now < horizon {
		s.now = horizon
	}
	return true
}

// due reports whether an event at or before t is pending, after ending
// the current instant if no event is pending at it (see AtInstantEnd).
func (s *Simulator) due(t Time) bool {
	s.endInstant()
	return s.eventBy(t)
}

// eventBy reports whether an event at or before t is pending. Past the
// horizon (a callback may have lowered it) it raises the horizon to t
// first, so a parked event at or before t is in the heap to be found.
func (s *Simulator) eventBy(t Time) bool {
	if len(s.heap) > 0 && s.heap[0].time <= t {
		return true
	}
	if t <= s.horizon || len(s.parked) == 0 {
		return false
	}
	s.SetHorizon(t)
	return len(s.heap) > 0 && s.heap[0].time <= t
}

// Stop halts the run; subsequent Step calls return false, and the
// end-of-instant functions pending stay so (see AtInstantEnd).
func (s *Simulator) Stop() { s.stopped = true }

// Stopped reports whether Stop was called.
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
		// Clear the handle so a second stop() is a no-op: the cancelled
		// slot may be recycled by the very next Schedule.
		s.Cancel(current)
		current = nil
	}
}
