package netsim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
)

// Flow is an in-progress bulk transfer.
type Flow struct {
	ID        int
	Src, Dst  NodeID
	size      float64 // MB
	remaining float64
	route     []*Link
	rate      float64 // MB per time unit, 0 while in latency phase
	lastSet   sim.Time
	active    bool
	done      func(f *Flow)
	failed    func(f *Flow, err error)
	fire      func() // the callback of every event the flow schedules; built once per Flow
	event     *sim.Event
	eventRate float64 // rate the pending flow/done event was scheduled at
}

// Rate returns the instantaneous allocated rate.
func (f *Flow) Rate() float64 { return f.rate }

// Remaining returns bytes left as of the last allocation update.
func (f *Flow) Remaining() float64 { return f.remaining }

// FlowSim schedules fluid flows over a Topology with max–min fair
// bandwidth allocation, driving completion callbacks through the
// simulator.
type FlowSim struct {
	sim    *sim.Simulator
	topo   *Topology
	flows  []*Flow // in flight (latency phase and active), in start order
	nextID int
	// issued holds the Flows Start has handed out since the last Reset (the
	// first maxRecycled of them: a run of millions of flows leaves the rest
	// to the collector, as it always did), spare the ones Reset took back:
	// Start reuses a spare — the struct, its callback's closure, its route's
	// storage — before it allocates. A flow is never reused within a run,
	// where a done or failed callback's caller may still hold it.
	issued, spare []*Flow

	// Which active flow crosses which link, kept as flows activate, leave
	// and are rerouted instead of rebuilt by every recompute: links is
	// indexed by Link.ID (see linkState), and busy holds the IDs of the
	// links that carry at least one active flow.
	links []linkState
	busy  []int

	// recompute's scratch, reused so the steady state allocates nothing:
	// the busy links that still carry an unfrozen flow.
	scan []int

	// walk holds OnLinkChange's snapshots of the active flows. A failed
	// callback may call OnLinkChange again; the nested call's snapshot goes
	// after the outer one's and is taken off again when it returns.
	walk []*Flow

	// Metrics.
	started   int64
	completed int64
	aborted   int64
	bytes     float64 // MB delivered
}

// maxRecycled bounds what a FlowSim keeps alive for reuse, at ~300 bytes a
// flow.
const maxRecycled = 4096

// linkState is what a FlowSim keeps per link.
type linkState struct {
	flows    []*Flow // the active flows crossing the link, in no particular order
	busyAt   int     // 1 + the link's index in FlowSim.busy; 0 while flows is empty
	residual float64 // recompute: capacity not yet handed to a frozen flow
	crossing int     // recompute: unfrozen flows on the link
}

// linkRoom is how many flows each link's list holds in the block grow
// carves the lists from; a list that outgrows it moves to storage of its
// own, which it keeps.
const linkRoom = 2

// NewFlowSim couples a simulator and a topology.
func NewFlowSim(s *sim.Simulator, t *Topology) *FlowSim {
	return &FlowSim{sim: s, topo: t}
}

// Reset returns the flow simulator to its just-built state: every flow in
// flight is dropped without a callback, IDs start over, the metrics are
// zero. The simulator that carried the flows' events is expected to have
// been reset as well, and the topology too; every *Flow from before is
// dead, and will be handed out again by a later Start.
func (fs *FlowSim) Reset() {
	clear(fs.flows)
	fs.flows = fs.flows[:0]
	fs.spare = append(fs.spare, fs.issued...)
	clear(fs.issued)
	fs.issued = fs.issued[:0]
	for _, id := range fs.busy {
		ls := &fs.links[id]
		clear(ls.flows)
		ls.flows, ls.busyAt = ls.flows[:0], 0
	}
	fs.busy = fs.busy[:0]
	clear(fs.walk)
	fs.walk = fs.walk[:0]
	fs.nextID = 0
	fs.started, fs.completed, fs.aborted, fs.bytes = 0, 0, 0, 0
}

// Active returns the number of in-flight flows.
func (fs *FlowSim) Active() int { return len(fs.flows) }

// Flows returns a copy of the in-flight flows (active and latency-phase)
// in start order. Intended for tests and diagnostics.
func (fs *FlowSim) Flows() []*Flow { return slices.Clone(fs.flows) }

// IsActive reports whether the flow has passed its latency phase and is
// consuming bandwidth.
func (f *Flow) IsActive() bool { return f.active }

// Route returns the links the flow currently crosses. The slice is the
// flow's own: a reroute writes the new route over it.
func (f *Flow) Route() []*Link { return f.route }

// Completed returns the number of finished flows.
func (fs *FlowSim) Completed() int64 { return fs.completed }

// Aborted returns the number of flows killed by link failures.
func (fs *FlowSim) Aborted() int64 { return fs.aborted }

// BytesDelivered returns total MB delivered by completed flows.
func (fs *FlowSim) BytesDelivered() float64 { return fs.bytes }

// Start begins a transfer of sizeMB from src to dst. done fires on
// completion; failed fires if the flow is aborted by a link failure and
// cannot be rerouted (either callback may be nil). The route's propagation
// latency elapses before bandwidth is consumed.
func (fs *FlowSim) Start(src, dst NodeID, sizeMB float64, done func(*Flow), failed func(*Flow, error)) (*Flow, error) {
	if sizeMB <= 0 || math.IsNaN(sizeMB) {
		return nil, fmt.Errorf("netsim: flow size must be > 0, got %v", sizeMB)
	}
	var f *Flow
	if n := len(fs.spare); n > 0 {
		f, fs.spare = fs.spare[n-1], fs.spare[:n-1]
	} else {
		f = &Flow{}
		f.fire = func() {
			// A flow has one event pending at a time: its activation while
			// it is in its latency phase, then its completion. A local flow
			// has no latency phase, only the completion.
			if f.active || len(f.route) == 0 {
				fs.finish(f)
			} else {
				fs.activate(f)
			}
		}
	}
	route, err := fs.topo.routeInto(f.route, src, dst)
	if err != nil {
		fs.spare = append(fs.spare, f)
		return nil, err
	}
	*f = Flow{
		ID: fs.nextID, Src: src, Dst: dst,
		size: sizeMB, remaining: sizeMB, route: route,
		done: done, failed: failed, fire: f.fire,
	}
	if len(fs.issued) < maxRecycled {
		fs.issued = append(fs.issued, f)
	}
	fs.nextID++
	fs.flows = append(fs.flows, f)
	fs.started++
	lat := RouteLatency(route)
	if len(route) == 0 {
		// Local transfer: completes after latency only (disk-to-disk
		// copy on the same host is not network-bound).
		f.event = fs.sim.Schedule(lat, "flow/local-done", f.fire)
		return f, nil
	}
	f.event = fs.sim.Schedule(lat, "flow/activate", f.fire)
	return f, nil
}

// activate ends a flow's latency phase: it starts consuming bandwidth over
// its route or, if a link on the route went down meanwhile (OnLinkChange
// does not look at a flow in its latency phase), over a new one, or it is
// aborted as OnLinkChange aborts an active flow that has no route left.
func (fs *FlowSim) activate(f *Flow) {
	f.event = nil // this event; recompute schedules the completion
	if broken(f.route) && !fs.reroute(f) {
		return
	}
	f.lastSet = fs.sim.Now()
	fs.join(f)
	fs.recompute()
}

// Cancel aborts a flow without invoking callbacks.
func (fs *FlowSim) Cancel(f *Flow) {
	if !slices.Contains(fs.flows, f) {
		return
	}
	fs.removeFlow(f)
	fs.recompute()
}

// finish completes a flow.
func (fs *FlowSim) finish(f *Flow) {
	fs.bytes += f.size
	fs.completed++
	fs.removeFlow(f)
	if f.done != nil {
		f.done(f)
	}
	fs.recompute()
}

// removeFlow takes a flow out of flight: its pending event is cancelled
// and, if it is active, it leaves its links' lists.
func (fs *FlowSim) removeFlow(f *Flow) {
	if f.event != nil {
		fs.sim.Cancel(f.event)
		f.event = nil
	}
	if i := slices.Index(fs.flows, f); i >= 0 {
		fs.flows = slices.Delete(fs.flows, i, i+1)
	}
	if f.active {
		fs.leave(f)
	}
}

// OnLinkChange must be called after any link state change; it reroutes or
// aborts affected flows and reallocates bandwidth.
func (fs *FlowSim) OnLinkChange() {
	now := fs.sim.Now()
	// Settle progress before rerouting.
	fs.settle(now)
	// A failed callback may start or cancel flows (repair requeues and
	// pumps), or change a link and call OnLinkChange again, so walk a
	// snapshot: every flow active now is looked at once, in start order,
	// unless an earlier callback already removed it.
	base := len(fs.walk)
	for _, f := range fs.flows {
		if f.active {
			fs.walk = append(fs.walk, f)
		}
	}
	for i, end := base, len(fs.walk); i < end; i++ {
		f := fs.walk[i] // indexed afresh: a nested call may have moved the slice
		if !f.active || !broken(f.route) {
			continue
		}
		fs.leave(f)
		if fs.reroute(f) {
			fs.join(f)
		}
	}
	clear(fs.walk[base:])
	fs.walk = fs.walk[:base]
	fs.recompute()
}

// broken reports whether a route crosses a link that is down.
func broken(route []*Link) bool {
	for _, l := range route {
		if !l.up {
			return true
		}
	}
	return false
}

// reroute gives a flow that is on no link's list a route over links that
// are up, written over its old route's storage, and reports true. If there
// is none, the flow is aborted — counted, taken out of flight, its failed
// callback run — and reroute reports false.
func (fs *FlowSim) reroute(f *Flow) bool {
	route, err := fs.topo.routeInto(f.route, f.Src, f.Dst)
	if err != nil {
		fs.aborted++
		fs.removeFlow(f)
		if f.failed != nil {
			f.failed(f, err)
		}
		return false
	}
	f.route = route
	return true
}

// join makes a flow active and puts it on the list of every link it
// crosses.
func (fs *FlowSim) join(f *Flow) {
	if len(fs.links) < len(fs.topo.links) {
		fs.grow()
	}
	f.active = true
	for _, l := range f.route {
		ls := &fs.links[l.ID]
		if len(ls.flows) == 0 {
			fs.busy = append(fs.busy, l.ID)
			ls.busyAt = len(fs.busy)
		}
		ls.flows = append(ls.flows, f)
	}
}

// leave makes an active flow inactive and takes it off its links' lists.
func (fs *FlowSim) leave(f *Flow) {
	f.active = false
	for _, l := range f.route {
		ls := &fs.links[l.ID]
		last := len(ls.flows) - 1
		i := slices.Index(ls.flows, f)
		ls.flows[i] = ls.flows[last]
		ls.flows[last] = nil
		ls.flows = ls.flows[:last]
		if last > 0 {
			continue
		}
		// The link carries nothing now: the last busy link takes its place.
		at, moved := ls.busyAt-1, fs.busy[len(fs.busy)-1]
		fs.busy[at] = moved
		fs.links[moved].busyAt = at + 1
		fs.busy = fs.busy[:len(fs.busy)-1]
		ls.busyAt = 0
	}
}

// grow sizes the per-link state to the topology, which may have gained
// links since it was last sized. The new links' lists are carved from one
// block, linkRoom flows each.
func (fs *FlowSim) grow() {
	n := len(fs.topo.links)
	block := make([]*Flow, (n-len(fs.links))*linkRoom)
	fs.links = slices.Grow(fs.links, n-len(fs.links))
	for len(fs.links) < n {
		fs.links = append(fs.links, linkState{flows: block[:0:linkRoom]})
		block = block[linkRoom:]
	}
}

// settle banks transfer progress for all active flows up to now.
func (fs *FlowSim) settle(now sim.Time) {
	for _, f := range fs.flows {
		if !f.active {
			continue
		}
		f.remaining -= f.rate * (now - f.lastSet)
		if f.remaining < 0 {
			f.remaining = 0
		}
		f.lastSet = now
	}
}

// recompute reruns max–min fair allocation by progressive filling and
// reschedules the completion of every flow whose rate changed. It starts
// from the busy links' lists, so it reads only the links that carry an
// active flow, and each round freezes the bottleneck's own list. Ties
// between bottleneck candidates go to the lowest link ID, so the
// allocation, and with it every completion time, is reproducible bit for
// bit; the order of a list does not matter, since each flow frozen in a
// round takes the same share off every link it crosses.
func (fs *FlowSim) recompute() {
	fs.settle(fs.sim.Now())

	unfrozen := 0
	for _, f := range fs.flows {
		if f.active {
			f.rate = math.Inf(1)
			unfrozen++
		}
	}
	scan := fs.scan[:0]
	for _, id := range fs.busy {
		ls := &fs.links[id]
		ls.residual, ls.crossing = fs.topo.links[id].Capacity, len(ls.flows)
		scan = append(scan, id)
	}
	for unfrozen > 0 {
		// The bottleneck is the link with the smallest fair share among
		// those still carrying unfrozen flows; a link that carries none
		// leaves the scan for good.
		bottleneck, share := -1, math.Inf(1)
		keep := scan[:0]
		for _, id := range scan {
			ls := &fs.links[id]
			if ls.crossing == 0 {
				continue
			}
			keep = append(keep, id)
			if s := ls.residual / float64(ls.crossing); s < share || (s == share && id < bottleneck) {
				bottleneck, share = id, s
			}
		}
		scan = keep
		if bottleneck < 0 {
			// No finite capacity constrains the remaining flows.
			break
		}
		// Freeze every unfrozen flow crossing the bottleneck. A share is
		// finite (an infinite one never wins the comparison above), so an
		// infinite rate is what marks a flow this call has not frozen yet.
		for _, f := range fs.links[bottleneck].flows {
			if !math.IsInf(f.rate, 1) {
				continue
			}
			f.rate = share
			unfrozen--
			for _, l := range f.route {
				// max(0, residual-share) by compare: the same value as
				// math.Max, which differs only for NaN and -0, and residual
				// is neither — it starts at a positive capacity and only has
				// finite shares subtracted, clamped here.
				ls := &fs.links[l.ID]
				r := ls.residual - share
				if r < 0 {
					r = 0
				}
				ls.residual = r
				ls.crossing--
			}
		}
	}
	fs.scan = scan

	// A pending completion scheduled at the rate the flow still has is
	// still right; a flow whose rate moved has its completion moved in the
	// calendar (one sift), in flow order, so the moved events keep the
	// relative sequence order fresh ones would get.
	for _, f := range fs.flows {
		if !f.active || (f.event != nil && f.rate == f.eventRate) {
			continue
		}
		switch {
		case f.rate <= 0 || math.IsInf(f.rate, 1):
			fs.sim.Cancel(f.event)
			f.event = nil
		case f.event != nil:
			f.eventRate = f.rate
			f.event = fs.sim.Reschedule(f.event, f.remaining/f.rate)
		default:
			f.eventRate = f.rate
			f.event = fs.sim.Schedule(f.remaining/f.rate, "flow/done", f.fire)
		}
	}
}
