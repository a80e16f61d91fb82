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
	started   sim.Time
	active    bool
	done      func(f *Flow)
	failed    func(f *Flow, err error)
	finish    func() // the one completion callback every flow/done event runs
	activate  func() // the flow/activate event's callback; built with finish, once per Flow
	event     *sim.Event
	eventRate float64 // rate the pending flow/done event was scheduled at
}

// Size returns the flow's total size in MB.
func (f *Flow) Size() float64 { return f.size }

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
	// Start reuses a spare — the struct, its two closures, its route's
	// storage — before it allocates. A flow is never reused within a run,
	// where a done or failed callback's caller may still hold it.
	issued, spare []*Flow

	// Progressive-filling scratch, indexed by Link.ID and reused by every
	// recompute so the steady state allocates nothing.
	residual []float64 // capacity not yet handed to a frozen flow
	crossing []int     // unfrozen flows on the link; all zero between calls
	touched  []int     // IDs of the links that carry an active flow
	unfrozen []*Flow

	// Metrics.
	started   int64
	completed int64
	aborted   int64
	bytes     float64 // MB delivered
}

// maxRecycled bounds what a FlowSim keeps alive for reuse, at ~300 bytes a
// flow.
const maxRecycled = 4096

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

// Route returns the links the flow currently crosses.
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
		f.finish = func() { fs.finish(f) }
		f.activate = func() {
			f.event = nil // this event; recompute schedules the completion
			f.active = true
			f.lastSet = fs.sim.Now()
			fs.recompute()
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
		started: fs.sim.Now(), done: done, failed: failed,
		finish: f.finish, activate: f.activate,
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
		f.event = fs.sim.Schedule(lat, "flow/local-done", f.finish)
		return f, nil
	}
	f.event = fs.sim.Schedule(lat, "flow/activate", f.activate)
	return f, nil
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

func (fs *FlowSim) removeFlow(f *Flow) {
	if f.event != nil {
		fs.sim.Cancel(f.event)
		f.event = nil
	}
	if i := slices.Index(fs.flows, f); i >= 0 {
		fs.flows = slices.Delete(fs.flows, i, i+1)
	}
	f.active = false
}

// OnLinkChange must be called after any link state change; it reroutes or
// aborts affected flows and reallocates bandwidth.
func (fs *FlowSim) OnLinkChange() {
	now := fs.sim.Now()
	// Settle progress before rerouting.
	fs.settle(now)
	// A failed callback may start or cancel flows (repair requeues and
	// pumps), so walk a snapshot: every flow active now is looked at once,
	// in start order, unless an earlier callback already removed it.
	for _, f := range fs.Flows() {
		if !f.active {
			continue
		}
		broken := false
		for _, l := range f.route {
			if !l.up {
				broken = true
				break
			}
		}
		if !broken {
			continue
		}
		route, err := fs.topo.Route(f.Src, f.Dst)
		if err != nil {
			fs.aborted++
			fs.removeFlow(f)
			if f.failed != nil {
				f.failed(f, err)
			}
			continue
		}
		f.route = route
	}
	fs.recompute()
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
// reschedules the completion of every flow whose rate changed. Ties
// between bottleneck candidates go to the lowest link ID, so the
// allocation, and with it every completion time, is reproducible bit for
// bit.
func (fs *FlowSim) recompute() {
	fs.settle(fs.sim.Now())

	if n := len(fs.topo.links); len(fs.residual) < n {
		fs.residual = make([]float64, n)
		fs.crossing = make([]int, n)
	}
	touched, unfrozen := fs.touched[:0], fs.unfrozen[:0]
	for _, f := range fs.flows {
		if !f.active {
			continue
		}
		unfrozen = append(unfrozen, f)
		f.rate = math.Inf(1)
		for _, l := range f.route {
			if fs.crossing[l.ID] == 0 {
				touched = append(touched, l.ID)
				fs.residual[l.ID] = l.Capacity
			}
			fs.crossing[l.ID]++
		}
	}
	for len(unfrozen) > 0 {
		// The bottleneck is the link with the smallest fair share among
		// those still carrying unfrozen flows.
		bottleneck, share := -1, math.Inf(1)
		for _, id := range touched {
			n := fs.crossing[id]
			if n == 0 {
				continue
			}
			if s := fs.residual[id] / float64(n); s < share || (s == share && id < bottleneck) {
				bottleneck, share = id, s
			}
		}
		if bottleneck < 0 {
			// No finite capacity constrains the remaining flows.
			break
		}
		// Freeze every unfrozen flow crossing the bottleneck.
		keep := unfrozen[:0]
		for _, f := range unfrozen {
			if !f.crosses(bottleneck) {
				keep = append(keep, f)
				continue
			}
			f.rate = share
			for _, l := range f.route {
				// max(0, residual-share) by compare: the same value as
				// math.Max, which differs only for NaN and -0, and residual
				// is neither — it starts at a positive capacity and only has
				// finite shares subtracted, clamped here.
				r := fs.residual[l.ID] - share
				if r < 0 {
					r = 0
				}
				fs.residual[l.ID] = r
				fs.crossing[l.ID]--
			}
		}
		unfrozen = keep
	}
	for _, id := range touched {
		fs.crossing[id] = 0
	}
	fs.touched, fs.unfrozen = touched, unfrozen

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
			f.event = fs.sim.Schedule(f.remaining/f.rate, "flow/done", f.finish)
		}
	}
}

// crosses reports whether the flow's route includes the link with this ID.
func (f *Flow) crosses(linkID int) bool {
	for _, l := range f.route {
		if l.ID == linkID {
			return true
		}
	}
	return false
}
