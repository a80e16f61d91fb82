// Package repair implements the re-replication subsystem: detecting
// failed nodes, copying surviving replicas/shards to fresh nodes over the
// simulated network, and accounting for the windows of vulnerability in
// between.
//
// This is the software knob at the center of the paper's §1 argument:
// "the latency of the repair process can be reduced by using a faster
// network (hardware), or by optimizing the repair algorithm (software),
// or both. For example, by instantiating parallel repairs on different
// machines, one can decrease the probability that the data will become
// unavailable." Mode and MaxConcurrent encode exactly that choice, and
// the network model (internal/netsim) makes the faster-network comparison
// meaningful.
//
// A Manager follows the reuse contract of the layers under it: after the
// simulator, cluster and store have been reset, Manager.Reset returns it
// to the state NewManager left it in — equal to a freshly built manager —
// and Start registers it on the cluster again. NewManager is "allocate,
// then Reset".
//
// What a repair needs while it is in flight comes from the manager, so a
// repair on a manager that has run before costs its transfer and no
// allocation: one transfer record per busy slot, with the two callbacks
// the flow is started with, returned when either fires; one detection
// record per node death, whose single callback every repair/detect event
// of that death runs, returned when the last has fired; and a queue that
// pops by moving an index. Reset takes every record back, whoever held it.
//
// It also never forces a store whose population is deferred
// (storage.Store.Defer). An object the manager has not looked at yet has
// every shard on an available node for as long as no node is unavailable,
// so it moves no metric; the manager takes the store's objects in at the
// first node transition of any kind — a death, a ToR, PDU or utility
// outage — before it acts on it, or at the first metric read while some
// node is already unavailable. A run in which no node changes state reads
// the store's Len and nothing else.
package repair

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Mode selects the repair scheduling discipline.
type Mode int

const (
	// Serial runs one re-replication transfer at a time.
	Serial Mode = iota
	// Parallel runs up to MaxConcurrent transfers, sourced from the
	// surviving replicas spread over different machines.
	Parallel
)

func (m Mode) String() string {
	if m == Serial {
		return "serial"
	}
	return "parallel"
}

// Config tunes the repair subsystem.
type Config struct {
	Mode          Mode
	MaxConcurrent int       // transfer slots in Parallel mode (>= 1)
	Detection     dist.Dist // failure-detection delay (hours); nil = instant
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Mode == Parallel && c.MaxConcurrent < 1 {
		return fmt.Errorf("repair: parallel mode needs MaxConcurrent >= 1, got %d", c.MaxConcurrent)
	}
	return nil
}

func (c Config) slots() int {
	if c.Mode == Serial {
		return 1
	}
	return c.MaxConcurrent
}

// task is one pending shard re-replication.
type task struct {
	obj     *storage.Object
	from    int // failed node holding the lost shard
	created sim.Time
}

// transfer is one in-flight re-replication: what finishRepair needs when
// the flow completes, and the two callbacks handed to Flow.Start, built
// once per record. Nobody outside the manager holds one, so a record goes
// back to the pool the moment either callback fires (or Start refuses the
// flow) and the next repair of the same trial takes it again.
type transfer struct {
	task
	dst    int
	size   float64
	done   func(*netsim.Flow)
	failed func(*netsim.Flow, error)
}

// detection is one node death's pending repair/detect events: the shards
// to re-replicate, in the order their events were scheduled, and the one
// callback all of those events run. The events share a time and have
// ascending sequence numbers, so the k-th to fire is the k-th scheduled
// and takes the k-th object. The record goes back to the pool when the
// last has fired.
type detection struct {
	node int
	objs []*storage.Object
	next int
	fire func()
}

// pool hands out the manager's records and takes them back, one at a time
// (put) or all at once (reset, whoever still holds them): it grows to the
// most that were ever out together and allocates nothing after that.
type pool[T any] struct {
	all, idle []*T
}

// get returns an idle record, or a new zero one.
func (p *pool[T]) get() *T {
	if n := len(p.idle); n > 0 {
		x := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return x
	}
	x := new(T)
	p.all = append(p.all, x)
	return x
}

func (p *pool[T]) put(x *T) { p.idle = append(p.idle, x) }

func (p *pool[T]) reset() { p.idle = append(p.idle[:0], p.all...) }

// Manager watches the cluster and repairs lost redundancy.
type Manager struct {
	cfg   Config
	sim   *sim.Simulator
	clst  *cluster.Cluster
	store *storage.Store

	// queue[head:] are the tasks waiting for a slot, oldest first.
	queue  []task
	head   int
	active int
	lost   map[int]bool // object id -> permanently lost

	// Records for what is in flight, so that a repair on a manager that
	// has run before allocates nothing.
	transfers  pool[transfer]
	detections pool[detection]

	// Metrics.
	completed   int64
	bytesMoved  float64
	repairTimes stats.Sample
	lostCount   int64
	unavailTW   stats.TimeWeighted // unavailable-object count over time
	anyTW       stats.TimeWeighted // any-unavailable indicator over time
	zeroTW      stats.TimeWeighted // any-object-at-zero-copies indicator (§1)

	// Availability state, moved only by what changed: a node's
	// availability flipping touches the objects on that node, a finished
	// repair the one object it relocated. nodeDown is each node's
	// availability as of its last transition callback; missing[i] counts
	// object i's shards on unavailable nodes, so that taking objects in is
	// a clear of zeros plus the objects on the unavailable nodes;
	// unavailable and zeroCopy count the objects below their scheme's
	// MinAvailable and MinRecoverable. downNodes counts the true entries of
	// nodeDown.
	nodeDown    []bool
	downNodes   int
	missing     []int
	unavailable int
	zeroCopy    int

	// pickTarget's scratch: the cluster's available set less one object's
	// holders.
	free []uint64

	// The two cluster callbacks Start registers, built once, and the two
	// streams the manager draws from, resolved once.
	onDown, onUp   func(*cluster.Node)
	detect, target sim.Handle
}

// NewManager wires a repair manager to a cluster and store. Call Start to
// register the failure hooks.
func NewManager(s *sim.Simulator, cl *cluster.Cluster, st *storage.Store, cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cl.Size() != st.View().Nodes {
		return nil, fmt.Errorf("repair: cluster has %d nodes but store view has %d", cl.Size(), st.View().Nodes)
	}
	m := &Manager{
		cfg: cfg, sim: s, clst: cl, store: st,
		lost:     make(map[int]bool),
		nodeDown: make([]bool, cl.Size()),
		missing:  make([]int, 0, st.Len()),
		detect:   s.StreamHandle("repair-detect"),
		target:   s.StreamHandle("repair-target"),
	}
	m.onDown = func(n *cluster.Node) { m.onNodeDown(n.ID) }
	m.onUp = func(n *cluster.Node) {
		m.nodeChanged(n.ID)
		// A recovered node may unblock tasks that had no eligible
		// repair target (wide schemes on small clusters).
		m.pump()
	}
	m.Reset()
	return m, nil
}

// Reset returns the manager to the state NewManager left it in, in place:
// nothing queued or in flight, no object lost, every metric zero, the
// signals restarted at the simulator's Now, node availability read again
// from the cluster, and no object tracked — the store's population is
// taken in again at the next node transition (see track). Reset the
// simulator, the cluster and the store first, then call Start again: the
// cluster's Reset dropped the manager's callbacks.
//
// A reset manager is equal to a freshly built one; the *stats.Sample
// from RepairTimes is emptied with it.
func (m *Manager) Reset() {
	m.queue, m.head = m.queue[:0], 0
	m.transfers.reset()
	m.detections.reset()
	m.active = 0
	clear(m.lost)
	m.completed, m.bytesMoved, m.lostCount = 0, 0, 0
	m.repairTimes.Reset()
	now := m.sim.Now()
	m.unavailTW, m.anyTW, m.zeroTW = stats.TimeWeighted{}, stats.TimeWeighted{}, stats.TimeWeighted{}
	m.unavailTW.Set(now, 0)
	m.anyTW.Set(now, 0)
	m.zeroTW.Set(now, 0)
	m.downNodes = 0
	for id := range m.nodeDown {
		m.nodeDown[id] = !m.clst.Available(id)
		if m.nodeDown[id] {
			m.downNodes++
		}
	}
	m.missing = m.missing[:0]
	m.unavailable, m.zeroCopy = 0, 0
}

// Start registers the manager on cluster failure events.
func (m *Manager) Start() {
	m.clst.OnNodeDown(m.onDown)
	m.clst.OnNodeUp(m.onUp)
}

// destroyed reports whether node id's data is gone: the node itself is
// down. A node that is merely unreachable — its ToR, PDU or the whole
// facility's power failed — still holds its shards and serves them
// again on restore, so loss decisions must never use reachability
// (otherwise one facility blackout would "lose" every object).
func (m *Manager) destroyed(id int) bool { return !m.clst.Nodes()[id].Up() }

// onNodeDown schedules repairs for every shard on the dead node.
func (m *Manager) onNodeDown(nodeID int) {
	m.nodeChanged(nodeID)
	if !m.destroyed(nodeID) {
		// Reachability-only transition (ToR/PDU/utility domain outage):
		// the node's data is intact and serves again on restore, so
		// there is nothing to detect or re-replicate. Skipping here
		// keeps a facility blackout from queueing (and then dropping)
		// one task per shard in the whole data center.
		return
	}
	objs := m.store.ObjectsOn(nodeID)
	delay := 0.0
	if m.cfg.Detection != nil {
		delay = m.cfg.Detection.Sample(m.detect.Source())
	}
	d := m.takeDetection()
	d.node, d.objs, d.next = nodeID, d.objs[:0], 0
	for _, obj := range objs {
		if m.lost[obj.ID] {
			continue
		}
		if m.store.Lost(obj, m.destroyed) {
			m.lost[obj.ID] = true
			m.lostCount++
			continue
		}
		d.objs = append(d.objs, obj)
		m.sim.Schedule(delay, "repair/detect", d.fire)
	}
	if len(d.objs) == 0 {
		m.detections.put(d)
	}
}

// takeDetection returns a detection record from the pool, its callback
// built the first time the record is handed out.
func (m *Manager) takeDetection() *detection {
	d := m.detections.get()
	if d.fire != nil {
		return d
	}
	d.fire = func() {
		t := task{obj: d.objs[d.next], from: d.node, created: m.sim.Now()}
		if d.next++; d.next == len(d.objs) {
			m.detections.put(d)
		}
		m.enqueue(t)
		m.pump()
	}
	return d
}

// enqueue appends t to the queue. pump pops by advancing head, so the
// dead prefix is reclaimed here: at once when the queue has drained, and
// by sliding the live tasks down when they are the smaller half of a full
// slice — tasks that find no target are re-queued at every pump and would
// otherwise walk the slice through memory forever.
func (m *Manager) enqueue(t task) {
	switch {
	case m.head == len(m.queue):
		m.queue, m.head = m.queue[:0], 0
	case len(m.queue) == cap(m.queue) && m.head > len(m.queue)/2:
		m.queue, m.head = m.queue[:copy(m.queue, m.queue[m.head:])], 0
	}
	m.queue = append(m.queue, t)
}

// pump starts transfers while slots are free. Each task currently queued
// is attempted at most once per invocation: startRepair re-appends tasks
// that have no eligible target right now, and retrying them within the
// same pump would spin forever — they wait for the next cluster event
// (node up/down, transfer completion) instead.
func (m *Manager) pump() {
	for attempts := m.QueueLength(); attempts > 0 && m.active < m.cfg.slots(); attempts-- {
		t := m.queue[m.head]
		m.head++
		m.startRepair(t)
	}
}

// startRepair begins one transfer; returns false if the task was dropped
// (already healthy, lost, or no valid source/target).
func (m *Manager) startRepair(t task) bool {
	// Skip if the shard's node recovered or the object is gone. The
	// "still missing" test is about data (node-local state): a shard on
	// a merely-unreachable node needs no re-replication.
	if m.lost[t.obj.ID] {
		return false
	}
	stillMissing := false
	for _, loc := range t.obj.Locations {
		if loc == t.from {
			stillMissing = m.destroyed(t.from)
		}
	}
	if !stillMissing {
		return false
	}
	if m.store.Lost(t.obj, m.destroyed) {
		m.lost[t.obj.ID] = true
		m.lostCount++
		return false
	}
	src := m.pickSource(t.obj)
	if src < 0 {
		// Survivors exist but none is reachable right now (a correlated
		// domain outage): requeue for the next cluster event.
		m.enqueue(t)
		return false
	}
	dst := m.pickTarget(t.obj)
	if dst < 0 {
		// No eligible target now; requeue for the next pump.
		m.enqueue(t)
		return false
	}
	srcHost := m.clst.Nodes()[src].Host
	dstHost := m.clst.Nodes()[dst].Host
	// Replication repair copies one full replica (SizeMB). RS repair
	// reconstructs one shard of SizeMB/K by reading K surviving shards —
	// K * (SizeMB/K) = SizeMB of traffic again, but charged as a single
	// decode-at-target flow: the K-fold read amplification relative to
	// the shard size is preserved in bytes moved while keeping the flow
	// graph simple.
	x := m.takeTransfer()
	x.task, x.dst, x.size = t, dst, t.obj.SizeMB
	m.active++
	if _, err := m.clst.Flow.Start(srcHost, dstHost, x.size, x.done, x.failed); err != nil {
		m.transfers.put(x)
		m.active--
		// Network partition: requeue and hope for topology recovery.
		m.enqueue(t)
		return false
	}
	return true
}

// takeTransfer returns a transfer record from the pool, its callbacks
// built the first time the record is handed out.
func (m *Manager) takeTransfer() *transfer {
	x := m.transfers.get()
	if x.done != nil {
		return x
	}
	x.done = func(*netsim.Flow) {
		t, dst, size := x.task, x.dst, x.size
		m.transfers.put(x) // before the pump, which may start the next transfer
		m.active--
		m.finishRepair(t, dst, size)
		m.pump()
	}
	x.failed = func(*netsim.Flow, error) {
		// Transfer killed by another failure: retry from scratch.
		t := x.task
		m.transfers.put(x)
		m.active--
		m.enqueue(t)
		m.pump()
	}
	return x
}

// finishRepair commits a completed transfer.
func (m *Manager) finishRepair(t task, dst int, size float64) {
	if m.lost[t.obj.ID] {
		return
	}
	// The source data survived the transfer window?
	if m.store.Lost(t.obj, m.destroyed) {
		m.lost[t.obj.ID] = true
		m.lostCount++
		return
	}
	m.track() // before Locations moves, so the delta below is against the old placement
	if err := m.store.Relocate(t.obj, t.from, dst); err != nil {
		// Placement raced with recovery; treat as no-op repair.
		return
	}
	delta := 0
	if !m.nodeDown[t.from] {
		delta--
	}
	if !m.nodeDown[dst] {
		delta++
	}
	m.adjust(t.obj, delta)
	m.completed++
	m.bytesMoved += size
	// Repair time spans from detection to committed relocation, including
	// any wait for a transfer slot — the "time to re-protect" that serial
	// vs. parallel repair trades off (§1).
	m.repairTimes.Add(m.sim.Now() - t.created)
	m.publish()
}

// pickSource returns an available node holding a live shard, or -1.
func (m *Manager) pickSource(obj *storage.Object) int {
	for _, loc := range obj.Locations {
		if m.clst.Available(loc) {
			return loc
		}
	}
	return -1
}

// pickTarget returns an available node not holding a shard, chosen via
// the repair stream, or -1. The candidates, in node order, are the
// cluster's available set less the holders; one draw picks the k-th.
func (m *Manager) pickTarget(obj *storage.Object) int {
	free := append(m.free[:0], m.clst.AvailableSet()...)
	m.free = free
	for _, loc := range obj.Locations {
		free[loc/64] &^= 1 << (loc % 64)
	}
	count := 0
	for _, w := range free {
		count += bits.OnesCount64(w)
	}
	if count == 0 {
		return -1
	}
	k := m.target.Source().Intn(count)
	for i, w := range free {
		if n := bits.OnesCount64(w); k >= n {
			k -= n
			continue
		}
		for ; k > 0; k-- {
			w &= w - 1 // drop the lowest candidate
		}
		return i*64 + bits.TrailingZeros64(w)
	}
	panic("repair: target draw outside the candidate count")
}

// nodeChanged is the cluster's node-transition callback: if node id's
// availability differs from what the manager last saw, every object with
// a shard there gains or loses one live shard. (A node that dies inside
// an already-failed domain, or is repaired inside one, fires the callback
// without changing availability.)
func (m *Manager) nodeChanged(id int) {
	m.track()
	if down := !m.clst.Available(id); down != m.nodeDown[id] {
		m.nodeDown[id] = down
		delta := 1
		if down {
			delta = -1
		}
		m.downNodes -= delta
		for _, obj := range m.store.ObjectsOn(id) {
			m.adjust(obj, delta)
		}
	}
	m.publish()
}

// track starts accounting for objects added to the store since the last
// call (all of them, the first time): an object is available from the
// moment it is first seen unless its nodes say otherwise. A new object
// starts with no shard missing, and each unavailable node then takes one
// from every new object it holds. It reads the store's objects, which
// places a deferred population.
func (m *Manager) track() {
	objs := m.store.Objects()
	old := len(m.missing)
	if len(objs) == old {
		return
	}
	m.missing = extend(m.missing, len(objs))
	if m.downNodes == 0 {
		return
	}
	for id, down := range m.nodeDown {
		if !down {
			continue
		}
		for _, obj := range m.store.ObjectsOn(id) {
			if obj.ID >= old {
				m.adjust(obj, -1)
			}
		}
	}
}

// extend lengthens s to n entries, the new ones zero, in the storage s
// already has when that is large enough.
func extend(s []int, n int) []int {
	old := len(s)
	s = slices.Grow(s, n-old)[:n]
	clear(s[old:])
	return s
}

// adjust moves obj's live-shard count by delta and carries the running
// counts across the thresholds it crosses.
func (m *Manager) adjust(obj *storage.Object, delta int) {
	was := len(obj.Locations) - m.missing[obj.ID]
	now := was + delta
	m.missing[obj.ID] -= delta
	if min := obj.Scheme.MinAvailable(); (was < min) != (now < min) {
		if now < min {
			m.unavailable++
		} else {
			m.unavailable--
		}
	}
	if min := obj.Scheme.MinRecoverable(); (was < min) != (now < min) {
		if now < min {
			m.zeroCopy++
		} else {
			m.zeroCopy--
		}
	}
}

// publish brings the three time-weighted signals up to now from the
// running counts, first taking in any object the store has gained — unless
// nothing is tracked and every node is available: an untracked object
// then has all its shards live and moves no count, and nodeChanged and
// finishRepair track before anything can change that.
func (m *Manager) publish() {
	if m.downNodes > 0 || len(m.missing) > 0 {
		m.track()
	}
	now := m.sim.Now()
	m.unavailTW.Set(now, float64(m.unavailable))
	m.anyTW.Set(now, indicator(m.unavailable > 0))
	m.zeroTW.Set(now, indicator(m.zeroCopy > 0))
}

func indicator(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Completed returns the number of finished repairs.
func (m *Manager) Completed() int64 { return m.completed }

// BytesMovedMB returns total repair traffic.
func (m *Manager) BytesMovedMB() float64 { return m.bytesMoved }

// LostObjects returns the number of permanently lost objects.
func (m *Manager) LostObjects() int64 { return m.lostCount }

// RepairTimes returns the distribution of completed repair durations.
func (m *Manager) RepairTimes() *stats.Sample { return &m.repairTimes }

// MeanUnavailableObjects returns the time-averaged number of unavailable
// objects over [0, now].
func (m *Manager) MeanUnavailableObjects() float64 {
	m.publish()
	return m.unavailTW.Average()
}

// AnyUnavailableFraction returns the fraction of time at least one object
// was unavailable over [0, now] — the availability-SLA metric of §3.
func (m *Manager) AnyUnavailableFraction() float64 {
	m.publish()
	return m.anyTW.Average()
}

// ZeroCopyFraction returns the fraction of time at least one object had
// zero live copies — §1's stricter unavailability notion, the quantity
// parallel repair and faster networks shrink.
func (m *Manager) ZeroCopyFraction() float64 {
	m.publish()
	return m.zeroTW.Average()
}

// Tracked returns how many of the store's objects the manager has taken
// in since Reset. Zero means no node has changed state and none was
// unavailable at a metric read: every object was available throughout.
func (m *Manager) Tracked() int { return len(m.missing) }

// QueueLength returns the number of repairs waiting for a slot.
func (m *Manager) QueueLength() int { return len(m.queue) - m.head }

// ActiveRepairs returns the number of in-flight transfers.
func (m *Manager) ActiveRepairs() int { return m.active }
