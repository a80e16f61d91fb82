// Package netsim is the flow-level network substrate of the wind tunnel.
//
// Repair traffic, replica transfers and workload shuffles all move bytes
// across a shared topology; the paper's motivating trade-off (§1: can a
// faster network make n-1 replicas as available as n?) and its
// parallelization argument (§4.2: a transfer only affects the two nodes,
// the two disks and the switch on its path) both require a network model
// with explicit links and bandwidth contention.
//
// Transfers are modelled as fluid flows: each active flow receives its
// max–min fair share of every link on its route. This is the standard
// flow-level approximation used by datacenter simulators. The allocation
// is solved once per simulated instant at which a flow activated,
// finished or was cancelled or a link changed state, at the end of that
// instant (sim.Simulator.AtInstantEnd), as SimGrid's lazy max–min updates
// do: a repair storm finishes and starts many flows at one instant, and
// only the allocation after the last of them is ever used across elapsed
// time.
//
// A repair storm is still thousands of solves, so a flow event costs the
// links it touches, as the paper's §4.2 argument has it, and not a rebuild
// of the network's state. The FlowSim keeps, for each link, the
// active flows that cross it and the list of links that carry any; those
// lists change only when a flow activates, leaves or is rerouted, each
// change costing the flow's own route. The allocator (FlowSim.recompute)
// starts from the busy links alone, freezes each round's bottleneck from
// that link's own list, and drops a link from its scan once every flow on
// it is frozen. Its scratch is the FlowSim's and is reused (zero
// allocations in the steady state), and bottleneck ties go to the lowest
// link ID, so a seed reproduces its completion times bit for bit — the
// same bits the full rebuild it replaced gave. A change marks the FlowSim
// dirty and the solve runs at the instant's end, so a rate read between
// two changes at one instant can be stale. A flow's completion event is
// touched only when its rate actually moved, and then it is moved in place
// (sim.Reschedule, one sift). A flow that activates or finishes alone on
// its links moves no other flow's rate, so it skips the solve: it takes
// its route's least capacity, which is what progressive filling would give
// it, and only progress is settled. That holds because a link's state
// moves only through Topology.SetLinkUp and SetCapacity, each followed by
// OnLinkChange, which has the instant solved again. OnLinkChange walks a
// snapshot the FlowSim keeps and reroutes a flow into its own route's
// storage, so a link change allocates nothing either. Topology.Route
// allocates only the path it returns. While the links form a forest, as
// TwoTier's tree with one core and SingleSwitch's star do, a route is the
// one simple path there is: it climbs from both ends to their common
// ancestor, checking each link is up, at the cost of the path itself. Any
// other graph is searched breadth-first over scratch of its own. Neither
// type is safe for concurrent use; a simulation owns one of each.
package netsim

import (
	"fmt"
)

// NodeID identifies a vertex (host or switch) in the topology.
type NodeID int

// NodeKind distinguishes hosts from switches.
type NodeKind int

const (
	Host NodeKind = iota
	Switch
)

func (k NodeKind) String() string {
	if k == Host {
		return "host"
	}
	return "switch"
}

// Link is an undirected edge with a capacity (MB per simulated time unit;
// the caller fixes the unit) and a propagation latency in time units. Its
// state — up or down, and its capacity — belongs to its Topology and moves
// only through SetLinkUp and SetCapacity.
type Link struct {
	ID       int
	A, B     NodeID
	Latency  float64
	capacity float64
	up       bool
	built    float64 // the capacity AddLink was given; Topology.Reset restores it
}

// Up reports whether the link is operational.
func (l *Link) Up() bool { return l.up }

// Capacity returns the link's current capacity.
func (l *Link) Capacity() float64 { return l.capacity }

// other returns the far endpoint of l from n.
func (l *Link) other(n NodeID) NodeID {
	if l.A == n {
		return l.B
	}
	return l.A
}

// Topology is an undirected graph of hosts and switches.
type Topology struct {
	kinds []NodeKind
	names []string
	links []*Link
	adj   [][]*Link

	// The links' shape, worked out by the first route after the last
	// AddNode or AddLink (shaped says it is current): whether the links,
	// up or down, form a forest, and if so each node's depth in its tree
	// and its link towards that tree's root (nil at a root).
	shaped bool
	forest bool
	parent []*Link
	depth  []int32

	// Route's breadth-first-search scratch, reused between calls.
	seen     []uint64 // seen[n] == searches: n was reached by the current search
	prev     []*Link  // link each reached node was reached over
	queue    []NodeID
	searches uint64
}

// NewTopology returns an empty topology.
func NewTopology() *Topology { return &Topology{} }

// AddNode adds a vertex and returns its id.
func (t *Topology) AddNode(kind NodeKind, name string) NodeID {
	id := NodeID(len(t.kinds))
	t.kinds = append(t.kinds, kind)
	t.names = append(t.names, name)
	t.adj = append(t.adj, nil)
	t.shaped = false
	return id
}

// AddLink connects a and b with the given capacity (> 0) and latency
// (>= 0), returning the link.
func (t *Topology) AddLink(a, b NodeID, capacity, latency float64) (*Link, error) {
	if err := t.checkNode(a); err != nil {
		return nil, err
	}
	if err := t.checkNode(b); err != nil {
		return nil, err
	}
	if a == b {
		return nil, fmt.Errorf("netsim: self-link on node %d", a)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("netsim: link capacity must be > 0, got %v", capacity)
	}
	if latency < 0 {
		return nil, fmt.Errorf("netsim: link latency must be >= 0, got %v", latency)
	}
	l := &Link{ID: len(t.links), A: a, B: b, capacity: capacity, Latency: latency, up: true, built: capacity}
	t.links = append(t.links, l)
	t.adj[a] = append(t.adj[a], l)
	t.adj[b] = append(t.adj[b], l)
	t.shaped = false
	return l, nil
}

func (t *Topology) checkNode(n NodeID) error {
	if n < 0 || int(n) >= len(t.kinds) {
		return fmt.Errorf("netsim: node %d does not exist", n)
	}
	return nil
}

// Nodes returns the number of vertices.
func (t *Topology) Nodes() int { return len(t.kinds) }

// Links returns all links.
func (t *Topology) Links() []*Link { return t.links }

// Kind returns the vertex kind.
func (t *Topology) Kind(n NodeID) NodeKind { return t.kinds[n] }

// Name returns the vertex name.
func (t *Topology) Name(n NodeID) string { return t.names[n] }

// SetLinkUp changes a link's operational state. A FlowSim over the
// topology must be told with OnLinkChange before it runs on.
func (t *Topology) SetLinkUp(l *Link, up bool) { l.up = up }

// SetCapacity changes a link's capacity (>= 0; 0 stalls the flows that
// cross it). As after SetLinkUp, a FlowSim over the topology must be told
// with OnLinkChange before it runs on: it reads a capacity only when it
// reallocates, and a flow alone on its links is not reallocated when
// others start or end.
func (t *Topology) SetCapacity(l *Link, capacity float64) { l.capacity = capacity }

// Reset returns every link to the state AddLink left it in — up, at the
// capacity it was added with. The topology is then equal to a freshly
// built one.
func (t *Topology) Reset() {
	for _, l := range t.links {
		l.up, l.capacity = true, l.built
	}
}

// Route returns a minimum-hop path of links from src to dst over
// operational links, or an error if dst is unreachable. src == dst yields
// an empty route.
func (t *Topology) Route(src, dst NodeID) ([]*Link, error) {
	return t.routeInto(nil, src, dst)
}

// routeInto is Route with the path written into buf's storage when that
// is large enough. While the links form a forest — TwoTier with its one
// core and SingleSwitch do — a route is the one simple path there is, and
// it is found by climbing from both ends to their common ancestor: the
// links, in the order, a breadth-first search would return, at the cost
// of the path rather than of everything the search reaches first. Any
// other graph is searched.
func (t *Topology) routeInto(buf []*Link, src, dst NodeID) ([]*Link, error) {
	if err := t.checkNode(src); err != nil {
		return nil, err
	}
	if err := t.checkNode(dst); err != nil {
		return nil, err
	}
	if src == dst {
		return buf[:0], nil
	}
	if !t.shaped {
		t.shape()
	}
	if t.forest {
		return t.climb(buf, src, dst)
	}
	return t.search(buf, src, dst)
}

// noRoute is the error of a route that does not exist.
func (t *Topology) noRoute(src, dst NodeID) error {
	return fmt.Errorf("netsim: no route from %s to %s", t.names[src], t.names[dst])
}

// shape works out whether the links form a forest and, if they do, roots
// each tree at its lowest node id and records every node's parent link
// and depth. A second link into a node already reached closes a cycle.
func (t *Topology) shape() {
	t.shaped, t.forest = true, true
	n := len(t.kinds)
	t.parent = make([]*Link, n)
	t.depth = make([]int32, n)
	for i := range t.depth {
		t.depth[i] = -1 // not reached yet
	}
	for root := range t.depth {
		if t.depth[root] >= 0 {
			continue
		}
		t.depth[root] = 0
		t.queue = append(t.queue[:0], NodeID(root))
		for head := 0; head < len(t.queue); head++ {
			u := t.queue[head]
			for _, l := range t.adj[u] {
				if l == t.parent[u] {
					continue
				}
				m := l.other(u)
				if t.depth[m] >= 0 {
					t.forest = false
					t.parent, t.depth = nil, nil
					return
				}
				t.parent[m], t.depth[m] = l, t.depth[u]+1
				t.queue = append(t.queue, m)
			}
		}
	}
}

// climb is routeInto on a forest. The first pass climbs from the deeper
// end until both meet, refusing a link that is down or two ends in
// different trees; the second writes the links, src's side forwards and
// dst's side backwards.
func (t *Topology) climb(buf []*Link, src, dst NodeID) ([]*Link, error) {
	hops := 0
	for a, b := src, dst; a != b; hops++ {
		var l *Link
		if t.depth[a] >= t.depth[b] {
			l = t.parent[a] // nil only when a and b are roots of two trees
			if l == nil {
				return nil, t.noRoute(src, dst)
			}
			a = l.other(a)
		} else {
			l = t.parent[b]
			b = l.other(b)
		}
		if !l.up {
			return nil, t.noRoute(src, dst)
		}
	}
	path := buf[:0]
	if cap(buf) < hops {
		path = make([]*Link, hops)
	}
	path = path[:hops]
	for a, b, i, j := src, dst, 0, hops; a != b; {
		if t.depth[a] >= t.depth[b] {
			path[i] = t.parent[a]
			a = path[i].other(a)
			i++
		} else {
			j--
			path[j] = t.parent[b]
			b = path[j].other(b)
		}
	}
	return path, nil
}

// search is routeInto on a graph with a cycle: a breadth-first search
// over scratch the topology keeps between calls, in which a node is
// visited when its stamp equals this search's number.
func (t *Topology) search(buf []*Link, src, dst NodeID) ([]*Link, error) {
	if len(t.seen) < len(t.kinds) {
		t.seen = make([]uint64, len(t.kinds))
		t.prev = make([]*Link, len(t.kinds))
	}
	t.searches++
	t.seen[src] = t.searches
	t.queue = append(t.queue[:0], src)
	for head := 0; head < len(t.queue); head++ {
		n := t.queue[head]
		for _, l := range t.adj[n] {
			if !l.up {
				continue
			}
			m := l.other(n)
			if t.seen[m] == t.searches {
				continue
			}
			t.seen[m] = t.searches
			t.prev[m] = l
			if m != dst {
				t.queue = append(t.queue, m)
				continue
			}
			hops := 0
			for cur := dst; cur != src; cur = t.prev[cur].other(cur) {
				hops++
			}
			path := buf[:0]
			if cap(buf) < hops {
				path = make([]*Link, hops)
			}
			path = path[:hops]
			for cur := dst; cur != src; cur = t.prev[cur].other(cur) {
				hops--
				path[hops] = t.prev[cur]
			}
			return path, nil
		}
	}
	return nil, t.noRoute(src, dst)
}

// RouteLatency sums the latency along a route.
func RouteLatency(route []*Link) float64 {
	sum := 0.0
	for _, l := range route {
		sum += l.Latency
	}
	return sum
}

// TwoTierConfig describes a classic rack/ToR/core topology.
type TwoTierConfig struct {
	Racks        int
	HostsPerRack int
	HostLinkCap  float64 // host <-> ToR capacity
	UplinkCap    float64 // ToR <-> core capacity
	LinkLatency  float64
}

// TwoTierNet is a built two-tier tree with handles to everything TwoTier
// created, index-aligned: Access[i] joins Hosts[i] to its rack's ToR and
// Uplinks[r] joins ToRs[r] to the core switch.
type TwoTierNet struct {
	Topo    *Topology
	Hosts   []NodeID // rack-major order
	ToRs    []NodeID
	Access  []*Link
	Uplinks []*Link
}

// TwoTier builds a two-tier tree: hosts connect to their rack's ToR
// switch, and every ToR connects to a single core switch.
func TwoTier(cfg TwoTierConfig) (*TwoTierNet, error) {
	if cfg.Racks < 1 || cfg.HostsPerRack < 1 {
		return nil, fmt.Errorf("netsim: two-tier needs >= 1 rack and host, got %d racks x %d hosts",
			cfg.Racks, cfg.HostsPerRack)
	}
	if cfg.HostLinkCap <= 0 || cfg.UplinkCap <= 0 {
		return nil, fmt.Errorf("netsim: two-tier capacities must be > 0")
	}
	t := NewTopology()
	net := &TwoTierNet{
		Topo:    t,
		Hosts:   make([]NodeID, 0, cfg.Racks*cfg.HostsPerRack),
		ToRs:    make([]NodeID, 0, cfg.Racks),
		Access:  make([]*Link, 0, cfg.Racks*cfg.HostsPerRack),
		Uplinks: make([]*Link, 0, cfg.Racks),
	}
	core := t.AddNode(Switch, "core")
	for r := 0; r < cfg.Racks; r++ {
		tor := t.AddNode(Switch, fmt.Sprintf("tor-%d", r))
		net.ToRs = append(net.ToRs, tor)
		uplink, err := t.AddLink(tor, core, cfg.UplinkCap, cfg.LinkLatency)
		if err != nil {
			return nil, err
		}
		net.Uplinks = append(net.Uplinks, uplink)
		for h := 0; h < cfg.HostsPerRack; h++ {
			host := t.AddNode(Host, fmt.Sprintf("host-%d-%d", r, h))
			net.Hosts = append(net.Hosts, host)
			access, err := t.AddLink(host, tor, cfg.HostLinkCap, cfg.LinkLatency)
			if err != nil {
				return nil, err
			}
			net.Access = append(net.Access, access)
		}
	}
	return net, nil
}

// SingleSwitch builds a star topology with n hosts around one switch.
func SingleSwitch(n int, linkCap, latency float64) (*Topology, []NodeID, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("netsim: single-switch needs >= 1 host, got %d", n)
	}
	if linkCap <= 0 {
		return nil, nil, fmt.Errorf("netsim: link capacity must be > 0")
	}
	t := NewTopology()
	sw := t.AddNode(Switch, "sw")
	hosts := make([]NodeID, n)
	for i := range hosts {
		hosts[i] = t.AddNode(Host, fmt.Sprintf("host-%d", i))
		if _, err := t.AddLink(hosts[i], sw, linkCap, latency); err != nil {
			return nil, nil, err
		}
	}
	return t, hosts, nil
}
