// Package cluster assembles simulated data centers: racks of nodes built
// from cataloged hardware components, wired into a network topology, with
// failure processes injected into the discrete-event simulator.
//
// It is the "hardware half" of the integrated co-design the paper argues
// for (§1): the same Config that fixes disk/NIC/switch choices also
// determines failure behaviour (per-component lifecycles), correlated
// failures (a ToR switch failure makes a whole rack unreachable — the
// scale effect §2.1 says small prototypes cannot reproduce), and the
// network capacities that bound the repair process.
//
// Correlated failures are expressed through failure Domains: a Domain is
// a set of nodes (and links) sharing one single point of failure. Racks
// behind a ToR switch are the built-in domain; internal/power layers
// PDU and whole-facility power domains on the same mechanism. Domains
// nest — a node is available only while it is itself up AND every domain
// covering it is up, tracked with per-node and per-link veto counters so
// restoring an outer domain never "un-fails" an inner one.
//
// A Cluster is built once and can then carry any number of simulations:
// Reset returns it, in place, to the state Build left it in — equal to a
// freshly built cluster, with every handle from before (flows, domains
// added since Build, registered callbacks) dead. Build itself is
// "allocate, then Reset", so the two cannot drift apart. A Reset costs what
// the simulation before it changed rather than the data center's size:
// every node's disks and NIC are one hardware.Block, and a component lists
// itself there when it first leaves its built state, whether a failure
// process or a caller moved it, so Reset visits the listed ones only.
package cluster

import (
	"fmt"
	"math/bits"

	"repro/internal/dist"
	"repro/internal/hardware"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config describes one data center design point. Time unit: hours (all
// TTFs/repairs in the catalog are hours; network capacities are converted
// from MB/s internally).
type Config struct {
	Racks        int
	NodesPerRack int

	// Per-node hardware, by catalog spec name.
	DiskSpec     string
	DisksPerNode int
	NICSpec      string
	CPUSpec      string
	MemSpec      string

	// Network.
	SwitchSpec  string  // ToR/core switch spec
	UplinkMBps  float64 // ToR->core uplink capacity; 0 = 10x host link
	LinkLatency float64 // hours (propagation; usually ~0)

	// Failure injection. Whole-node failure model (OS crash, PSU, etc.):
	// if NodeTTF is nil, nodes only fail through their components.
	NodeTTF    dist.Dist
	NodeRepair dist.Dist

	ComponentFailures bool // drive per-component lifecycles
	SwitchFailures    bool // drive ToR switch lifecycles (rack blasts)
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	if c.Racks < 1 || c.NodesPerRack < 1 {
		return fmt.Errorf("cluster: need >= 1 rack and node per rack, got %dx%d", c.Racks, c.NodesPerRack)
	}
	if c.DisksPerNode < 1 {
		return fmt.Errorf("cluster: need >= 1 disk per node, got %d", c.DisksPerNode)
	}
	if (c.NodeTTF == nil) != (c.NodeRepair == nil) {
		return fmt.Errorf("cluster: NodeTTF and NodeRepair must both be set or both nil")
	}
	return nil
}

// SecondsPerHour converts MB/s capacities into MB/hour for the flow
// simulator, keeping the whole availability simulation in hour units.
const SecondsPerHour = 3600.0

// Node is one simulated machine.
type Node struct {
	ID   int
	Rack int
	Host netsim.NodeID

	Disks []*hardware.Component
	NIC   *hardware.Component

	up       bool
	upSignal stats.TimeWeighted
	accessLk *netsim.Link

	// Whole-node lifecycle wiring: event names and callbacks are built by
	// the first StartFailures and reused by every cycle and every trial
	// after it. The stream handles are resolved by the first trial of their
	// mode — plain for legacy mode, ttf and repair for keyed mode — and the
	// two sources are the current trial's (one stream twice in legacy mode,
	// see StartFailures).
	plain, ttf, repair      sim.Handle
	failName, repairName    string
	failFn, repairFn        func()
	ttfStream, repairStream *rng.Source
}

// componentWiring is what StartFailures needs to start one component's
// lifecycle, built once: its stream and its two callbacks.
type componentWiring struct {
	stream           sim.Handle
	onFail, onRepair func(*hardware.Component)
}

// Domain is one correlated-failure domain: a set of nodes (and,
// optionally, links forced down) behind a single point of failure. The
// built-in rack domains model ToR switches; internal/power adds PDU and
// facility-wide power domains on the same code path. Domains may overlap
// and nest arbitrarily — availability is resolved through veto counters,
// so a node becomes reachable again only when its own state AND every
// covering domain are healthy.
type Domain struct {
	ID   int
	Name string
	// Power marks a domain that cuts power to its nodes (PDU, UPS,
	// utility) rather than only reachability (ToR). The cluster treats
	// both identically; energy accounting (internal/power) distinguishes
	// them because an unreachable node still draws power while an
	// unpowered one does not.
	Power bool

	nodes []int
	links []*netsim.Link
	up    bool
}

// Up reports whether the domain is operational.
func (d *Domain) Up() bool { return d.up }

// NodeIDs returns the IDs of the nodes the domain covers. The returned
// slice is owned by the domain and must not be mutated.
func (d *Domain) NodeIDs() []int { return d.nodes }

// Links returns the links the domain forces down while failed. The
// returned slice is owned by the domain and must not be mutated.
func (d *Domain) Links() []*netsim.Link { return d.links }

// Up reports whether the node itself is up (independent of rack
// reachability).
func (n *Node) Up() bool { return n.up }

// AccessLinkCapacity returns the node's current access-link capacity
// (MB per simulated hour), reflecting any service throttle.
func (n *Node) AccessLinkCapacity() float64 {
	if n.accessLk == nil {
		return 0
	}
	return n.accessLk.Capacity
}

// Cluster is a fully wired simulated data center.
//
// A cluster can be reused for any number of simulations: Reset returns it
// to the state Build left it in, keeping everything Build allocated.
type Cluster struct {
	cfg  Config
	sim  *sim.Simulator
	cat  *hardware.Catalog
	Topo *netsim.Topology
	Flow *netsim.FlowSim

	nodes    []*Node
	comps    *hardware.Block       // every node's disks and NIC; Reset visits the ones that changed
	torSws   []*hardware.Component // indexed by rack; nil until StartFailures runs with SwitchFailures
	uplinks  []*netsim.Link
	hostCap  float64 // configured access-link capacity, the baseline service throttles scale
	onDown   []func(*Node)
	onUp     []func(*Node)
	onDisk   []func(*Node, int) // node, disk index
	onDiskOK []func(*Node, int)

	// Failure domains. rackDomains[r] is the built-in ToR domain of rack
	// r; nodeVeto[i] counts down domains covering node i and linkVeto
	// (indexed by Link.ID) counts down domains forcing a link down, so
	// overlapping domains compose (restoring one never un-fails another).
	domains     []*Domain
	rackDomains []*Domain
	nodeVeto    []int
	linkVeto    []int
	onDomDown   []func(*Domain)
	onDomUp     []func(*Domain)

	// avail is Available as a bitset (see AvailableSet), brought up to date
	// by mark at every statement that moves a node's up flag or veto count.
	avail []uint64

	// Failure wiring built by the first StartFailures (see wire): disks in
	// node-major order, then one entry per NIC and per ToR switch.
	wired    bool
	diskWire []componentWiring
	nicWire  []componentWiring
	torWire  []componentWiring

	nodeFailures int64
	rackFailures int64
}

// Build constructs the cluster, its topology and flow simulator. Failure
// processes are not started until StartFailures is called, so static
// analyses (Figure 1) can drive failures manually.
func Build(s *sim.Simulator, cat *hardware.Catalog, cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nicSpec, err := cat.Get(cfg.NICSpec)
	if err != nil {
		return nil, fmt.Errorf("cluster: NIC: %w", err)
	}
	diskSpec, err := cat.Get(cfg.DiskSpec)
	if err != nil {
		return nil, fmt.Errorf("cluster: disk: %w", err)
	}
	// No node carries a CPU or memory component, but cost and power models
	// read both specs from the catalog: an unknown one is refused here.
	if _, err := cat.Get(cfg.CPUSpec); err != nil {
		return nil, fmt.Errorf("cluster: CPU: %w", err)
	}
	if _, err := cat.Get(cfg.MemSpec); err != nil {
		return nil, fmt.Errorf("cluster: memory: %w", err)
	}
	if _, err := cat.Get(cfg.SwitchSpec); err != nil {
		return nil, fmt.Errorf("cluster: switch: %w", err)
	}

	hostCap := nicSpec.ThroughputMBps * SecondsPerHour
	uplink := cfg.UplinkMBps * SecondsPerHour
	if uplink <= 0 {
		uplink = 10 * hostCap
	}
	net, err := netsim.TwoTier(netsim.TwoTierConfig{
		Racks: cfg.Racks, HostsPerRack: cfg.NodesPerRack,
		HostLinkCap: hostCap, UplinkCap: uplink, LinkLatency: cfg.LinkLatency,
	})
	if err != nil {
		return nil, err
	}

	size := cfg.Racks * cfg.NodesPerRack
	perNode := cfg.DisksPerNode + 1 // disks, NIC
	c := &Cluster{
		cfg: cfg, sim: s, cat: cat, Topo: net.Topo,
		Flow:     netsim.NewFlowSim(s, net.Topo),
		nodes:    make([]*Node, size),
		comps:    hardware.NewBlock(size * perNode),
		torSws:   make([]*hardware.Component, cfg.Racks),
		uplinks:  net.Uplinks,
		hostCap:  hostCap,
		nodeVeto: make([]int, size),
		linkVeto: make([]int, len(net.Topo.Links())),
		avail:    make([]uint64, (size+63)/64),
	}
	// Nodes, their disk lists and their components each come out of one
	// block: a cluster is a handful of allocations however many nodes.
	nodes := make([]Node, size)
	disks := make([]*hardware.Component, size*cfg.DisksPerNode)
	for id := range nodes {
		n := &nodes[id]
		*n = Node{ID: id, Rack: id / cfg.NodesPerRack, Host: net.Hosts[id], accessLk: net.Access[id]}
		first := id * perNode
		n.Disks = disks[id*cfg.DisksPerNode : (id+1)*cfg.DisksPerNode : (id+1)*cfg.DisksPerNode]
		for d := range n.Disks {
			if n.Disks[d], err = c.comps.Init(first+d, id*100+d, diskSpec); err != nil {
				return nil, err
			}
		}
		if n.NIC, err = c.comps.Init(first+perNode-1, id*100+90, nicSpec); err != nil {
			return nil, err
		}
		c.nodes[id] = n
	}
	// The built-in correlated-failure domains: one per rack, covering its
	// nodes and severing its uplink while down (the ToR mechanism).
	for r := 0; r < cfg.Racks; r++ {
		ids := make([]int, 0, cfg.NodesPerRack)
		for h := 0; h < cfg.NodesPerRack; h++ {
			ids = append(ids, r*cfg.NodesPerRack+h)
		}
		d, err := c.AddDomain(fmt.Sprintf("rack-%d", r), false, ids, []*netsim.Link{c.uplinks[r]})
		if err != nil {
			return nil, err
		}
		c.rackDomains = append(c.rackDomains, d)
	}
	c.Reset()
	return c, nil
}

// Reset returns the cluster to the state Build left it in, in place:
// every link up at its configured capacity and no flow in flight, every
// node and component healthy with zeroed counters and uptime signals, no
// domain down, the domains added since Build (internal/power's) gone,
// every registered callback dropped, no failure process running. Reset
// the driving simulator first: the cluster restarts its clocks from the
// simulator's Now and forgets, rather than cancels, its pending events.
//
// A reset cluster is equal to a freshly built one, and every handle from
// before is dead: flows, added domains, registered callbacks.
func (c *Cluster) Reset() {
	c.Topo.Reset()
	c.Flow.Reset()
	c.comps.Reset()
	for _, sw := range c.torSws {
		if sw != nil {
			sw.Reset()
		}
	}
	now := c.sim.Now()
	for _, n := range c.nodes {
		n.up = true
		n.upSignal = stats.TimeWeighted{}
		n.upSignal.Set(now, 1)
		n.ttfStream, n.repairStream = nil, nil
	}
	clear(c.domains[len(c.rackDomains):])
	c.domains = c.domains[:len(c.rackDomains)]
	for _, d := range c.rackDomains {
		d.up = true
	}
	clear(c.nodeVeto)
	clear(c.linkVeto)
	for id := range c.nodes {
		c.mark(id)
	}
	c.onDown, c.onUp = dropAll(c.onDown), dropAll(c.onUp)
	c.onDisk, c.onDiskOK = dropAll(c.onDisk), dropAll(c.onDiskOK)
	c.onDomDown, c.onDomUp = dropAll(c.onDomDown), dropAll(c.onDomUp)
	c.nodeFailures, c.rackFailures = 0, 0
}

// dropAll empties a callback list, releasing the callbacks and keeping
// the storage.
func dropAll[T any](list []T) []T {
	clear(list)
	return list[:0]
}

// AddDomain registers a correlated-failure domain over the given node
// IDs. While the domain is down, each listed link is forced down and
// every covered node is unavailable; restoring the domain re-checks both
// node-local state and any other down domain covering a node before
// reporting it back up. power marks power-cutting domains (see Domain).
func (c *Cluster) AddDomain(name string, power bool, nodeIDs []int, links []*netsim.Link) (*Domain, error) {
	seen := make(map[int]bool, len(nodeIDs))
	for _, id := range nodeIDs {
		if id < 0 || id >= len(c.nodes) {
			return nil, fmt.Errorf("cluster: domain %q covers unknown node %d", name, id)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: domain %q lists node %d twice", name, id)
		}
		seen[id] = true
	}
	d := &Domain{ID: len(c.domains), Name: name, Power: power, nodes: nodeIDs, links: links, up: true}
	c.domains = append(c.domains, d)
	return d, nil
}

// Domains returns all registered failure domains (rack domains first).
func (c *Cluster) Domains() []*Domain { return c.domains }

// RackDomain returns the built-in ToR domain of rack r.
func (c *Cluster) RackDomain(r int) *Domain { return c.rackDomains[r] }

// OnDomainDown registers fn for domain-down transitions. It fires once
// per domain failure, before the per-node OnNodeDown callbacks.
func (c *Cluster) OnDomainDown(fn func(*Domain)) { c.onDomDown = append(c.onDomDown, fn) }

// OnDomainUp registers fn for domain-up transitions.
func (c *Cluster) OnDomainUp(fn func(*Domain)) { c.onDomUp = append(c.onDomUp, fn) }

// FailDomain takes the domain down: its links are vetoed (and stay down
// until every domain holding them recovers) and every covered node that
// was available transitions to unavailable. Failing a down domain is a
// no-op.
func (c *Cluster) FailDomain(d *Domain) {
	if !d.up {
		return
	}
	d.up = false
	changed := false
	for _, l := range d.links {
		c.linkVeto[l.ID]++
		if c.linkVeto[l.ID] == 1 {
			c.Topo.SetLinkUp(l, false)
			changed = true
		}
	}
	if changed {
		c.Flow.OnLinkChange()
	}
	for _, fn := range c.onDomDown {
		fn(d)
	}
	for _, id := range d.nodes {
		n := c.nodes[id]
		wasAvailable := n.up && c.nodeVeto[id] == 0
		c.nodeVeto[id]++
		c.mark(id)
		if wasAvailable {
			for _, fn := range c.onDown {
				fn(n)
			}
		}
	}
}

// RestoreDomain brings the domain back. A covered node is reported up
// only if it is itself up and no other down domain still covers it —
// restoring a PDU never un-fails a dead node or a rack whose ToR is
// still down.
func (c *Cluster) RestoreDomain(d *Domain) {
	if d.up {
		return
	}
	d.up = true
	changed := false
	for _, l := range d.links {
		c.linkVeto[l.ID]--
		if c.linkVeto[l.ID] == 0 {
			c.Topo.SetLinkUp(l, true)
			changed = true
		}
	}
	if changed {
		c.Flow.OnLinkChange()
	}
	for _, fn := range c.onDomUp {
		fn(d)
	}
	for _, id := range d.nodes {
		n := c.nodes[id]
		c.nodeVeto[id]--
		c.mark(id)
		if n.up && c.nodeVeto[id] == 0 {
			for _, fn := range c.onUp {
				fn(n)
			}
		}
	}
}

// Nodes returns all nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Config returns the build configuration.
func (c *Cluster) Config() Config { return c.cfg }

// OnNodeDown registers fn for node-down transitions.
func (c *Cluster) OnNodeDown(fn func(*Node)) { c.onDown = append(c.onDown, fn) }

// OnNodeUp registers fn for node-up transitions.
func (c *Cluster) OnNodeUp(fn func(*Node)) { c.onUp = append(c.onUp, fn) }

// OnDiskFail registers fn for individual disk failures (node, disk index).
func (c *Cluster) OnDiskFail(fn func(*Node, int)) { c.onDisk = append(c.onDisk, fn) }

// OnDiskRepair registers fn for disk repair completions.
func (c *Cluster) OnDiskRepair(fn func(*Node, int)) { c.onDiskOK = append(c.onDiskOK, fn) }

// NodeFailures returns the count of node-down transitions so far.
func (c *Cluster) NodeFailures() int64 { return c.nodeFailures }

// RackFailures returns the count of ToR-switch failures so far.
func (c *Cluster) RackFailures() int64 { return c.rackFailures }

// Available reports whether node id is up and reachable: the node
// itself is up and no failure domain covering it (rack ToR, PDU,
// facility power) is down.
func (c *Cluster) Available(id int) bool {
	return c.nodes[id].up && c.nodeVeto[id] == 0
}

// AvailableCount returns the number of available nodes.
func (c *Cluster) AvailableCount() int {
	count := 0
	for _, w := range c.avail {
		count += bits.OnesCount64(w)
	}
	return count
}

// AvailableSet returns the available nodes as a bitset: bit id%64 of word
// id/64 is set exactly while Available(id) holds, at every point a
// callback can observe. The words are the cluster's own, kept current by
// every transition; the caller must not modify them.
func (c *Cluster) AvailableSet() []uint64 { return c.avail }

// mark brings node id's bit in avail up to date.
func (c *Cluster) mark(id int) {
	bit := uint64(1) << (id % 64)
	c.avail[id/64] &^= bit
	if c.Available(id) {
		c.avail[id/64] |= bit
	}
}

// FailNode forces node id down (manual failure injection).
func (c *Cluster) FailNode(id int) {
	n := c.nodes[id]
	if !n.up {
		return
	}
	n.up = false
	c.mark(id)
	n.upSignal.Set(c.sim.Now(), 0)
	c.nodeFailures++
	if n.accessLk != nil {
		c.Topo.SetLinkUp(n.accessLk, false)
		c.Flow.OnLinkChange()
	}
	for _, fn := range c.onDown {
		fn(n)
	}
}

// RestoreNode brings node id back up.
func (c *Cluster) RestoreNode(id int) {
	n := c.nodes[id]
	if n.up {
		return
	}
	n.up = true
	c.mark(id)
	n.upSignal.Set(c.sim.Now(), 1)
	if n.accessLk != nil {
		c.Topo.SetLinkUp(n.accessLk, true)
		c.Flow.OnLinkChange()
	}
	for _, fn := range c.onUp {
		fn(n)
	}
}

// FailRack forces rack r's ToR switch down, making all its nodes
// unreachable (correlated failure). It is the rack domain's failure.
func (c *Cluster) FailRack(r int) {
	if !c.rackDomains[r].up {
		return
	}
	c.rackFailures++
	c.FailDomain(c.rackDomains[r])
}

// RestoreRack brings rack r's ToR switch back. Nodes that failed (or
// whose other covering domains failed) while the rack was down stay
// unavailable.
func (c *Cluster) RestoreRack(r int) {
	c.RestoreDomain(c.rackDomains[r])
}

// StartFailures wires all configured failure processes into the
// simulator: whole-node lifecycles (NodeTTF/NodeRepair), per-component
// lifecycles (disks and NICs), and ToR switch lifecycles.
func (c *Cluster) StartFailures() {
	c.wire()
	for _, n := range c.nodes {
		if c.cfg.NodeTTF != nil {
			if c.sim.Keyed() {
				// Keyed (CRN/antithetic) mode splits the lifecycle into a
				// mirrored failure-time stream and a shared repair stream:
				// an antithetic twin inverts when nodes fail but repairs
				// take identical durations, the pairing that actually
				// anti-correlates availability.
				if n.ttf == (sim.Handle{}) {
					n.ttf = c.sim.MirroredStreamHandle(fmt.Sprintf("node-%d/ttf", n.ID))
					n.repair = c.sim.StreamHandle(fmt.Sprintf("node-%d/repair", n.ID))
				}
				n.ttfStream, n.repairStream = n.ttf.Source(), n.repair.Source()
			} else {
				if n.plain == (sim.Handle{}) {
					n.plain = c.sim.StreamHandle(fmt.Sprintf("node-%d", n.ID))
				}
				s := n.plain.Source()
				n.ttfStream, n.repairStream = s, s
			}
			c.scheduleNodeFailure(n)
		}
		if c.cfg.ComponentFailures {
			for d, disk := range n.Disks {
				c.startComponent(disk, c.diskWire[n.ID*len(n.Disks)+d])
			}
			c.startComponent(n.NIC, c.nicWire[n.ID])
		}
	}
	if c.cfg.SwitchFailures {
		for r, sw := range c.torSws {
			c.startComponent(sw, c.torWire[r])
		}
	}
}

func (c *Cluster) startComponent(comp *hardware.Component, w componentWiring) {
	comp.OnFail(w.onFail)
	comp.OnRepair(w.onRepair)
	comp.StartLifecycle(c.sim, w.stream.Source())
}

// wire builds, once, what every StartFailures after the first reuses:
// event names, component stream handles, the callbacks that tie component
// failures to node and rack state, and the ToR switch components. A
// lifecycle event then costs a draw and a Schedule, with no name formatted
// and no closure built.
func (c *Cluster) wire() {
	if c.wired {
		return
	}
	c.wired = true
	for _, n := range c.nodes {
		if c.cfg.NodeTTF != nil {
			n.failName = fmt.Sprintf("node%d/fail", n.ID)
			n.repairName = fmt.Sprintf("node%d/repair", n.ID)
			n.failFn = func() {
				c.FailNode(n.ID)
				rep := c.cfg.NodeRepair.Sample(n.repairStream)
				c.sim.Schedule(rep, n.repairName, n.repairFn)
			}
			n.repairFn = func() {
				c.RestoreNode(n.ID)
				c.scheduleNodeFailure(n)
			}
		}
		if c.cfg.ComponentFailures {
			for d := range n.Disks {
				c.diskWire = append(c.diskWire, componentWiring{
					stream: c.sim.StreamHandle(fmt.Sprintf("disk-%d-%d", n.ID, d)),
					onFail: func(*hardware.Component) {
						for _, fn := range c.onDisk {
							fn(n, d)
						}
					},
					onRepair: func(*hardware.Component) {
						for _, fn := range c.onDiskOK {
							fn(n, d)
						}
					},
				})
			}
			// NIC failure severs connectivity: treat as node-down for
			// serving purposes.
			c.nicWire = append(c.nicWire, componentWiring{
				stream:   c.sim.StreamHandle(fmt.Sprintf("nic-%d", n.ID)),
				onFail:   func(*hardware.Component) { c.FailNode(n.ID) },
				onRepair: func(*hardware.Component) { c.RestoreNode(n.ID) },
			})
		}
	}
	if c.cfg.SwitchFailures {
		swSpec, err := c.cat.Get(c.cfg.SwitchSpec)
		if err != nil {
			panic(err) // validated in Build
		}
		for r := range c.torSws {
			sw, err := hardware.NewComponent(1000000+r, swSpec)
			if err != nil {
				panic(err)
			}
			c.torSws[r] = sw
			c.torWire = append(c.torWire, componentWiring{
				stream:   c.sim.StreamHandle(fmt.Sprintf("tor-%d", r)),
				onFail:   func(*hardware.Component) { c.FailRack(r) },
				onRepair: func(*hardware.Component) { c.RestoreRack(r) },
			})
		}
	}
}

// scheduleNodeFailure draws node n's next whole-node failure; failFn and
// repairFn (see wire) carry the cycle on from there. The TTF and repair
// streams coincide in legacy mode and are split in keyed mode (see
// StartFailures).
func (c *Cluster) scheduleNodeFailure(n *Node) {
	ttf := c.cfg.NodeTTF.Sample(n.ttfStream)
	c.sim.Schedule(ttf, n.failName, n.failFn)
}

// SetServiceThrottle scales every node's access-link capacity to factor
// (in (0, 1]) of its configured value and reallocates in-flight flows —
// the hook power capping (internal/power) uses to throttle per-node
// service rates without touching link up/down state. Factor 1 restores
// full speed.
func (c *Cluster) SetServiceThrottle(factor float64) error {
	if factor <= 0 || factor > 1 {
		return fmt.Errorf("cluster: service throttle %v outside (0, 1]", factor)
	}
	changed := false
	want := c.hostCap * factor
	for _, n := range c.nodes {
		if n.accessLk == nil {
			continue
		}
		if n.accessLk.Capacity != want {
			n.accessLk.Capacity = want
			changed = true
		}
	}
	if changed {
		c.Flow.OnLinkChange()
	}
	return nil
}

// NodeUptime returns the time-averaged fraction of time node id was up,
// evaluated at the current simulation time.
func (c *Cluster) NodeUptime(id int) float64 {
	n := c.nodes[id]
	v := 0.0
	if n.up {
		v = 1
	}
	n.upSignal.Set(c.sim.Now(), v)
	return n.upSignal.Average()
}
