// Package hardware models data center hardware components: disks, NICs,
// CPUs, memory modules and switches, each with a performance spec, a cost,
// and data-driven failure/repair distributions (§4.5 of the paper).
//
// Failure distributions default to the shapes reported by the studies the
// paper cites: Weibull times-between-replacement with shape < 1 for disks
// (Schroeder & Gibson, FAST'07 [15]) and LogNormal repair durations [16].
// Every spec field can be overridden, and internal/opslog can fit
// replacement distributions from (synthetic) operational logs instead.
//
// A component is healthy or failed. Performance-degraded "limpware" (Do et
// al., SoCC'13, the paper's [5]) is modelled where it acts, on a node's
// service times: see internal/workload's NodeModel.DegradeNIC.
package hardware

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Kind enumerates component classes.
type Kind int

const (
	KindDisk Kind = iota
	KindNIC
	KindCPU
	KindMemory
	KindSwitch
	KindPSU
	// Power-hierarchy elements (internal/power): rack/row power
	// distribution units and facility UPSes.
	KindPDU
	KindUPS
)

var kindNames = map[Kind]string{
	KindDisk:   "disk",
	KindNIC:    "nic",
	KindCPU:    "cpu",
	KindMemory: "memory",
	KindSwitch: "switch",
	KindPSU:    "psu",
	KindPDU:    "pdu",
	KindUPS:    "ups",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Spec describes a purchasable component model. Throughput-like fields
// are zero when not applicable to the kind.
type Spec struct {
	Name string
	Kind Kind

	// Performance.
	CapacityGB     float64 // disks, memory
	ThroughputMBps float64 // disks (sequential), NICs, switch per-port
	IOPS           float64 // disks (random)
	Cores          int     // CPUs
	Ports          int     // switches

	// Economics.
	CostUSD    float64
	PowerWatts float64

	// Reliability. TTF is the time-to-failure distribution and Repair the
	// repair/replacement duration distribution, both in hours.
	TTF    dist.Dist
	Repair dist.Dist
}

// Validate checks that the spec is internally consistent.
func (sp Spec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("hardware: spec has empty name")
	}
	if sp.TTF == nil || sp.Repair == nil {
		return fmt.Errorf("hardware: spec %q missing TTF or Repair distribution", sp.Name)
	}
	if sp.CostUSD < 0 || sp.PowerWatts < 0 || sp.CapacityGB < 0 ||
		sp.ThroughputMBps < 0 || sp.IOPS < 0 || sp.Cores < 0 || sp.Ports < 0 {
		return fmt.Errorf("hardware: spec %q has negative attribute", sp.Name)
	}
	return nil
}

// State is a component's operational state.
type State int

const (
	StateHealthy State = iota
	StateFailed
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Component is one physical instance of a Spec with a failure/repair
// lifecycle driven by the simulator. ID and Spec are fixed by NewComponent
// or Init.
type Component struct {
	ID   int
	Spec Spec

	state     State
	failures  int64
	repairs   int64
	downSince sim.Time
	totalDown sim.Time
	// block is the Block to list the component on when it first leaves its
	// built state (see touch); nil for a standalone component and for one
	// already listed.
	block    *Block
	onFail   []func(*Component)
	onRepair []func(*Component)

	// Lifecycle wiring. The simulator and stream are those of the last
	// StartLifecycle; the event names and the two callbacks are built by
	// the first one and serve every cycle after it, across Resets.
	lcSim      *sim.Simulator
	lcStream   *rng.Source
	failName   string
	repairName string
	failFn     func()
	repairFn   func()
}

// NewComponent instantiates spec with the given id.
func NewComponent(id int, spec Spec) (*Component, error) {
	c := new(Component)
	if err := c.Init(id, spec); err != nil {
		return nil, err
	}
	return c, nil
}

// Init makes c the component NewComponent(id, spec) returns, in storage
// the caller owns — for callers that allocate components in blocks.
func (c *Component) Init(id int, spec Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	*c = Component{ID: id, Spec: spec}
	c.Reset()
	return nil
}

// Reset returns the component to its just-built state: healthy, counters
// and downtime zero, no callbacks registered, no lifecycle running. The
// simulator that drove it is expected to have been reset as well; a
// pending lifecycle event is forgotten, not cancelled.
func (c *Component) Reset() {
	c.state = StateHealthy
	c.failures, c.repairs = 0, 0
	c.downSince, c.totalDown = 0, 0
	clear(c.onFail)
	clear(c.onRepair)
	c.onFail, c.onRepair = c.onFail[:0], c.onRepair[:0]
	c.lcSim, c.lcStream = nil, nil
}

// State returns the current operational state.
func (c *Component) State() State { return c.state }

// Failures returns the number of failures so far.
func (c *Component) Failures() int64 { return c.failures }

// Repairs returns the number of completed repairs.
func (c *Component) Repairs() int64 { return c.repairs }

// TotalDowntime returns accumulated failed time up to now.
func (c *Component) TotalDowntime(now sim.Time) sim.Time {
	d := c.totalDown
	if c.state == StateFailed {
		d += now - c.downSince
	}
	return d
}

// OnFail registers fn to run when the component fails.
func (c *Component) OnFail(fn func(*Component)) {
	c.touch()
	c.onFail = append(c.onFail, fn)
}

// OnRepair registers fn to run when the component is repaired.
func (c *Component) OnRepair(fn func(*Component)) {
	c.touch()
	c.onRepair = append(c.onRepair, fn)
}

// StartLifecycle wires the component's failure/repair process into s,
// drawing from stream. Times are in the TTF/Repair distributions' unit
// (hours by convention). The cycle is: healthy --TTF--> failed --Repair-->
// healthy --TTF--> ...
func (c *Component) StartLifecycle(s *sim.Simulator, stream *rng.Source) {
	c.touch()
	if c.failFn == nil {
		c.failName = fmt.Sprintf("%s#%d/fail", c.Spec.Kind, c.ID)
		c.repairName = fmt.Sprintf("%s#%d/repair", c.Spec.Kind, c.ID)
		c.failFn = func() {
			c.Fail(c.lcSim.Now())
			rep := c.Spec.Repair.Sample(c.lcStream)
			c.lcSim.Schedule(rep, c.repairName, c.repairFn)
		}
		c.repairFn = func() {
			c.Restore(c.lcSim.Now())
			c.scheduleFailure()
		}
	}
	c.lcSim, c.lcStream = s, stream
	c.scheduleFailure()
}

func (c *Component) scheduleFailure() {
	ttf := c.Spec.TTF.Sample(c.lcStream)
	c.lcSim.Schedule(ttf, c.failName, c.failFn)
}

// Fail transitions the component to failed at time now. Failing a failed
// component is a no-op.
func (c *Component) Fail(now sim.Time) {
	if c.state == StateFailed {
		return
	}
	c.touch()
	c.state = StateFailed
	c.failures++
	c.downSince = now
	for _, fn := range c.onFail {
		fn(c)
	}
}

// Restore transitions the component to healthy at time now.
func (c *Component) Restore(now sim.Time) {
	if c.state == StateHealthy {
		return
	}
	c.touch()
	c.totalDown += now - c.downSince
	c.repairs++
	c.state = StateHealthy
	for _, fn := range c.onRepair {
		fn(c)
	}
}

// touch lists c on its block's changed list, the first time since the
// block's last Reset that c leaves its built state. Every method that can
// move c away from that state calls it before doing so.
func (c *Component) touch() {
	if b := c.block; b != nil {
		b.changed = append(b.changed, c)
		c.block = nil
	}
}

// Block is a set of components allocated together, as a cluster allocates
// every node's: Reset costs the components that changed since the last
// one, not the block's size. A member lists itself the first time it
// leaves its built state — through StartLifecycle, Fail, Restore, OnFail
// or OnRepair — so one failed by hand is put
// back as surely as one a lifecycle drove. A standalone component
// (NewComponent) belongs to no block.
type Block struct {
	comps   []Component
	changed []*Component // the members touched since the last Reset, each once
}

// NewBlock allocates a block of n components, to be set up with Init.
func NewBlock(n int) *Block { return &Block{comps: make([]Component, n)} }

// Init makes member i the component NewComponent(id, spec) returns and
// returns it.
func (b *Block) Init(i, id int, spec Spec) (*Component, error) {
	c := &b.comps[i]
	if err := c.Init(id, spec); err != nil {
		return nil, err
	}
	c.block = b
	return c, nil
}

// Reset returns every member to its just-built state (Component.Reset),
// visiting only the ones listed since the last Reset.
func (b *Block) Reset() {
	for _, c := range b.changed {
		c.Reset()
		c.block = b
	}
	clear(b.changed)
	b.changed = b.changed[:0]
}
