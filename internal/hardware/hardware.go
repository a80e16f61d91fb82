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
// The package also models performance-degraded components — "limpware"
// (Do et al., SoCC'13, the paper's [5]): a component that is up but
// running at a fraction of its specified speed.
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
	StateDegraded
	StateFailed
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
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

	state       State
	perfFactor  float64 // 1 = full speed; meaningful when degraded
	failures    int64
	repairs     int64
	downSince   sim.Time
	totalDown   sim.Time
	lastChange  sim.Time
	onFail      []func(*Component)
	onRepair    []func(*Component)
	onDegrade   []func(*Component)
	lifecycleEv *sim.Event

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
	c.state, c.perfFactor = StateHealthy, 1
	c.failures, c.repairs = 0, 0
	c.downSince, c.totalDown, c.lastChange = 0, 0, 0
	clear(c.onFail)
	clear(c.onRepair)
	clear(c.onDegrade)
	c.onFail, c.onRepair, c.onDegrade = c.onFail[:0], c.onRepair[:0], c.onDegrade[:0]
	c.lifecycleEv, c.lcSim, c.lcStream = nil, nil, nil
}

// State returns the current operational state.
func (c *Component) State() State { return c.state }

// PerfFactor returns the current performance multiplier in (0, 1]: 1 when
// healthy, the degradation fraction when limping, and 0 when failed.
func (c *Component) PerfFactor() float64 {
	if c.state == StateFailed {
		return 0
	}
	return c.perfFactor
}

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
func (c *Component) OnFail(fn func(*Component)) { c.onFail = append(c.onFail, fn) }

// OnRepair registers fn to run when the component is repaired.
func (c *Component) OnRepair(fn func(*Component)) { c.onRepair = append(c.onRepair, fn) }

// OnDegrade registers fn to run when the component degrades (limpware).
func (c *Component) OnDegrade(fn func(*Component)) { c.onDegrade = append(c.onDegrade, fn) }

// StartLifecycle wires the component's failure/repair process into s,
// drawing from stream. Times are in the TTF/Repair distributions' unit
// (hours by convention). The cycle is: healthy --TTF--> failed --Repair-->
// healthy --TTF--> ...
func (c *Component) StartLifecycle(s *sim.Simulator, stream *rng.Source) {
	if c.failFn == nil {
		c.failName = fmt.Sprintf("%s#%d/fail", c.Spec.Kind, c.ID)
		c.repairName = fmt.Sprintf("%s#%d/repair", c.Spec.Kind, c.ID)
		c.failFn = func() {
			c.Fail(c.lcSim.Now())
			rep := c.Spec.Repair.Sample(c.lcStream)
			c.lifecycleEv = c.lcSim.Schedule(rep, c.repairName, c.repairFn)
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
	c.lifecycleEv = c.lcSim.Schedule(ttf, c.failName, c.failFn)
}

// StopLifecycle cancels any pending lifecycle event.
func (c *Component) StopLifecycle(s *sim.Simulator) {
	if c.lifecycleEv != nil {
		s.Cancel(c.lifecycleEv)
		c.lifecycleEv = nil
	}
}

// Fail transitions the component to failed at time now. Failing a failed
// component is a no-op.
func (c *Component) Fail(now sim.Time) {
	if c.state == StateFailed {
		return
	}
	c.state = StateFailed
	c.failures++
	c.downSince = now
	c.lastChange = now
	for _, fn := range c.onFail {
		fn(c)
	}
}

// Restore transitions the component to healthy at time now.
func (c *Component) Restore(now sim.Time) {
	if c.state == StateHealthy {
		return
	}
	if c.state == StateFailed {
		c.totalDown += now - c.downSince
		c.repairs++
	}
	c.state = StateHealthy
	c.perfFactor = 1
	c.lastChange = now
	for _, fn := range c.onRepair {
		fn(c)
	}
}

// Degrade marks the component as limpware running at factor (0 < factor
// < 1) of its specified performance. Degrading a failed component is a
// no-op; factor 1 restores health.
func (c *Component) Degrade(now sim.Time, factor float64) error {
	if factor <= 0 || factor > 1 {
		return fmt.Errorf("hardware: degrade factor %v outside (0, 1]", factor)
	}
	if c.state == StateFailed {
		return nil
	}
	if factor == 1 {
		c.Restore(now)
		return nil
	}
	c.state = StateDegraded
	c.perfFactor = factor
	c.lastChange = now
	for _, fn := range c.onDegrade {
		fn(c)
	}
	return nil
}
