// Package core is the wind tunnel itself — the paper's primary
// contribution (§2.3): it composes the hardware substrate
// (internal/cluster, internal/netsim), the software models
// (internal/storage, internal/repair, internal/workload) and the SLA layer
// into runnable what-if scenarios, executes them as replicated
// discrete-event simulations with confidence intervals (§4.2), and
// sweeps configuration design spaces with dominance pruning and
// parallel execution.
package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/hardware"
	"repro/internal/power"
	"repro/internal/repair"
	"repro/internal/sla"
	"repro/internal/storage"
)

// Scenario is one complete availability what-if experiment: a cluster
// design, a tenant population with a redundancy scheme and placement
// policy, a repair configuration, and a simulated horizon.
type Scenario struct {
	Name string

	Cluster cluster.Config

	// Tenant data.
	Users        int
	ObjectSizeMB float64
	Scheme       storage.Scheme
	Placement    string // placement policy name (storage.PolicyByName)

	Repair repair.Config

	// Power declares the power delivery hierarchy, energy accounting and
	// power capping (internal/power). The zero value is disabled and
	// leaves the simulation path byte-for-byte unchanged.
	Power power.Config

	HorizonHours float64
	Seed         uint64
}

// Ceilings on what one scenario, and one run of it, may ask for. A trial
// allocates in proportion to each of these before it simulates anything,
// and a scenario can arrive in a query from anyone who can reach a
// daemon, so each is refused above a fixed size — here, before any world
// is built — instead of being asked of the allocator, whose refusal
// nothing recovers from. They are constants, not options: every one is
// more than ten times what any test, benchmark or experiment in this
// repository uses (EXPERIMENTS.md E25 lists the largest use of each).
const (
	MaxNodes        = 1_000_000   // racks x nodes per rack
	MaxDisksPerNode = 1024        // Cluster.DisksPerNode
	MaxDisks        = 10_000_000  // nodes x disks per node
	MaxUsers        = 10_000_000  // Scenario.Users, one object each
	MaxShards       = 100_000_000 // users x the scheme's width
	MaxTrials       = 10_000_000  // Runner.Trials
)

// Validate checks the scenario.
func (sc Scenario) Validate() error {
	if err := sc.Cluster.Validate(); err != nil {
		return err
	}
	c := sc.Cluster // at least one rack, node per rack and disk per node
	switch {
	case c.Racks > MaxNodes/c.NodesPerRack:
		return fmt.Errorf("core: %d racks x %d nodes per rack is over the ceiling of %d nodes", c.Racks, c.NodesPerRack, MaxNodes)
	case c.DisksPerNode > MaxDisksPerNode:
		return fmt.Errorf("core: %d disks per node is over the ceiling of %d", c.DisksPerNode, MaxDisksPerNode)
	case c.DisksPerNode > MaxDisks/(c.Racks*c.NodesPerRack):
		return fmt.Errorf("core: %d nodes x %d disks per node is over the ceiling of %d disks", c.Racks*c.NodesPerRack, c.DisksPerNode, MaxDisks)
	case sc.Users > MaxUsers:
		return fmt.Errorf("core: %d users is over the ceiling of %d", sc.Users, MaxUsers)
	}
	if sc.Users < 1 {
		return fmt.Errorf("core: scenario needs >= 1 user, got %d", sc.Users)
	}
	if sc.ObjectSizeMB < 0 {
		return fmt.Errorf("core: negative object size %v", sc.ObjectSizeMB)
	}
	if err := sc.Scheme.Validate(); err != nil {
		return err
	}
	if w := sc.Scheme.Width(); w > MaxShards/sc.Users {
		return fmt.Errorf("core: %d users x %d shards (%v) is over the ceiling of %d", sc.Users, w, sc.Scheme, MaxShards)
	}
	if _, err := storage.PolicyByName(sc.Placement); err != nil {
		return err
	}
	if err := sc.Repair.Validate(); err != nil {
		return err
	}
	if err := sc.Power.Validate(); err != nil {
		return err
	}
	if sc.HorizonHours <= 0 {
		return fmt.Errorf("core: horizon must be positive, got %v", sc.HorizonHours)
	}
	return nil
}

// DefaultScenario returns a plausible baseline: 3 racks x 10 nodes of
// HDD/10G hardware, 1000 users with 3-way replication, random placement,
// parallel repair, one simulated year.
func DefaultScenario() Scenario {
	return Scenario{
		Name: "default",
		Cluster: cluster.Config{
			Racks: 3, NodesPerRack: 10,
			DiskSpec: "hdd-7200", DisksPerNode: 4,
			NICSpec: "nic-10g", CPUSpec: "cpu-8c", MemSpec: "mem-64g",
			SwitchSpec: "switch-48p-10g",
			NodeTTF:    dist.Must(dist.NewWeibull(0.7, 12000)),
			NodeRepair: dist.Must(dist.LogNormalFromMoments(12, 1.2)),
		},
		Users:        1000,
		ObjectSizeMB: 200,
		Scheme:       storage.ReplicationScheme(3),
		Placement:    "random",
		Repair:       repair.Config{Mode: repair.Parallel, MaxConcurrent: 8},
		HorizonHours: hardware.HoursPerYear,
		Seed:         1,
	}
}

// RunResult aggregates one or more simulation trials of a scenario. It
// implements sla.Result.
type RunResult struct {
	Scenario string
	Trials   int

	// Metrics holds aggregate scalars:
	//   availability        — mean fraction of time all objects reachable
	//   unavail_fraction    — 1 - availability
	//   zero_copy_fraction  — fraction of time >= 1 object had zero live
	//                         copies (§1's unavailability notion)
	//   mean_unavail_objects— time-averaged unavailable object count
	//   loss_prob           — fraction of objects permanently lost
	//   repairs             — mean completed repairs per trial
	//   repair_bytes_mb     — mean repair traffic per trial
	//   node_failures       — mean node failures per trial
	//   events              — mean DES events per trial
	//
	// With Scenario.Power.Enabled, the power/energy dimension is added:
	//   energy_kwh          — mean facility energy per trial (IT × PUE)
	//   energy_it_kwh       — mean IT-only energy per trial
	//   peak_kw             — mean peak facility draw per trial
	//   pue                 — configured power usage effectiveness
	//   carbon_kg           — mean carbon footprint per trial
	//   power_utility_outages / power_ride_through_ok /
	//   power_generator_starts / power_loss_events /
	//   power_pdu_failures  — mean hierarchy event counts per trial
	Metrics map[string]float64

	// CI holds 95% confidence half-widths for selected metrics.
	CI map[string]float64

	Verdicts []sla.Verdict
	AllMet   bool

	EventsTotal uint64
}

// Metric implements sla.Result.
func (r *RunResult) Metric(name string) (float64, error) {
	v, ok := r.Metrics[name]
	if !ok {
		return 0, fmt.Errorf("core: metric %q not recorded", name)
	}
	return v, nil
}
