package wtql

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hardware"
	"repro/internal/repair"
	"repro/internal/storage"
)

// The parameter table: every name a designer can set in a WITH or VARY
// clause — one scenario is a query without VARY — with the kind of value it
// takes, what it means, and the core.Scenario field or execution setting it
// writes. It is the only place a name meets a field: Plan and the per-point
// build both assign through it, so an unknown name or a bad value is
// refused before anything runs, and README's "Parameters" section is this
// table written out (TestREADMEListsEveryParameter).

// kind is the type of value a parameter takes, and how it is checked.
type kind string

const (
	kindInt      kind = "int"      // non-negative whole number, at most the row's ceiling
	kindNumber   kind = "number"   // number, at least the row's floor
	kindFraction kind = "fraction" // number in [0, 1]
	kindDist     kind = "dist"     // distribution spec string, internal/dist's grammar
	kindSpec     kind = "spec"     // name of a hardware catalog spec
	kindString   kind = "string"
	kindBool     kind = "bool" // TRUE or FALSE
)

// param is one row. Where a value goes is one of three things: field
// points at the scenario field, setting at the execution setting — the
// value is checked as the row's kind and stored there — or set is the
// whole assignment, for a parameter that does more than store a value.
type param struct {
	name string
	kind kind
	doc  string // one line; README's "Meaning" column

	field   func(*core.Scenario) any
	setting func(*settings) any
	set     func(*core.Scenario, any) error

	ceiling int     // kindInt: the most it may be; 0 means whatever fits an int32
	floor   float64 // kindNumber: the least it may be
}

// settings is how a query is run, as opposed to what it simulates: the
// engine's session settings with the query's WITH overlay applied.
type settings struct {
	trials, workers           int
	screenMargin, failureBias float64
	screen, crn, antithetic   bool
}

var paramTable = []param{
	{name: "cluster.racks", kind: kindInt, ceiling: core.MaxNodes, doc: "racks, each behind its own top-of-rack switch", field: func(sc *core.Scenario) any { return &sc.Cluster.Racks }},
	{name: "cluster.nodes_per_rack", kind: kindInt, ceiling: core.MaxNodes, doc: "nodes in every rack", field: func(sc *core.Scenario) any { return &sc.Cluster.NodesPerRack }},
	{name: "cluster.nodes", kind: kindInt, doc: "Figure 1's flat cluster: one rack of this many nodes (sets `cluster.racks` to 1)",
		set: func(sc *core.Scenario, v any) error {
			sc.Cluster.Racks = 1
			return setInt(&sc.Cluster.NodesPerRack, "cluster.nodes", v, core.MaxNodes)
		}},
	{name: "disk.spec", kind: kindSpec, doc: "every disk's catalog spec", field: func(sc *core.Scenario) any { return &sc.Cluster.DiskSpec }},
	{name: "disk.per_node", kind: kindInt, ceiling: core.MaxDisksPerNode, doc: "disks in every node", field: func(sc *core.Scenario) any { return &sc.Cluster.DisksPerNode }},
	{name: "net.nic", kind: kindSpec, doc: "every node's NIC spec; its speed bounds repair traffic", field: func(sc *core.Scenario) any { return &sc.Cluster.NICSpec }},
	{name: "net.switch", kind: kindSpec, doc: "top-of-rack and core switch spec", field: func(sc *core.Scenario) any { return &sc.Cluster.SwitchSpec }},
	{name: "cpu.spec", kind: kindSpec, doc: "every node's CPU spec", field: func(sc *core.Scenario) any { return &sc.Cluster.CPUSpec }},
	{name: "mem.spec", kind: kindSpec, doc: "every node's memory spec", field: func(sc *core.Scenario) any { return &sc.Cluster.MemSpec }},

	// node.ttf, node.repair and repair.detection take whole distribution
	// specs, so a query can sweep failure models, not just means; the
	// *_hours names are shorthands for the one-parameter families.
	{name: "node.ttf", kind: kindDist, doc: "whole-node time to failure, hours", field: func(sc *core.Scenario) any { return &sc.Cluster.NodeTTF }},
	{name: "node.repair", kind: kindDist, doc: "whole-node repair time, hours", field: func(sc *core.Scenario) any { return &sc.Cluster.NodeRepair }},
	{name: "node.mttf_hours", kind: kindNumber, doc: "shorthand for `node.ttf = 'exp(mean=…)'`: memoryless failures with this mean (> 0)",
		set: func(sc *core.Scenario, v any) error {
			var mean float64
			err := setPositive(&mean, "node.mttf_hours", v)
			if err == nil {
				sc.Cluster.NodeTTF, err = dist.ExpMean(mean)
			}
			return err
		}},
	{name: "node.repair_hours", kind: kindNumber, doc: "shorthand for `node.repair = 'det(…)'`: every repair takes exactly this long (> 0)",
		set: func(sc *core.Scenario, v any) error {
			var hours float64
			err := setPositive(&hours, "node.repair_hours", v)
			if err == nil {
				sc.Cluster.NodeRepair, err = dist.NewDeterministic(hours)
			}
			return err
		}},

	{name: "storage.replication", kind: kindInt, doc: "shorthand for `storage.scheme = 'rep-N'`: N full copies",
		set: func(sc *core.Scenario, v any) error {
			sc.Scheme = storage.ReplicationScheme(0)
			return setInt(&sc.Scheme.Replicas, "storage.replication", v, 0)
		}},
	{name: "storage.scheme", kind: kindString, doc: "`'rep-N'` for N copies, `'rs-K-M'` for Reed-Solomon with K data and M parity shards",
		set: func(sc *core.Scenario, v any) error {
			s, ok := v.(string)
			if !ok {
				return fmt.Errorf("wtql: storage.scheme wants a scheme string like 'rep-3' or 'rs-6-3', got %v", v)
			}
			scheme, err := storage.ParseScheme(s)
			if err != nil {
				return fmt.Errorf("wtql: storage.scheme: %w", err)
			}
			sc.Scheme = scheme
			return nil
		}},
	{name: "storage.placement", kind: kindString, doc: "placement policy: `'random'`, `'roundrobin'` or `'rackaware'`", field: func(sc *core.Scenario) any { return &sc.Placement }},

	{name: "repair.mode", kind: kindString, doc: "`'serial'`, one transfer at a time, or `'parallel'` (which also makes a `repair.concurrency` below 1 the default 8)",
		set: func(sc *core.Scenario, v any) error {
			s, ok := v.(string)
			if !ok {
				return fmt.Errorf("wtql: repair.mode wants 'serial' or 'parallel', got %v", v)
			}
			switch s {
			case "serial":
				sc.Repair.Mode = repair.Serial
			case "parallel":
				sc.Repair.Mode = repair.Parallel
				if sc.Repair.MaxConcurrent < 1 {
					sc.Repair.MaxConcurrent = 8
				}
			default:
				return fmt.Errorf("wtql: unknown repair.mode %q", s)
			}
			return nil
		}},
	{name: "repair.concurrency", kind: kindInt, doc: "transfer slots in parallel mode", field: func(sc *core.Scenario) any { return &sc.Repair.MaxConcurrent }},
	{name: "repair.detection", kind: kindDist, doc: "delay between a failure and the start of its repair, hours", field: func(sc *core.Scenario) any { return &sc.Repair.Detection }},
	{name: "repair.detection_hours", kind: kindNumber, doc: "shorthand for `repair.detection = 'det(…)'`; 0 means failures are detected at once",
		set: func(sc *core.Scenario, v any) error {
			var hours float64
			err := setNumber(&hours, "repair.detection_hours", v, 0)
			if sc.Repair.Detection = nil; err == nil && hours > 0 {
				sc.Repair.Detection, err = dist.NewDeterministic(hours)
			}
			return err
		}},

	{name: "users", kind: kindInt, ceiling: core.MaxUsers, doc: "tenants, one object each", field: func(sc *core.Scenario) any { return &sc.Users }},
	{name: "object_mb", kind: kindNumber, doc: "size of every object, MB", field: func(sc *core.Scenario) any { return &sc.ObjectSizeMB }},
	{name: "horizon_hours", kind: kindNumber, doc: "simulated time per trial, hours (> 0)",
		set: func(sc *core.Scenario, v any) error { return setPositive(&sc.HorizonHours, "horizon_hours", v) }},
	{name: "seed", kind: kindNumber, doc: "root of every random stream; a fraction is dropped", field: func(sc *core.Scenario) any { return &sc.Seed }},

	// Assigning any power.* but power.enabled itself switches the power
	// subsystem on (assign does it), so `VARY power.cap IN (0, 0.1, 0.2)`
	// works without ceremony.
	{name: "power.enabled", kind: kindBool, doc: "simulate the power hierarchy and meter energy; assigning any other `power.*` sets it", field: func(sc *core.Scenario) any { return &sc.Power.Enabled }},
	{name: "power.pdus", kind: kindInt, doc: "power distribution units, racks spread evenly across them; 0 for no PDU failure domains", field: func(sc *core.Scenario) any { return &sc.Power.PDUs }},
	{name: "power.pdu_spec", kind: kindSpec, doc: "every PDU's catalog spec; unset means `'pdu-basic'`", field: func(sc *core.Scenario) any { return &sc.Power.PDUSpec }},
	{name: "power.ups_spec", kind: kindSpec, doc: "the UPS's catalog spec: while it is failed an outage gets no ride-through; unset, it never fails", field: func(sc *core.Scenario) any { return &sc.Power.UPSSpec }},
	{name: "power.utility_ttf", kind: kindDist, doc: "time between utility outages, hours", field: func(sc *core.Scenario) any { return &sc.Power.UtilityTTF }},
	{name: "power.utility_repair", kind: kindDist, doc: "length of a utility outage, hours", field: func(sc *core.Scenario) any { return &sc.Power.UtilityRepair }},
	{name: "power.ups_minutes", kind: kindNumber, doc: "battery ride-through during an outage, minutes", field: func(sc *core.Scenario) any { return &sc.Power.UPSMinutes }},
	{name: "power.generator_start_prob", kind: kindFraction, doc: "probability the generator starts on demand", field: func(sc *core.Scenario) any { return &sc.Power.GeneratorStartProb }},
	{name: "power.generator_start_hours", kind: kindNumber, doc: "generator start and transfer delay, hours", field: func(sc *core.Scenario) any { return &sc.Power.GeneratorStartHours }},
	{name: "power.idle_fraction", kind: kindFraction, doc: "a node's idle draw as a fraction of its active draw; 0 means the default 0.45", field: func(sc *core.Scenario) any { return &sc.Power.IdleFraction }},
	{name: "power.utilization", kind: kindFraction, doc: "mean node utilization, placing the draw between idle and active; 0 means the default 0.30", field: func(sc *core.Scenario) any { return &sc.Power.Utilization }},
	{name: "power.pue", kind: kindNumber, floor: 1, doc: "power usage effectiveness, facility power over IT power (>= 1); unset means 1.5", field: func(sc *core.Scenario) any { return &sc.Power.PUE }},
	{name: "power.carbon_intensity", kind: kindNumber, doc: "grid carbon intensity, kg CO2 per kWh; 0 means the default 0.40", field: func(sc *core.Scenario) any { return &sc.Power.CarbonKgPerKWh }},
	{name: "power.cap", kind: kindFraction, doc: "throttle every node's service rate and active draw by this fraction (< 1: some rate must be left)",
		set: func(sc *core.Scenario, v any) error { return setFraction(&sc.Power.CapFraction, "power.cap", v, false) }},
	{name: "power.cap_start_hours", kind: kindNumber, doc: "when the cap begins, hours", field: func(sc *core.Scenario) any { return &sc.Power.CapStartHours }},
	{name: "power.cap_duration_hours", kind: kindNumber, doc: "how long the cap lasts, hours; 0 for the rest of the horizon", field: func(sc *core.Scenario) any { return &sc.Power.CapDurationHours }},

	// Execution settings: WITH only, not part of a scenario, never varied.
	{name: "trials", kind: kindInt, ceiling: core.MaxTrials, doc: "trials per design point", setting: func(s *settings) any { return &s.trials }},
	{name: "workers", kind: kindInt, doc: "design points run at once; 0 for one per CPU", setting: func(s *settings) any { return &s.workers }},
	{name: "screen", kind: kindBool, doc: "decide points analytically where the closed form clears or misses the WHERE by the margin (§2.2)", setting: func(s *settings) any { return &s.screen }},
	{name: "screen_margin", kind: kindNumber, doc: "the screen's safety factor; 0 screens at the exact threshold", setting: func(s *settings) any { return &s.screenMargin }},
	{name: "crn", kind: kindBool, doc: "common random numbers: the same failure draws at every design point (§4.2)", setting: func(s *settings) any { return &s.crn }},
	{name: "antithetic", kind: kindBool, doc: "pair each trial with its antithetic twin", setting: func(s *settings) any { return &s.antithetic }},
	{name: "failure_bias", kind: kindNumber, doc: "above 1, failure-biased importance sampling by this factor", setting: func(s *settings) any { return &s.failureBias }},
}

// retiredParams are rows a query may no longer name, in WITH or in VARY,
// at any value: Plan refuses the query before it plans anything else.
var retiredParams = map[string]error{
	"target_ci": errors.New("wtql: target_ci is retired: two identical trials have a 95 % half-width of 0, so it stopped rare-failure points at 1 ± 0; every point runs all its trials, and verdict-driven stopping (ROADMAP item 10) is its successor"),
}

// params indexes paramTable by name.
var params = func() map[string]*param {
	m := make(map[string]*param, len(paramTable))
	for i := range paramTable {
		m[paramTable[i].name] = &paramTable[i]
	}
	return m
}()

// assign gives the parameter the value v. st may be nil when the caller
// has already refused execution settings.
func (p *param) assign(sc *core.Scenario, st *settings, v any) error {
	if p.name != "power.enabled" && strings.HasPrefix(p.name, "power.") {
		sc.Power.Enabled = true
	}
	switch {
	case p.set != nil:
		return p.set(sc, v)
	case p.setting != nil:
		return p.store(p.setting(st), v)
	}
	return p.store(p.field(sc), v)
}

// store checks v as the row's kind and writes it to dst, a pointer to the
// field the row names.
func (p *param) store(dst, v any) error {
	switch dst := dst.(type) {
	case *int:
		return setInt(dst, p.name, v, p.ceiling)
	case *float64:
		if p.kind == kindFraction {
			return setFraction(dst, p.name, v, true)
		}
		return setNumber(dst, p.name, v, p.floor)
	case *uint64:
		var f float64
		if err := setNumber(&f, p.name, v, 0); err != nil {
			return err
		}
		if f > maxExactInt {
			return fmt.Errorf("wtql: %s = %v is over the ceiling of %d", p.name, v, int64(maxExactInt))
		}
		*dst = uint64(f)
	case *bool:
		b, ok := v.(bool)
		if !ok {
			return fmt.Errorf("wtql: %s wants TRUE or FALSE, got %v", p.name, v)
		}
		*dst = b
	case *dist.Dist:
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("wtql: %s wants a distribution spec string, got %v", p.name, v)
		}
		d, err := dist.Parse(s)
		if err != nil {
			return fmt.Errorf("wtql: %s: %w", p.name, err)
		}
		*dst = d
	case *string:
		s, ok := v.(string)
		if p.kind == kindSpec {
			if !ok {
				return fmt.Errorf("wtql: %s wants a spec name string, got %v", p.name, v)
			}
			if _, err := hardware.SharedCatalog().Get(s); err != nil {
				return fmt.Errorf("wtql: %s: %w", p.name, err)
			}
		} else if !ok {
			return fmt.Errorf("wtql: %s wants a string, got %v", p.name, v)
		}
		*dst = s
	default:
		panic(fmt.Sprintf("wtql: parameter %s stores into a %T", p.name, dst))
	}
	return nil
}

// maxExactInt is 2^53. A WTQL number, like a JSON one, is a float64, and
// past 2^53 those stop counting in ones: a seed must stay below it.
const maxExactInt = 1 << 53

// setInt stores a non-negative whole number no larger than ceiling (or
// than an int32 holds, when ceiling is 0): what a query sizes things by.
func setInt(dst *int, name string, v any, ceiling int) error {
	f, ok := toFloat(v)
	if !ok || f != math.Trunc(f) || f < 0 {
		return fmt.Errorf("wtql: %s wants a non-negative integer, got %v", name, v)
	}
	if ceiling == 0 {
		ceiling = math.MaxInt32
	}
	if f > float64(ceiling) {
		return fmt.Errorf("wtql: %s = %v is over the ceiling of %d", name, v, ceiling)
	}
	*dst = int(f)
	return nil
}

// setNumber stores a number no smaller than floor.
func setNumber(dst *float64, name string, v any, floor float64) error {
	f, ok := toFloat(v)
	if !ok || f < floor {
		if floor == 0 {
			return fmt.Errorf("wtql: %s wants a non-negative number, got %v", name, v)
		}
		return fmt.Errorf("wtql: %s wants a number >= %g, got %v", name, floor, v)
	}
	*dst = f
	return nil
}

// setFraction stores a value in [0, 1]; closed=false excludes 1.
func setFraction(dst *float64, name string, v any, closed bool) error {
	f, ok := toFloat(v)
	if !ok || f < 0 || f > 1 || (!closed && f == 1) {
		hi := "1"
		if !closed {
			hi = "1 (exclusive)"
		}
		return fmt.Errorf("wtql: %s wants a number in [0, %s], got %v", name, hi, v)
	}
	*dst = f
	return nil
}

func setPositive(dst *float64, name string, v any) error {
	f, ok := toFloat(v)
	if !ok || f <= 0 {
		return fmt.Errorf("wtql: %s wants a positive number, got %v", name, v)
	}
	*dst = f
	return nil
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	}
	return 0, false
}
