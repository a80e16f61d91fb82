package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/dist"
	"repro/internal/storage"
)

// workload names, in the order `-workload all` runs them. Later issues
// refer to these verbatim.
const (
	sweepRepair       = "sweep_repair"
	sweepQuiet        = "sweep_quiet"
	serveWarm         = "serve_warm"
	serveDurableMixed = "serve_durable_mixed"
)

var workloadNames = []string{sweepRepair, sweepQuiet, serveWarm, serveDurableMixed}

// param is one WITH assignment; value is a float64 or a string, the two
// literal types the WTQL parser produces.
type param struct {
	name  string
	value any
}

// querySpec is one sweep in structured form. The benchmark renders it to
// WTQL text for the system under test and, for the replay, applies the
// same parameters to a core.Scenario itself — the two must agree, which
// the replay proves by comparing core.CacheKey against Plan.PointKeys.
type querySpec struct {
	vary string  // VARY clause body
	with []param // WITH assignments, in order
	tail string  // WHERE / ORDER BY, may be empty
}

func (q querySpec) text(extra ...param) string {
	var b strings.Builder
	b.WriteString("SIMULATE availability VARY ")
	b.WriteString(q.vary)
	b.WriteString(" WITH ")
	for i, p := range append(append([]param(nil), q.with...), extra...) {
		if i > 0 {
			b.WriteString(", ")
		}
		switch v := p.value.(type) {
		case string:
			fmt.Fprintf(&b, "%s = '%s'", p.name, v)
		case float64:
			// Plain decimals: scenario seeds are large and the lexer has
			// no exponent form.
			fmt.Fprintf(&b, "%s = %s", p.name, strconv.FormatFloat(v, 'f', -1, 64))
		}
	}
	if q.tail != "" {
		b.WriteString(" ")
		b.WriteString(q.tail)
	}
	return b.String()
}

// trials returns the query's WITH trials value.
func (q querySpec) trials() int {
	for _, p := range q.with {
		if p.name == "trials" {
			return int(p.value.(float64))
		}
	}
	panic("bench: query spec without trials")
}

// scenario builds the core.Scenario the plan runs for one design point:
// the default scenario, the WITH overlay, then the point's assignments.
func (q querySpec) scenario(pt design.Point) (core.Scenario, error) {
	sc := core.DefaultScenario()
	for _, p := range q.with {
		if p.name == "trials" {
			continue
		}
		if err := applyParam(&sc, p.name, p.value); err != nil {
			return core.Scenario{}, err
		}
	}
	for name, v := range pt.Assignments() {
		if err := applyParam(&sc, name, v); err != nil {
			return core.Scenario{}, err
		}
	}
	return sc, nil
}

// applyParam covers exactly the parameters the four workloads use.
func applyParam(sc *core.Scenario, name string, v any) error {
	num := func() int { return int(v.(float64)) }
	switch name {
	case "cluster.racks":
		sc.Cluster.Racks = num()
	case "cluster.nodes_per_rack":
		sc.Cluster.NodesPerRack = num()
	case "storage.replication":
		sc.Scheme = storage.ReplicationScheme(num())
	case "storage.placement":
		sc.Placement = v.(string)
	case "repair.concurrency":
		sc.Repair.MaxConcurrent = num()
	case "users":
		sc.Users = num()
	case "object_mb":
		sc.ObjectSizeMB = v.(float64)
	case "horizon_hours":
		sc.HorizonHours = v.(float64)
	case "seed":
		sc.Seed = uint64(v.(float64))
	case "node.ttf", "node.repair":
		d, err := dist.Parse(v.(string))
		if err != nil {
			return err
		}
		if name == "node.ttf" {
			sc.Cluster.NodeTTF = d
		} else {
			sc.Cluster.NodeRepair = d
		}
	default:
		return fmt.Errorf("bench: parameter %q is not part of any workload", name)
	}
	return nil
}

// seedBase spreads a workload seed so that the scenario seeds of two
// runs never overlap and stay exactly representable as WTQL numbers.
func seedBase(seed uint64) float64 {
	return float64(seed%1_000_000_000) * 100_000
}

// sweepSeeds is how many distinct scenario seeds one sweep run cycles
// over; every seed after the first round is a byte-identity check. How
// many failures a scenario seed happens to draw moves one sweep's cost by
// a quarter either way, so a run takes its median over 16 of them, each
// run about twice. alloc_kb_per_op, which is a pure function of the
// seeds, spread by 6 % over ten workload seeds with 8 scenario seeds a
// run and by 2.4 % with 16.
const sweepSeeds = 16

// sweepQuery returns the sweep workload's query for its j-th seed.
func sweepQuery(workload string, seed uint64, j int) querySpec {
	s := seedBase(seed) + float64(j)
	switch workload {
	case sweepRepair:
		// 24 points, 192 trials: failures trigger repair storms whose
		// flows share links (default Weibull time-to-failure).
		return querySpec{
			vary: "storage.replication IN (2, 3, 5), storage.placement IN ('random', 'roundrobin'), " +
				"repair.concurrency IN (4, 16), cluster.nodes_per_rack IN (5, 10)",
			with: []param{{"cluster.racks", 3.0}, {"users", 300.0}, {"object_mb", 64.0},
				{"trials", 8.0}, {"horizon_hours", 2000.0}, {"seed", s}},
		}
	case sweepQuiet:
		// 12 points, 1536 trials: rare failures, many short trials on
		// 60-120 node clusters, so construction and the availability
		// scan dominate.
		return querySpec{
			vary: "storage.replication IN (2, 3, 5), storage.placement IN ('random', 'roundrobin'), " +
				"cluster.nodes_per_rack IN (20, 40)",
			with: []param{{"cluster.racks", 3.0}, {"users", 1000.0}, {"object_mb", 64.0},
				{"trials", 128.0}, {"horizon_hours", 168.0}, {"node.ttf", "exp(mean=50000)"}, {"seed", s}},
		}
	}
	panic("bench: not a sweep workload: " + workload)
}

// serveQuery returns the k-th small 8-point sweep the serving workloads
// send; distinct k means 8 distinct cache keys.
func serveQuery(seed uint64, k int) querySpec {
	return querySpec{
		vary: "storage.replication IN (2, 3), cluster.nodes_per_rack IN (4, 6), " +
			"storage.placement IN ('random', 'roundrobin')",
		with: []param{{"cluster.racks", 2.0}, {"users", 20.0}, {"object_mb", 10.0},
			{"trials", 2.0}, {"horizon_hours", 200.0}, {"node.ttf", "exp(mean=500)"},
			{"node.repair", "det(12)"}, {"seed", seedBase(seed) + float64(k)}},
		tail: "WHERE sla.availability >= 0.9 ORDER BY cost.total ASC",
	}
}
