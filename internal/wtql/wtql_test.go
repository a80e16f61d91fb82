package wtql

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dist"
	"repro/internal/hardware"
	"repro/internal/power"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("SIMULATE availability VARY x IN (1, 'two') WHERE a >= 0.5;")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokKeyword, tokIdent, tokKeyword, tokIdent, tokKeyword,
		tokLParen, tokNumber, tokComma, tokString, tokRParen,
		tokKeyword, tokIdent, tokOp, tokNumber, tokSemicolon, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d: kind %d, want %d (%q)", i, toks[i].kind, k, toks[i].text)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{"'unterminated", "a ! b", "a @ b"} {
		if _, err := lex(bad); err == nil {
			t.Errorf("lex(%q) accepted", bad)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := lex("1 2.5 1e-3 -4")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "2.5", "1e-3", "-4"}
	for i, w := range want {
		if toks[i].kind != tokNumber || toks[i].text != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].text, w)
		}
	}
}

const fullQuery = `
SIMULATE availability
VARY cluster.nodes IN (10, 30),
     storage.replication IN (3, 5) MONOTONE,
     storage.placement IN ('random', 'roundrobin')
WITH users = 1000, trials = 3, horizon_hours = 8766
WHERE sla.availability >= 0.9 AND cost.total <= 10000000
ORDER BY cost.total ASC
LIMIT 3;
`

func TestParseFullQuery(t *testing.T) {
	q, err := Parse(fullQuery)
	if err != nil {
		t.Fatal(err)
	}
	if q.Metric != "availability" {
		t.Errorf("metric = %q", q.Metric)
	}
	if len(q.Vary) != 3 {
		t.Fatalf("vary clauses = %d, want 3", len(q.Vary))
	}
	if q.Vary[0].Param != "cluster.nodes" || len(q.Vary[0].Values) != 2 {
		t.Errorf("vary[0] = %+v", q.Vary[0])
	}
	if !q.Vary[1].Monotone {
		t.Error("replication should be MONOTONE")
	}
	if q.Vary[2].Values[0] != "random" {
		t.Errorf("vary[2] values = %v", q.Vary[2].Values)
	}
	if len(q.With) != 3 {
		t.Errorf("with = %d, want 3", len(q.With))
	}
	if q.Where == nil {
		t.Fatal("no WHERE parsed")
	}
	be, ok := q.Where.(BinaryExpr)
	if !ok || be.Op != "AND" {
		t.Fatalf("where = %#v", q.Where)
	}
	if q.OrderBy != "cost.total" || q.Desc {
		t.Errorf("order by = %q desc=%v", q.OrderBy, q.Desc)
	}
	if q.Limit != 3 {
		t.Errorf("limit = %d", q.Limit)
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	q, err := Parse("SIMULATE availability VARY users IN (1) WHERE a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	// AND binds tighter: OR(a=1, AND(b=2, c=3)).
	or, ok := q.Where.(BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top = %#v, want OR", q.Where)
	}
	and, ok := or.Right.(BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("right = %#v, want AND", or.Right)
	}
}

func TestParseNotAndParens(t *testing.T) {
	q, err := Parse("SIMULATE availability VARY users IN (1) WHERE NOT (a = 1 OR b = 2)")
	if err != nil {
		t.Fatal(err)
	}
	not, ok := q.Where.(NotExpr)
	if !ok {
		t.Fatalf("top = %#v, want NOT", q.Where)
	}
	if _, ok := not.X.(BinaryExpr); !ok {
		t.Fatalf("inner = %#v, want OR", not.X)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"VARY x IN (1)",
		"SIMULATE",
		"SIMULATE availability VARY x",
		"SIMULATE availability VARY x IN ()",
		"SIMULATE availability VARY x IN (1",
		"SIMULATE availability WITH x 3",
		"SIMULATE availability WHERE >= 3",
		"SIMULATE availability ORDER x",
		"SIMULATE availability LIMIT 0",
		"SIMULATE availability LIMIT -1",
		"SIMULATE availability; trailing",
	}
	for _, b := range bad {
		if _, err := Parse(b); err == nil {
			t.Errorf("Parse(%q) accepted", b)
		}
	}
}

func TestEvalCompare(t *testing.T) {
	row := Row{
		Config:  map[string]string{"storage.placement": "random", "cluster.nodes": "10"},
		Metrics: map[string]float64{"availability": 0.995, "cost.total": 5000},
	}
	cases := []struct {
		expr string
		want bool
	}{
		{"sla.availability >= 0.99", true},
		{"sla.availability >= 0.999", false},
		{"availability < 1", true},
		{"cost.total <= 5000", true},
		{"storage.placement = 'random'", true},
		{"storage.placement != 'random'", false},
		{"cluster.nodes >= 5", true},
		{"cluster.nodes > 10", false},
	}
	for _, c := range cases {
		q, err := Parse("SIMULATE availability VARY users IN (1) WHERE " + c.expr)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		got, err := evalExpr(q.Where, row)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
	// Unknown identifier errors.
	q, err := Parse("SIMULATE availability VARY users IN (1) WHERE bogus = 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evalExpr(q.Where, row); err == nil {
		t.Error("unknown identifier accepted")
	}
}

func TestExtractAvailabilitySLAs(t *testing.T) {
	q, err := Parse("SIMULATE availability VARY users IN (1) WHERE sla.availability >= 0.99 AND cost.total <= 5")
	if err != nil {
		t.Fatal(err)
	}
	slas := extractAvailabilitySLAs(q.Where)
	if len(slas) != 1 {
		t.Fatalf("extracted %d SLAs, want 1", len(slas))
	}
	// OR'd constraints must NOT be extracted (not conjunctive).
	q, err = Parse("SIMULATE availability VARY users IN (1) WHERE sla.availability >= 0.99 OR cost.total <= 5")
	if err != nil {
		t.Fatal(err)
	}
	if got := extractAvailabilitySLAs(q.Where); len(got) != 0 {
		t.Fatalf("extracted %d SLAs from OR, want 0", len(got))
	}
}

func TestEngineEndToEnd(t *testing.T) {
	e := &Engine{Trials: 2}
	rs, err := e.Execute(`
		SIMULATE availability
		VARY storage.replication IN (3, 5) MONOTONE,
		     storage.placement IN ('random', 'roundrobin')
		WITH users = 50, trials = 2, horizon_hours = 1000,
		     cluster.racks = 2, cluster.nodes_per_rack = 5, object_mb = 10
		WHERE sla.availability >= 0.0
		ORDER BY cost.total ASC`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Executed == 0 {
		t.Fatal("nothing executed")
	}
	if len(rs.Rows) == 0 {
		t.Fatal("no rows returned")
	}
	for _, row := range rs.Rows {
		if _, ok := row.Metrics["availability"]; !ok {
			t.Error("row missing availability metric")
		}
		if _, ok := row.Metrics["cost.total"]; !ok {
			t.Error("row missing cost metric")
		}
	}
	// Ordered ascending by cost.
	for i := 1; i < len(rs.Rows); i++ {
		if rs.Rows[i].Metrics["cost.total"] < rs.Rows[i-1].Metrics["cost.total"] {
			t.Error("rows not ordered by cost")
		}
	}
	table := rs.Render()
	if !strings.Contains(table, "availability") || !strings.Contains(table, "rows") {
		t.Errorf("table render missing headers:\n%s", table)
	}
}

func TestEngineLimit(t *testing.T) {
	e := &Engine{}
	rs, err := e.Execute(`
		SIMULATE availability
		VARY storage.replication IN (3, 5)
		WITH users = 20, trials = 1, horizon_hours = 500,
		     cluster.racks = 1, cluster.nodes_per_rack = 6, object_mb = 5
		LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (LIMIT)", len(rs.Rows))
	}
}

func TestEngineRejectsBadQueries(t *testing.T) {
	e := &Engine{}
	bad := []string{
		"SIMULATE latency VARY users IN (1)",                  // unsupported metric
		"SIMULATE availability VARY bogus.param IN (1)",       // unknown vary param
		"SIMULATE availability VARY trials IN (1, 2)",         // exec param varied
		"SIMULATE availability VARY users IN (1) WITH q = 1",  // unknown with param
		"SIMULATE availability VARY net.nic IN ('warp-coil')", // unknown spec
	}
	for _, b := range bad {
		if _, err := e.Execute(b); err == nil {
			t.Errorf("Execute(%q) accepted", b)
		}
	}
}

// TestOnePointQuery: a query without VARY is a one-point sweep of the
// scenario its WITH clause describes. Its row's metrics are what
// core.Runner makes of that scenario, bit for bit, plus the cost columns
// every row carries (priced as a sweep's rows are), and its table shows
// every metric the row holds, in name order. The power-enabled case
// covers the energy, peak, PUE, carbon and power-event metrics.
func TestOnePointQuery(t *testing.T) {
	withPower := core.DefaultScenario()
	withPower.Cluster.Racks, withPower.Cluster.NodesPerRack = 2, 5
	withPower.Users, withPower.HorizonHours = 300, 4000
	p := &withPower.Power
	p.Enabled, p.PDUs, p.UPSSpec, p.UPSMinutes = true, 2, "ups-240kva", 15
	var err error
	if p.UtilityTTF, err = dist.Parse("exp(mean=2000)"); err != nil {
		t.Fatal(err)
	}
	if p.UtilityRepair, err = dist.Parse("det(4)"); err != nil {
		t.Fatal(err)
	}
	p.GeneratorStartProb, p.GeneratorStartHours = 0.9, 0.2

	compared := map[string]bool{}
	for _, c := range []struct {
		query string
		sc    core.Scenario
	}{
		{"SIMULATE availability WITH trials = 10", core.DefaultScenario()},
		{`SIMULATE availability WITH trials = 10, cluster.racks = 2, cluster.nodes_per_rack = 5,
			users = 300, horizon_hours = 4000, power.pdus = 2, power.ups_spec = 'ups-240kva',
			power.ups_minutes = 15, power.utility_ttf = 'exp(mean=2000)', power.utility_repair = 'det(4)',
			power.generator_start_prob = 0.9, power.generator_start_hours = 0.2`, withPower},
	} {
		rs, err := (&Engine{}).Execute(c.query)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 1 || rs.Executed != 1 || len(rs.Rows[0].Config) != 0 {
			t.Fatalf("%s: %d rows, %d executed, config %v; want one row of one point that assigns nothing",
				c.query, len(rs.Rows), rs.Executed, rs.Rows[0].Config)
		}
		row := rs.Rows[0]
		want, err := core.Runner{Trials: 10}.Run(c.sc)
		if err != nil {
			t.Fatal(err)
		}
		book := cost.DefaultPriceBook()
		breakdown, err := cost.EstimateWithPower(hardware.DefaultCatalog(), c.sc.Cluster, c.sc.Power, book, c.sc.HorizonHours)
		if err != nil {
			t.Fatal(err)
		}
		priced := map[string]float64{"storage.overhead": c.sc.Scheme.Overhead()}
		if kwh, ok := want.Metrics["energy_kwh"]; ok {
			breakdown = cost.WithMeasuredEnergy(breakdown, kwh, power.DefaultCarbon, book)
			priced["cost.energy"] = breakdown.EnergyUSD
		}
		priced["cost.total"], priced["cost.capex"] = breakdown.TotalUSD(), breakdown.CapexUSD
		for k, v := range want.Metrics {
			priced[k] = v
		}
		for k, v := range priced {
			compared[k] = true
			if got, ok := row.Metrics[k]; !ok || math.Float64bits(got) != math.Float64bits(v) {
				t.Errorf("%s: %s = %v (present %t), want %v", c.query, k, got, ok, v)
			}
		}
		if len(row.Metrics) != len(priced) {
			t.Errorf("%s: the row holds %d metrics, want %d", c.query, len(row.Metrics), len(priced))
		}
		var names []string
		for k := range row.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		if !reflect.DeepEqual(rs.Columns, names) {
			t.Errorf("%s: columns %v, want every metric in name order %v", c.query, rs.Columns, names)
		}
	}
	for _, m := range []string{"energy_kwh", "peak_kw", "pue", "carbon_kg", "cost.energy",
		"power_utility_outages", "power_ride_through_ok", "power_generator_starts", "power_loss_events", "power_pdu_failures"} {
		if !compared[m] {
			t.Errorf("no case compared %s", m)
		}
	}
}

func TestEnginePruningViaMonotone(t *testing.T) {
	// An unachievable availability bound with a MONOTONE dimension must
	// prune at least one configuration.
	e := &Engine{}
	rs, err := e.Execute(`
		SIMULATE availability
		VARY storage.replication IN (2, 3) MONOTONE
		WITH users = 50, trials = 1, horizon_hours = 2000, object_mb = 5,
		     cluster.racks = 1, cluster.nodes_per_rack = 8,
		     node.mttf_hours = 300, node.repair_hours = 24,
		     repair.detection_hours = 50
		WHERE sla.availability >= 0.99999999`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Pruned == 0 {
		t.Fatalf("no configurations pruned (executed %d)", rs.Executed)
	}
	if len(rs.Rows) != 0 {
		t.Fatalf("rows = %d, want 0 (nothing passes)", len(rs.Rows))
	}
}

func TestEngineDistSpecParams(t *testing.T) {
	// node.ttf / node.repair / repair.detection take full distribution
	// spec strings, so scenarios can declare arbitrary failure models.
	e := &Engine{}
	rs, err := e.Execute(`
		SIMULATE availability
		VARY storage.replication IN (1, 3)
		WITH users = 20, trials = 1, horizon_hours = 500, object_mb = 5,
		     cluster.racks = 1, cluster.nodes_per_rack = 6,
		     node.ttf = 'weibull(shape=0.7, scale=600)',
		     node.repair = 'mix(0.8*lognormal(mean=4, cv=1), 0.2*det(48))',
		     repair.detection = 'det(1)'`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Executed != 2 || len(rs.Rows) != 2 {
		t.Fatalf("executed %d rows %d, want 2 and 2", rs.Executed, len(rs.Rows))
	}
	bad := []string{
		"SIMULATE availability VARY users IN (20) WITH node.ttf = 'frechet(1, 2)'",
		"SIMULATE availability VARY users IN (20) WITH node.ttf = 5",
		"SIMULATE availability VARY users IN (20) WITH node.repair = 'weibull(shape=0)'",
	}
	for _, b := range bad {
		if _, err := e.Execute(b); err == nil {
			t.Errorf("Execute(%q) accepted", b)
		}
	}
}

func TestEngineScreening(t *testing.T) {
	e := &Engine{}
	// Replication 7 and 9 clear availability 0.9 analytically (the
	// default scenario's failure model); 1 and 3 must simulate.
	rs, err := e.Execute(`
		SIMULATE availability
		VARY storage.replication IN (1, 3, 7, 9)
		WITH users = 100, trials = 2, horizon_hours = 2000, object_mb = 5,
		     cluster.racks = 2, cluster.nodes_per_rack = 5,
		     node.mttf_hours = 500, node.repair_hours = 12,
		     repair.detection_hours = 6, screen = TRUE
		WHERE sla.availability >= 0.9`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Screened == 0 {
		t.Fatalf("no configurations screened (executed %d)", rs.Executed)
	}
	if rs.Screened+rs.Executed != 4 {
		t.Fatalf("screened %d + executed %d != 4 (silent skip!)", rs.Screened, rs.Executed)
	}
	if out := rs.Render(); !strings.Contains(out, "screened") {
		t.Errorf("render does not report screening:\n%s", out)
	}
	// Screened rows carry the analytic availability estimate.
	found := false
	for _, row := range rs.Rows {
		if row.Screened {
			found = true
			if row.Metrics["analytic"] != 1 {
				t.Errorf("screened row missing analytic marker: %v", row.Metrics)
			}
		}
	}
	if !found {
		t.Error("no screened row survived the WHERE filter")
	}

	// A WHERE clause the screen cannot decide disables screening for the
	// query — everything simulates, nothing is silently skipped.
	rs2, err := e.Execute(`
		SIMULATE availability
		VARY storage.replication IN (3, 7)
		WITH users = 20, trials = 1, horizon_hours = 500, object_mb = 5,
		     cluster.racks = 1, cluster.nodes_per_rack = 8, screen = TRUE
		WHERE sla.availability >= 0.9 AND cost.total <= 10000000`)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Screened != 0 || rs2.Executed != 2 {
		t.Fatalf("mixed WHERE screened %d executed %d, want 0 and 2", rs2.Screened, rs2.Executed)
	}
}

func TestEngineVarianceReductionParams(t *testing.T) {
	e := &Engine{}
	rs, err := e.Execute(`
		SIMULATE availability
		VARY storage.replication IN (1, 3)
		WITH users = 20, trials = 4, horizon_hours = 500, object_mb = 5,
		     cluster.racks = 1, cluster.nodes_per_rack = 6,
		     antithetic = TRUE, crn = TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Executed != 2 {
		t.Fatalf("executed %d, want 2", rs.Executed)
	}
	if _, err := e.Execute(`
		SIMULATE availability VARY storage.replication IN (3)
		WITH users = 20, trials = 2, horizon_hours = 500, antithetic = 7`); err == nil {
		t.Error("non-boolean antithetic accepted")
	}
	if _, err := e.Execute(`
		SIMULATE availability VARY storage.replication IN (3)
		WITH users = 20, trials = 2, horizon_hours = 500, failure_bias = 'big'`); err == nil {
		t.Error("non-numeric failure_bias accepted")
	}
}

// TestScreenMarginZeroIsExact: screen_margin = 0 is an explicit margin,
// exact-threshold screening, not "unset" and the default margin.
func TestScreenMarginZeroIsExact(t *testing.T) {
	q, err := Parse("SIMULATE availability VARY storage.replication IN (2) WITH screen = TRUE, screen_margin = 0 WHERE sla.availability >= 0.9")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (&Engine{}).Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ex.Screen == nil || plan.ex.Screen.Margin != 0 {
		t.Fatalf("margin 0 not planned as explicit: %+v", plan.ex.Screen)
	}
}

// TestPlanHonoursEngineWorkers pins the point-level parallelism bound a
// Plan carries: the engine's Workers (what `wtql -workers n` and the
// serving layer set) unless the query's WITH names its own.
func TestPlanHonoursEngineWorkers(t *testing.T) {
	e := &Engine{Trials: 1, Workers: 3}
	for src, want := range map[string]int{
		"SIMULATE availability VARY storage.replication IN (1, 3)":                  3,
		"SIMULATE availability VARY storage.replication IN (1, 3) WITH workers = 2": 2,
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := e.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if plan.ex.Workers != want {
			t.Errorf("%s: plan runs %d point workers, want %d", src, plan.ex.Workers, want)
		}
	}
}
