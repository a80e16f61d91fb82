package wtql

import (
	"strings"
	"testing"
)

// TestPowerCapSweep runs the power-cap trade-off query end to end: the
// energy metrics must be simulated, surfaced as columns, and fall as
// the cap deepens.
func TestPowerCapSweep(t *testing.T) {
	e := &Engine{Trials: 2}
	rs, err := e.Execute(`
		SIMULATE availability
		VARY power.cap IN (0, 0.4)
		WITH users = 30, horizon_hours = 500, cluster.nodes = 6
		ORDER BY power.cap ASC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rs.Rows))
	}
	hasEnergy, hasPeak := false, false
	for _, c := range rs.Columns {
		if c == "energy_kwh" {
			hasEnergy = true
		}
		if c == "peak_kw" {
			hasPeak = true
		}
	}
	if !hasEnergy || !hasPeak {
		t.Fatalf("energy columns missing: %v", rs.Columns)
	}
	uncapped, capped := rs.Rows[0], rs.Rows[1]
	if capped.Metrics["energy_kwh"] >= uncapped.Metrics["energy_kwh"] {
		t.Errorf("capped energy %v not below uncapped %v",
			capped.Metrics["energy_kwh"], uncapped.Metrics["energy_kwh"])
	}
	if capped.Metrics["peak_kw"] >= uncapped.Metrics["peak_kw"] {
		t.Errorf("capped peak %v not below uncapped %v",
			capped.Metrics["peak_kw"], uncapped.Metrics["peak_kw"])
	}
	for _, row := range rs.Rows {
		if _, ok := row.Metrics["cost.energy"]; !ok {
			t.Error("cost.energy missing from a power-enabled row")
		}
		if row.Metrics["pue"] == 0 || row.Metrics["carbon_kg"] == 0 {
			t.Error("pue/carbon metrics missing")
		}
	}
	// The rendered table must carry the energy columns.
	if out := rs.Render(); !strings.Contains(out, "energy_kwh") {
		t.Errorf("rendered table lacks energy column:\n%s", out)
	}
}

// TestDefaultQueryHasNoPowerColumns guards the default-path output: a
// query that never touches power.* must render exactly as before the
// power subsystem existed.
func TestDefaultQueryHasNoPowerColumns(t *testing.T) {
	e := &Engine{Trials: 1}
	rs, err := e.Execute(`
		SIMULATE availability
		VARY storage.replication IN (2)
		WITH users = 20, horizon_hours = 200, cluster.nodes = 5`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rs.Columns {
		if c == "energy_kwh" || c == "peak_kw" {
			t.Fatalf("power column %q in a power-disabled query", c)
		}
	}
	for _, row := range rs.Rows {
		for _, m := range []string{"energy_kwh", "peak_kw", "pue", "carbon_kg", "cost.energy"} {
			if _, ok := row.Metrics[m]; ok {
				t.Errorf("power metric %q present in a power-disabled row", m)
			}
		}
	}
}

// TestCarbonIntensityReachesTheMeter: a WITH power.cap switches the
// power subsystem on and power.carbon_intensity prices every simulated kWh.
func TestCarbonIntensityReachesTheMeter(t *testing.T) {
	rs, err := (&Engine{Trials: 1}).Execute(`
		SIMULATE availability
		VARY storage.replication IN (2)
		WITH users = 20, horizon_hours = 200, cluster.nodes = 5,
		     power.cap = 0.3, power.carbon_intensity = 0.2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	row := rs.Rows[0]
	if _, ok := row.Metrics["energy_kwh"]; !ok {
		t.Fatal("power.cap did not enable the power subsystem")
	}
	if got, want := row.Metrics["carbon_kg"], row.Metrics["energy_kwh"]*0.2; got != want {
		t.Errorf("carbon = %v, want %v", got, want)
	}
}

// TestPowerParamValidation checks the WITH-level appliers' bounds.
func TestPowerParamValidation(t *testing.T) {
	for _, q := range []string{
		`SIMULATE availability VARY cluster.nodes IN (5) WITH power.cap = 1`,
		`SIMULATE availability VARY cluster.nodes IN (5) WITH power.cap = -0.1`,
		`SIMULATE availability VARY cluster.nodes IN (5) WITH power.cap = 1.5`,
		`SIMULATE availability VARY cluster.nodes IN (5) WITH power.carbon_intensity = -1`,
		`SIMULATE availability VARY cluster.nodes IN (5) WITH power.pue = 0.5`,
		`SIMULATE availability VARY cluster.nodes IN (5) WITH power.utilization = 2`,
		`SIMULATE availability VARY cluster.nodes IN (5) WITH power.ups_minutes = -1`,
		`SIMULATE availability VARY cluster.nodes IN (5) WITH power.generator_start_prob = 1.5`,
		`SIMULATE availability VARY cluster.nodes IN (5) WITH power.pdu_spec = 'no-such-spec'`,
		`SIMULATE availability VARY cluster.nodes IN (5) WITH power.utility_ttf = 'frechet(1)'`,
		`SIMULATE availability VARY cluster.nodes IN (5) WITH power.enabled = 3`,
	} {
		if _, err := (&Engine{Trials: 1}).Execute(q); err == nil {
			t.Errorf("bad power parameter accepted: %s", q)
		}
	}
}

// TestPowerBudgetWhere runs a WHERE with a peak_kw budget over a
// power-enabled sweep: oversized clusters must be filtered out.
func TestPowerBudgetWhere(t *testing.T) {
	e := &Engine{Trials: 1}
	rs, err := e.Execute(`
		SIMULATE availability
		VARY cluster.nodes IN (5, 40)
		WITH users = 20, horizon_hours = 200, power.enabled = TRUE
		WHERE peak_kw <= 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (the 40-node cluster is over budget)", len(rs.Rows))
	}
	if rs.Rows[0].Config["cluster.nodes"] != "5" {
		t.Fatalf("wrong survivor: %v", rs.Rows[0].Config)
	}
}

// TestPowerFeasibilityScreenInQuery: with screening on, a power budget
// far below the idle floor is decided without simulation.
func TestPowerFeasibilityScreenInQuery(t *testing.T) {
	e := &Engine{Trials: 1}
	rs, err := e.Execute(`
		SIMULATE availability
		VARY cluster.nodes IN (40)
		WITH users = 20, horizon_hours = 200, screen = TRUE, power.enabled = TRUE
		WHERE peak_kw <= 0.01`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Screened != 1 {
		t.Fatalf("screened = %d, want 1 (infeasible budget decided analytically)", rs.Screened)
	}
	if len(rs.Rows) != 0 {
		t.Fatalf("rows = %d, want 0", len(rs.Rows))
	}
}

// TestPeakKWWhereNotScreenedWithoutPower is the regression guard for
// the screening gate: with screening on but power disabled, a peak_kw
// conjunct must not be silently skipped by a screened pass — the point
// simulates and the post-filter reports the missing metric loudly.
func TestPeakKWWhereNotScreenedWithoutPower(t *testing.T) {
	e := &Engine{Trials: 1}
	_, err := e.Execute(`
		SIMULATE availability
		VARY cluster.nodes IN (5)
		WITH users = 20, horizon_hours = 200, screen = TRUE
		WHERE sla.availability >= 0.000001 AND peak_kw <= 100`)
	if err == nil {
		t.Fatal("peak_kw WHERE on a power-disabled query silently passed")
	}
	if !strings.Contains(err.Error(), "peak_kw") {
		t.Fatalf("error does not name the missing metric: %v", err)
	}
}
