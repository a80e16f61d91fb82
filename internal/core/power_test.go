package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/design"
	"repro/internal/dist"
	"repro/internal/power"
	"repro/internal/sla"
)

// powerScenario is a small deterministic scenario used by the power
// integration tests: no node/component failures, so the only
// availability events come from the power hierarchy.
func powerScenario() Scenario {
	sc := DefaultScenario()
	sc.Cluster.Racks = 2
	sc.Cluster.NodesPerRack = 3
	sc.Cluster.NodeTTF = nil
	sc.Cluster.NodeRepair = nil
	sc.Users = 50
	sc.HorizonHours = 1000
	sc.Power = power.Config{
		Enabled:       true,
		UtilityTTF:    dist.Must(dist.NewDeterministic(100)),
		UtilityRepair: dist.Must(dist.NewDeterministic(10)),
		// The utility cycles every 110 h: 9 outages of 10 h over the
		// 1000 h horizon, each a blackout from battery exhaustion
		// ([101, 110), [211, 220), ...) — 81 unavailable hours.
		UPSMinutes: 60,
		PUE:        1.5,
	}
	return sc
}

// TestPowerUtilityOutageGolden pins the deterministic utility-outage
// trajectory: nine outages, no ride-through, nine 9-hour facility
// blackouts, and availability reduced by exactly the blackout windows.
func TestPowerUtilityOutageGolden(t *testing.T) {
	res, err := Runner{Trials: 2, Workers: 2}.Run(powerScenario())
	if err != nil {
		t.Fatal(err)
	}
	exact := func(name string, want float64) {
		t.Helper()
		if got := res.Metrics[name]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %.17g, want %.17g", name, got, want)
		}
	}
	exact("power_utility_outages", 9)
	exact("power_loss_events", 9)
	exact("power_ride_through_ok", 0)
	exact("power_generator_starts", 0)
	exact("availability", 1-81.0/1000)
	exact("pue", 1.5)
	// A blackout makes data unreachable, never destroys it: no loss, no
	// re-replication traffic.
	exact("loss_prob", 0)
	exact("repairs", 0)
	exact("zero_copy_fraction", 81.0/1000)
	if res.Metrics["energy_kwh"] <= 0 || res.Metrics["peak_kw"] <= 0 {
		t.Fatalf("energy accounting missing: %v kWh, %v kW",
			res.Metrics["energy_kwh"], res.Metrics["peak_kw"])
	}
	if res.Metrics["carbon_kg"] <= 0 {
		t.Fatal("carbon footprint missing")
	}
	// Facility energy = IT energy x PUE.
	if got, want := res.Metrics["energy_kwh"], res.Metrics["energy_it_kwh"]*1.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("energy_kwh = %v, want it x PUE = %v", got, want)
	}
	if _, ok := res.CI["energy_kwh"]; !ok {
		t.Error("no confidence interval for energy_kwh")
	}
}

// TestPowerRideThroughAndGenerator checks the two covered-outage
// outcomes end to end through the runner.
func TestPowerRideThroughAndGenerator(t *testing.T) {
	sc := powerScenario()
	sc.Power.UPSMinutes = 11 * 60 // battery outlasts every 10 h outage
	res, err := Runner{Trials: 1}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["power_ride_through_ok"] != 9 || res.Metrics["availability"] != 1 {
		t.Fatalf("ride-through run: %+v", res.Metrics)
	}

	sc = powerScenario()
	sc.Power.GeneratorStartProb = 1
	sc.Power.GeneratorStartHours = 0.5 // starts inside the 1 h battery
	res, err = Runner{Trials: 1}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["power_generator_starts"] != 9 || res.Metrics["availability"] != 1 {
		t.Fatalf("generator run: %+v", res.Metrics)
	}
}

// TestPowerCapTradeoff runs the same seeded scenario uncapped and with
// a 40% cap: the cap must cost availability (slower repairs), save
// energy, and lower the peak draw — the trade-off surface the power-cap
// scenario class exists to expose.
func TestPowerCapTradeoff(t *testing.T) {
	mk := func(capFraction float64) Scenario {
		sc := DefaultScenario()
		sc.Cluster.Racks = 2
		sc.Cluster.NodesPerRack = 5
		sc.Cluster.NICSpec = "nic-1g" // repair is bandwidth-bound
		sc.Cluster.NodeTTF = dist.Must(dist.ExpMean(400))
		sc.Cluster.NodeRepair = dist.Must(dist.NewDeterministic(12))
		sc.Users = 400
		sc.ObjectSizeMB = 4000
		sc.HorizonHours = 4000
		sc.Seed = 99
		sc.Power = power.Config{Enabled: true, CapFraction: capFraction}
		return sc
	}
	r := Runner{Trials: 4, CRN: true} // identical failure draws across the pair
	base, err := r.Run(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	capped, err := r.Run(mk(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if capped.Metrics["availability"] >= base.Metrics["availability"] {
		t.Errorf("cap did not cost availability: %v vs %v",
			capped.Metrics["availability"], base.Metrics["availability"])
	}
	if capped.Metrics["energy_kwh"] >= base.Metrics["energy_kwh"] {
		t.Errorf("cap did not save energy: %v vs %v",
			capped.Metrics["energy_kwh"], base.Metrics["energy_kwh"])
	}
	if capped.Metrics["peak_kw"] >= base.Metrics["peak_kw"] {
		t.Errorf("cap did not lower peak: %v vs %v",
			capped.Metrics["peak_kw"], base.Metrics["peak_kw"])
	}
	if capped.Metrics["repair_makespan"] <= base.Metrics["repair_makespan"] {
		t.Errorf("cap did not slow repairs: makespan %v vs %v",
			capped.Metrics["repair_makespan"], base.Metrics["repair_makespan"])
	}
}

// TestPowerDisabledLeavesDefaultPathUntouched: the default scenario
// must not grow power metrics (the golden byte-identity of the default
// trajectory is pinned separately in golden_test.go).
func TestPowerDisabledLeavesDefaultPathUntouched(t *testing.T) {
	res, err := Runner{Trials: 2}.Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	for name := range res.Metrics {
		if strings.HasPrefix(name, "power_") || strings.HasPrefix(name, "energy") ||
			name == "peak_kw" || name == "pue" || name == "carbon_kg" {
			t.Errorf("power metric %q present in a power-disabled run", name)
		}
	}
}

// TestPowerFingerprintSafety is the cache-staleness guard: every power
// field is output-determining, so every mutation must change the cache
// key (and the unchanged config must not). A missed field here means
// windtunneld would serve one power scenario's statistics for another.
func TestPowerFingerprintSafety(t *testing.T) {
	base := powerScenario()
	r := Runner{Trials: 4}
	k0 := CacheKey(base, r)
	if CacheKey(powerScenario(), r) != k0 {
		t.Fatal("cache key not deterministic for power scenarios")
	}

	muts := map[string]func(sc *Scenario){
		"enabled":         func(sc *Scenario) { sc.Power.Enabled = false },
		"pdus":            func(sc *Scenario) { sc.Power.PDUs = 2 },
		"pdu_spec":        func(sc *Scenario) { sc.Power.PDUSpec = "pdu-redundant" },
		"ups_spec":        func(sc *Scenario) { sc.Power.UPSSpec = "ups-240kva" },
		"utility_ttf":     func(sc *Scenario) { sc.Power.UtilityTTF = dist.Must(dist.NewDeterministic(200)) },
		"utility_repair":  func(sc *Scenario) { sc.Power.UtilityRepair = dist.Must(dist.NewDeterministic(20)) },
		"ups_minutes":     func(sc *Scenario) { sc.Power.UPSMinutes = 30 },
		"generator_prob":  func(sc *Scenario) { sc.Power.GeneratorStartProb = 0.9 },
		"generator_hours": func(sc *Scenario) { sc.Power.GeneratorStartHours = 0.25 },
		"idle_fraction":   func(sc *Scenario) { sc.Power.IdleFraction = 0.6 },
		"utilization":     func(sc *Scenario) { sc.Power.Utilization = 0.7 },
		"pue":             func(sc *Scenario) { sc.Power.PUE = 1.2 },
		"carbon":          func(sc *Scenario) { sc.Power.CarbonKgPerKWh = 0.1 },
		"cap":             func(sc *Scenario) { sc.Power.CapFraction = 0.2 },
		"cap_start":       func(sc *Scenario) { sc.Power.CapStartHours = 10 },
		"cap_duration":    func(sc *Scenario) { sc.Power.CapDurationHours = 100 },
	}
	seen := map[string]string{k0: "base"}
	for name, mut := range muts {
		sc := base
		mut(&sc)
		k := CacheKey(sc, r)
		if k == k0 {
			t.Errorf("mutating power field %q does not change the cache key — stale cache hits", name)
		}
		if prev, dup := seen[k]; dup && prev != "base" {
			t.Errorf("mutations %q and %q collide", name, prev)
		}
		seen[k] = name
	}
	if len(seen) != len(muts)+1 {
		t.Errorf("expected %d distinct keys, got %d", len(muts)+1, len(seen))
	}
}

// TestPowerExplorerCacheBitExact runs a power-cap sweep cold and warm
// against one trial cache: the warm results (energy metrics included)
// must be bit-exact.
func TestPowerExplorerCacheBitExact(t *testing.T) {
	space, err := design.NewSpace(design.Dimension{
		Name:   "cap",
		Values: []design.Value{float64(0), float64(0.3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	cache := &mapCache{}
	mk := func() *Explorer {
		return &Explorer{
			Space: space,
			Build: func(p design.Point) (Scenario, []sla.SLA, error) {
				sc := powerScenario()
				sc.Power.CapFraction = p.MustValue("cap").(float64)
				return sc, nil, nil
			},
			Runner: Runner{Trials: 3},
			Cache:  cache,
		}
	}
	cold, err := mk().RunPoints(context.Background(), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := mk().RunPoints(context.Background(), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != len(warm.Outcomes) {
		t.Fatalf("warm power sweep hit %d/%d", warm.CacheHits, len(warm.Outcomes))
	}
	for i := range cold.Outcomes {
		c, w := cold.Outcomes[i].Result, warm.Outcomes[i].Result
		if len(c.Metrics) != len(w.Metrics) {
			t.Fatalf("point %d: metric count differs cold vs warm", i)
		}
		for k, v := range c.Metrics {
			if w.Metrics[k] != v {
				t.Fatalf("point %d metric %s not bit-exact: cold %.17g warm %.17g", i, k, v, w.Metrics[k])
			}
		}
	}
}

// TestPowerFeasibilityScreen checks the analytic power-feasibility
// pass: a power budget below the facility's idle floor fails without
// simulation, a generous budget simulates, and with power enabled the
// availability bounds are never used to PASS.
func TestPowerFeasibilityScreen(t *testing.T) {
	sc := powerScenario()
	bounds, ok, err := AnalyticScreen(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("power-enabled scenario not screenable for feasibility")
	}
	if bounds.AvailValid {
		t.Fatal("availability bounds marked valid under power failures")
	}
	if bounds.PeakKWFloor <= 0 {
		t.Fatal("no power floor computed")
	}

	rule := ScreenRule{Margin: 0}
	tight, err := sla.NewPowerBudget(bounds.PeakKWFloor / 2)
	if err != nil {
		t.Fatal(err)
	}
	if dec := rule.Decide(bounds, []sla.SLA{tight}); dec != ScreenFail {
		t.Errorf("infeasible power budget screened %v, want fail", dec)
	}
	loose, err := sla.NewPowerBudget(bounds.PeakKWFloor * 10)
	if err != nil {
		t.Fatal(err)
	}
	if dec := rule.Decide(bounds, []sla.SLA{loose}); dec != ScreenSimulate {
		t.Errorf("feasible power budget screened %v, want simulate", dec)
	}
	avail := mustAvailability(t, 0.9)
	if dec := rule.Decide(bounds, []sla.SLA{avail}); dec != ScreenSimulate {
		t.Errorf("availability SLA under power screened %v, want simulate", dec)
	}
	// Margin deflates the floor: a budget just under the floor survives
	// a large margin.
	just, err := sla.NewPowerBudget(bounds.PeakKWFloor * 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if dec := (ScreenRule{Margin: 1}).Decide(bounds, []sla.SLA{just}); dec != ScreenSimulate {
		t.Errorf("margin-deflated floor screened %v, want simulate", dec)
	}
}
