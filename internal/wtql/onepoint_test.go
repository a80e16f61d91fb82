package wtql

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/repair"
)

// A one-point query — `SIMULATE availability WITH ...` and no VARY — is
// the one way to describe a single design. These tests are what a JSON
// scenario file was held to, said as queries.

// TestOnePointKeyAt7ca0849: "node MTTF 500 h, repair 24 h" means one
// failure model. The one-point query that says it has the key
// `VARY seed IN (7)` had at 7ca0849, before scenario files learned WTQL's
// names (a file's old node_mttf_hours was a Weibull, its
// node_repair_hours a LogNormal, and the two front ends disagreed).
func TestOnePointKeyAt7ca0849(t *testing.T) {
	_, key, _ := planned(t, `SIMULATE availability
		WITH cluster.racks = 1, cluster.nodes_per_rack = 8, users = 50, horizon_hours = 2000,
		     seed = 7, node.mttf_hours = 500, node.repair_hours = 24, trials = 20`)
	const at7ca0849 = "7ed11d4d3d7728b93398dab32e49c68b8276371d7874b6792cf8d8756ebed35f"
	if key != at7ca0849 {
		t.Errorf("one-point key %s\nat 7ca0849     %s", key, at7ca0849)
	}
}

// TestOnePointOverlay: every value of a WITH list lands on its field.
func TestOnePointOverlay(t *testing.T) {
	sc, _, _ := planned(t, `SIMULATE availability WITH
		cluster.racks = 2, cluster.nodes_per_rack = 4,
		disk.spec = 'ssd-sata', disk.per_node = 2,
		net.nic = 'nic-40g',
		node.mttf_hours = 5000, node.repair_hours = 8,
		users = 250, object_mb = 64,
		storage.scheme = 'rs-6-3',
		storage.placement = 'rackaware',
		repair.mode = 'serial',
		repair.detection_hours = 2,
		horizon_hours = 4000, seed = 9`)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if sc.Cluster.Racks != 2 || sc.Cluster.NodesPerRack != 4 {
		t.Errorf("cluster shape %dx%d", sc.Cluster.Racks, sc.Cluster.NodesPerRack)
	}
	if sc.Cluster.DiskSpec != "ssd-sata" || sc.Cluster.NICSpec != "nic-40g" {
		t.Errorf("specs not applied: %s/%s", sc.Cluster.DiskSpec, sc.Cluster.NICSpec)
	}
	if sc.Scheme.String() != "rs-6-3" {
		t.Errorf("scheme = %v, want rs-6-3", sc.Scheme)
	}
	if sc.Placement != "rackaware" {
		t.Errorf("placement = %s", sc.Placement)
	}
	if sc.Repair.Mode != repair.Serial {
		t.Errorf("repair mode = %v", sc.Repair.Mode)
	}
	if sc.Repair.Detection == nil {
		t.Error("detection not applied")
	}
	if sc.HorizonHours != 4000 || sc.Seed != 9 {
		t.Errorf("horizon/seed = %v/%v", sc.HorizonHours, sc.Seed)
	}
	// The MTTF shorthand must preserve the requested mean.
	if mean := sc.Cluster.NodeTTF.Mean(); mean < 4999 || mean > 5001 {
		t.Errorf("node TTF mean = %v, want 5000", mean)
	}
}

func TestOnePointRejectsBadRepairMode(t *testing.T) {
	if _, err := (&Engine{Trials: 1}).Execute("SIMULATE availability WITH repair.mode = 'psychic'"); err == nil || !strings.Contains(err.Error(), "repair.mode") {
		t.Errorf("unknown repair mode: %v, want a refusal naming repair.mode", err)
	}
}

func TestOnePointReplicationOverlay(t *testing.T) {
	if sc, _, _ := planned(t, "SIMULATE availability WITH storage.replication = 5"); sc.Scheme.String() != "rep-5" {
		t.Errorf("scheme = %v, want rep-5", sc.Scheme)
	}
}

// TestOnePointDistOverrides: a WITH list applies in the order written, so
// a spec string after the *_hours shorthand for the same distribution
// replaces it; a bad spec is refused before a trial runs.
func TestOnePointDistOverrides(t *testing.T) {
	sc, _, _ := planned(t, `SIMULATE availability WITH node.mttf_hours = 5000, node.ttf = 'weibull(shape=0.7, scale=8760)',
		node.repair = 'mix(0.8*lognormal(mean=4, cv=1), 0.2*det(48))', repair.detection_hours = 5, repair.detection = 'det(2)'`)
	if got, want := sc.Cluster.NodeTTF.Mean(), 8760*math.Gamma(1+1/0.7); math.Abs(got-want) > 1e-6 {
		t.Errorf("node TTF mean = %v, want %v: the spec string after node.mttf_hours wins", got, want)
	}
	if got := sc.Cluster.NodeRepair.Mean(); math.Abs(got-12.8) > 1e-9 { // 0.8*4 + 0.2*48
		t.Errorf("node repair mean = %v, want 12.8", got)
	}
	if got := sc.Repair.Detection.Mean(); got != 2 {
		t.Errorf("detection mean = %v, want 2: the spec string after repair.detection_hours wins", got)
	}
	for _, bad := range []string{
		"node.ttf = 'frechet(1, 2)'",
		"node.repair = 'weibull(shape=0)'",
		"repair.detection = 'det('",
		"node.ttf = 42",
	} {
		if _, err := (&Engine{Trials: 1}).Execute("SIMULATE availability WITH " + bad); err == nil {
			t.Errorf("bad spec %s accepted", bad)
		}
	}
}

// TestOnePointPowerOverlay: any power.* value switches the power
// subsystem on and lands on its field; power.enabled = FALSE keeps the
// settings written before it inert, and a power.* value after it turns
// the subsystem back on.
func TestOnePointPowerOverlay(t *testing.T) {
	sc, _, _ := planned(t, `SIMULATE availability WITH
		cluster.racks = 4,
		power.pdus = 2, power.pdu_spec = 'pdu-redundant', power.ups_spec = 'ups-240kva',
		power.utility_ttf = 'exp(mean=2000)', power.utility_repair = 'det(4)',
		power.ups_minutes = 15, power.generator_start_prob = 0.95, power.generator_start_hours = 0.2,
		power.pue = 1.4, power.carbon_intensity = 0.3,
		power.cap = 0.2, power.cap_start_hours = 100, power.cap_duration_hours = 50`)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	p := sc.Power
	if !p.Enabled {
		t.Fatal("power values did not enable the subsystem")
	}
	if p.PDUs != 2 || p.PDUSpec != "pdu-redundant" || p.UPSSpec != "ups-240kva" {
		t.Errorf("hierarchy fields: %+v", p)
	}
	if p.UtilityTTF == nil || p.UtilityTTF.Mean() != 2000 || p.UtilityRepair.Mean() != 4 {
		t.Errorf("utility dists: %+v", p)
	}
	if p.UPSMinutes != 15 || p.GeneratorStartProb != 0.95 || p.GeneratorStartHours != 0.2 {
		t.Errorf("ride-through fields: %+v", p)
	}
	if p.PUE != 1.4 || p.CarbonKgPerKWh != 0.3 {
		t.Errorf("energy fields: %+v", p)
	}
	if p.CapFraction != 0.2 || p.CapStartHours != 100 || p.CapDurationHours != 50 {
		t.Errorf("cap fields: %+v", p)
	}

	if sc, _, _ = planned(t, "SIMULATE availability WITH power.pdus = 2, power.enabled = FALSE"); sc.Power.Enabled || sc.Power.PDUs != 2 {
		t.Errorf("power.enabled = FALSE last was ignored, or took the settings with it: %+v", sc.Power)
	}
	if sc, _, _ = planned(t, "SIMULATE availability WITH power.enabled = FALSE, power.pdus = 2"); !sc.Power.Enabled {
		t.Error("a power.* value after power.enabled = FALSE left the subsystem off")
	}
	if sc, _, _ = planned(t, "SIMULATE availability"); sc.Power.Enabled {
		t.Error("power enabled without a power.* value")
	}
	if _, err := (&Engine{Trials: 1}).Execute("SIMULATE availability WITH power.cap = 1.5"); err == nil {
		t.Error("cap 1.5 passed validation")
	}
}

// FuzzOnePoint: arbitrary text as the WITH list of a one-point query
// plans to exactly one point, or is refused; a point that validates is
// within every ceiling — never a panic, a wrapped-around size or a
// scenario only the allocator can refuse. Nothing is simulated.
func FuzzOnePoint(f *testing.F) {
	for _, c := range badValues {
		f.Add(c.with)
	}
	f.Add("cluster.racks = 3, storage.scheme = 'rs-6-3', node.ttf = 'weibull(shape=0.7, scale=8760)', power.cap = 0.2")
	f.Add("cluster.nodes = 12, storage.replication = 5, repair.mode = 'serial', power.enabled = FALSE, seed = 0")
	f.Fuzz(func(t *testing.T, with string) {
		q, err := Parse("SIMULATE availability WITH " + with)
		if err != nil || len(q.Vary) > 0 {
			return
		}
		plan, err := (&Engine{}).Plan(q)
		if err != nil {
			return
		}
		if plan.NumPoints() != 1 {
			t.Fatalf("a query without VARY planned %d points", plan.NumPoints())
		}
		sc, err := plan.ex.Scenario(0)
		if err != nil || sc.Validate() != nil {
			return
		}
		c := sc.Cluster
		if c.Racks < 1 || c.NodesPerRack < 1 || c.Racks*c.NodesPerRack > core.MaxNodes ||
			c.DisksPerNode < 1 || c.DisksPerNode > core.MaxDisksPerNode ||
			sc.Users < 1 || sc.Users > core.MaxUsers || sc.Scheme.Width() < 1 || sc.Scheme.Width() > core.MaxShards ||
			sc.Repair.MaxConcurrent < 0 || sc.Power.PDUs < 0 {
			t.Fatalf("validates, but a size is out of bounds: %+v", sc)
		}
	})
}
