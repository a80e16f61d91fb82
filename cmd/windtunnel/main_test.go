package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/repair"
	"repro/internal/wtql"
)

// fromFile reads raw as a scenario file.
func fromFile(raw string) (core.Scenario, error) {
	return readScenario(strings.NewReader(raw))
}

func TestScenarioSpecDefaults(t *testing.T) {
	sc, err := fromFile(`{}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("default overlay invalid: %v", err)
	}
}

func TestScenarioSpecOverlay(t *testing.T) {
	sc, err := fromFile(`{
	  "cluster.racks": 2, "cluster.nodes_per_rack": 4,
	  "disk.spec": "ssd-sata", "disk.per_node": 2,
	  "net.nic": "nic-40g",
	  "node.mttf_hours": 5000, "node.repair_hours": 8,
	  "users": 250, "object_mb": 64,
	  "storage.scheme": "rs-6-3",
	  "storage.placement": "rackaware",
	  "repair.mode": "serial",
	  "repair.detection_hours": 2,
	  "horizon_hours": 4000, "seed": 9
	}`)
	if err != nil {
		t.Fatal(err)
	}
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
	// The MTTF overlay must preserve the requested mean.
	mean := sc.Cluster.NodeTTF.Mean()
	if mean < 4999 || mean > 5001 {
		t.Errorf("node TTF mean = %v, want 5000", mean)
	}
}

func TestScenarioSpecRejectsBadRepairMode(t *testing.T) {
	if _, err := fromFile(`{"repair.mode": "psychic"}`); err == nil {
		t.Error("unknown repair mode accepted")
	}
}

func TestScenarioSpecReplicationOverlay(t *testing.T) {
	sc, err := fromFile(`{"storage.replication": 5}`)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Scheme.String() != "rep-5" {
		t.Errorf("scheme = %v, want rep-5", sc.Scheme)
	}
}

func TestScenarioSpecDistOverrides(t *testing.T) {
	// Keys apply in file order, as a WITH list does: a spec string after
	// the *_hours shorthand for the same distribution replaces it.
	sc, err := fromFile(`{
	  "node.mttf_hours": 5000,
	  "node.ttf": "weibull(shape=0.7, scale=8760)",
	  "node.repair": "mix(0.8*lognormal(mean=4, cv=1), 0.2*det(48))",
	  "repair.detection_hours": 5,
	  "repair.detection": "det(2)"
	}`)
	if err != nil {
		t.Fatal(err)
	}
	// The explicit spec string must win over node.mttf_hours.
	want := 8760 * math.Gamma(1+1/0.7)
	if got := sc.Cluster.NodeTTF.Mean(); math.Abs(got-want) > 1e-6 {
		t.Errorf("node TTF mean = %v, want %v (spec string should win)", got, want)
	}
	// 0.8 * 4 + 0.2 * 48 = 12.8 hours.
	if got := sc.Cluster.NodeRepair.Mean(); math.Abs(got-12.8) > 1e-9 {
		t.Errorf("node repair mean = %v, want 12.8", got)
	}
	// The detection spec string wins over repair.detection_hours too.
	if got := sc.Repair.Detection.Mean(); got != 2 {
		t.Errorf("detection mean = %v, want 2 (spec string should win over repair.detection_hours)", got)
	}
	// Bad specs are rejected when the file is read.
	for _, bad := range []string{
		`{"node.ttf": "frechet(1, 2)"}`,
		`{"node.repair": "weibull(shape=0)"}`,
		`{"repair.detection": "det("}`,
		`{"node.ttf": 42}`,
	} {
		if _, err := fromFile(bad); err == nil {
			t.Errorf("bad spec %s accepted", bad)
		}
	}
}

func TestScenarioSpecPowerOverlay(t *testing.T) {
	sc, err := fromFile(`{
	  "cluster.racks": 4,
	  "power.pdus": 2, "power.pdu_spec": "pdu-redundant", "power.ups_spec": "ups-240kva",
	  "power.utility_ttf": "exp(mean=2000)", "power.utility_repair": "det(4)",
	  "power.ups_minutes": 15, "power.generator_start_prob": 0.95, "power.generator_start_hours": 0.2,
	  "power.pue": 1.4, "power.carbon_intensity": 0.3,
	  "power.cap": 0.2, "power.cap_start_hours": 100, "power.cap_duration_hours": 50
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	p := sc.Power
	if !p.Enabled {
		t.Fatal("power keys did not enable the subsystem")
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

	// An explicit "power.enabled": false after them keeps the settings inert.
	sc, err = fromFile(`{"power.pdus": 2, "power.enabled": false}`)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Power.Enabled || sc.Power.PDUs != 2 {
		t.Errorf("enabled: false ignored, or took the settings with it: %+v", sc.Power)
	}
	// In file order: a power key after it turns the subsystem back on.
	if sc, err = fromFile(`{"power.enabled": false, "power.pdus": 2}`); err != nil || !sc.Power.Enabled {
		t.Errorf("a power key after enabled: false left the subsystem off (err %v)", err)
	}

	// No power keys: subsystem stays off.
	sc, err = fromFile(`{}`)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Power.Enabled {
		t.Error("power enabled without a power key")
	}

	// Invalid power values fail when the file is read.
	if _, err := fromFile(`{"power.cap": 1.5}`); err == nil {
		t.Error("cap 1.5 passed validation")
	}
}

// strictCases is what a scenario file may not say, and the part of the
// complaint that tells its author where to look.
var strictCases = []struct{ name, file, want string }{
	{"old-schema key", `{"racks": 3}`, `unknown parameter "racks" (README's "Parameters" section`},
	{"typo", `{"replicaton": 5}`, `"replicaton"`},
	{"execution setting", `{"trials": 5}`, `"trials" says how a query is run`},
	{"string for an int", `{"cluster.racks": "three"}`, `cluster.racks wants a non-negative integer`},
	{"number for a dist", `{"node.ttf": 42}`, `node.ttf wants a distribution spec string`},
	{"number for a bool", `{"power.enabled": 1}`, `power.enabled wants TRUE or FALSE`},
	{"fractional int", `{"users": 2.5}`, `users wants a non-negative integer`},
	{"null", `{"users": null}`, `users wants a non-negative integer, got <nil>`},
	{"duplicate key", `{"users": 10, "seed": 3, "users": 20}`, `"users" is set twice`},
	{"nested object", `{"power": {"cap": 0.2}}`, `"power" holds a nested value`},
	{"nested array", `{"cluster.racks": [3]}`, `"cluster.racks" holds a nested value`},
	{"second object", `{"users": 10} {"users": 20}`, `trailing data after the object, at byte 15`},
	{"trailing junk", `{"users": 10} x`, `trailing data after the object`},
	{"array", `[{"users": 10}]`, `want one JSON object`},
	{"bare value", `3`, `want one JSON object`},
	{"empty", ``, `want one JSON object`},
	{"unclosed", `{"users": 10`, `at byte 12`},
	{"no value", `{"users": }`, `"users", at byte`},
	{"unknown spec", `{"disk.spec": "warp-drive"}`, `disk.spec: `},
	{"fraction out of range", `{"power.utilization": 2}`, `power.utilization wants a number in [0, 1]`},
	{"pue below 1", `{"power.pue": 0.5}`, `power.pue wants a number >= 1`},
	{"bad scheme", `{"storage.scheme": "raid5"}`, `storage.scheme: `},
	{"over a ceiling", `{"users": 1e10}`, `users = 1e+10 is over the ceiling of 10000000`},
	{"does not fit an int", `{"repair.concurrency": 1e30}`, `repair.concurrency = 1e+30 is over the ceiling of 2147483647`},
	{"number out of range", `{"users": 1e999}`, `"users", at byte`},
	{"over a ceiling together", `{"cluster.racks": 100000, "cluster.nodes_per_rack": 100000}`, `over the ceiling of 1000000 nodes`},
	{"zero is applied, not skipped", `{"cluster.racks": 0}`, `need >= 1 rack`},
	{"half a utility feed", `{"power.utility_ttf": "exp(mean=2000)"}`, `UtilityTTF and UtilityRepair must both be set`},
	{"over 1 MB", `{"users": 10` + strings.Repeat(" ", maxScenarioFile) + `}`, `larger than 1048576 bytes`},
}

// TestScenarioFileStrict: a scenario file is outside input. Whatever it
// gets wrong is an error that names the key (or the byte), found before
// anything runs — and a key that is present is applied even when its value
// is 0.
func TestScenarioFileStrict(t *testing.T) {
	for _, c := range strictCases {
		_, err := fromFile(c.file)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not say %q", c.name, err, c.want)
		}
	}

	sc, err := fromFile(`{"repair.detection": "det(2)", "repair.detection_hours": 0, "seed": 0, "object_mb": 0, "power.cap": 0}`)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Repair.Detection != nil || sc.Seed != 0 || sc.ObjectSizeMB != 0 || !sc.Power.Enabled {
		t.Errorf("a 0 in the file was not applied: detection %v, seed %d, object_mb %v, power enabled %t",
			sc.Repair.Detection, sc.Seed, sc.ObjectSizeMB, sc.Power.Enabled)
	}
}

// TestScenarioFileMatchesQuery: "node MTTF 500 h, repair 24 h" means one
// failure model. The file and the query that say it in the same words get
// the same content address, so the same simulation — and it is the key
// wtql gave the query before the file learned WTQL's names (the file's old
// node_mttf_hours was a Weibull, its node_repair_hours a LogNormal).
// internal/wtql's test of the same name covers every parameter.
func TestScenarioFileMatchesQuery(t *testing.T) {
	sc, err := fromFile(`{
	  "cluster.racks": 1, "cluster.nodes_per_rack": 8, "users": 50, "horizon_hours": 2000,
	  "seed": 7, "node.mttf_hours": 500, "node.repair_hours": 24
	}`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := wtql.Parse(`SIMULATE availability VARY seed IN (7)
		WITH cluster.racks = 1, cluster.nodes_per_rack = 8, users = 50, horizon_hours = 2000,
		     node.mttf_hours = 500, node.repair_hours = 24`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (&wtql.Engine{Trials: 20}).Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := plan.PointKeys()
	if err != nil {
		t.Fatal(err)
	}
	const at7ca0849 = "7ed11d4d3d7728b93398dab32e49c68b8276371d7874b6792cf8d8756ebed35f"
	if got := core.CacheKey(sc, core.Runner{Trials: 20}); got != keys[0] || got != at7ca0849 {
		t.Errorf("file's key  %s\nquery's key %s\nat 7ca0849  %s", got, keys[0], at7ca0849)
	}
}

// FuzzScenarioFile: arbitrary bytes through the file reader give an error
// or a scenario that validates and is within every ceiling — never a
// panic, a wrapped-around size or a scenario only the allocator can refuse.
func FuzzScenarioFile(f *testing.F) {
	for _, c := range strictCases[:len(strictCases)-1] { // not the 1 MB one
		f.Add([]byte(c.file))
	}
	f.Add([]byte(`{"cluster.racks": 3, "storage.scheme": "rs-6-3", "node.ttf": "weibull(shape=0.7, scale=8760)", "power.cap": 0.2}`))
	f.Add([]byte(`{"cluster.nodes": 12, "storage.replication": 5, "repair.mode": "serial", "power.enabled": false, "seed": 0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := readScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("read without error, but: %v", err)
		}
		c := sc.Cluster
		if c.Racks < 1 || c.NodesPerRack < 1 || c.Racks*c.NodesPerRack > core.MaxNodes ||
			c.DisksPerNode < 1 || c.DisksPerNode > core.MaxDisksPerNode ||
			sc.Users < 1 || sc.Users > core.MaxUsers || sc.Scheme.Width() < 1 || sc.Scheme.Width() > core.MaxShards ||
			sc.Repair.MaxConcurrent < 0 || sc.Power.PDUs < 0 {
			t.Fatalf("a size is out of bounds: %+v", sc)
		}
	})
}
