package wtql

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

// sample is a value the parameter accepts, as WTQL text, that is not its
// default. Numbers come from the kind; a parameter that takes a name needs
// one that exists, so a row added to the table without a line here fails
// every test below.
func sample(t *testing.T, p *param) string {
	t.Helper()
	switch p.kind {
	case kindInt:
		return "7"
	case kindNumber:
		return "2.5"
	case kindFraction:
		return "0.25"
	case kindDist:
		return "'gamma(shape=2, scale=5)'"
	case kindBool:
		return "TRUE"
	}
	names := map[string]string{
		"disk.spec": "'ssd-nvme'", "net.nic": "'nic-40g'", "net.switch": "'switch-48p-1g'",
		"cpu.spec": "'cpu-16c'", "mem.spec": "'mem-128g'",
		"power.pdu_spec": "'pdu-redundant'", "power.ups_spec": "'ups-240kva'",
		"storage.scheme": "'rs-6-3'", "storage.placement": "'rackaware'", "repair.mode": "'serial'",
	}
	if names[p.name] == "" {
		t.Fatalf("no sample value for %s (%s): add one", p.name, p.kind)
	}
	return names[p.name]
}

// planned plans query on a fresh engine and returns the first point's
// scenario and key.
func planned(t *testing.T, query string) (core.Scenario, string, *Plan) {
	t.Helper()
	q, err := Parse(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	plan, err := (&Engine{}).Plan(q)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	keys, err := plan.PointKeys()
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	sc, err := plan.ex.Scenario(0)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	return sc, keys[0], plan
}

// TestScenarioFileMatchesQuery: for every parameter, the one-point query
// `SIMULATE availability WITH name = v` — what a scenario file used to
// say — plans what `VARY other WITH name = v` and `VARY name IN (v)` plan:
// the same scenario, field for field with its Name aside, and the same
// cache key. An execution setting says how a query runs, not where, so it
// cannot be varied.
func TestScenarioFileMatchesQuery(t *testing.T) {
	for i := range paramTable {
		p := &paramTable[i]
		text := sample(t, p)
		if p.setting != nil {
			q, err := Parse("SIMULATE availability VARY " + p.name + " IN (" + text + ")")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := (&Engine{}).Plan(q); err == nil || !strings.Contains(err.Error(), "cannot be varied") {
				t.Errorf("VARY %s: %v, want a refusal: it is an execution setting", p.name, err)
			}
			continue
		}
		point := "SIMULATE availability WITH " + p.name + " = " + text
		one, oneKey, _ := planned(t, point)
		other := "users IN (1000)" // a dimension that leaves the default where it is
		if p.name == "users" {
			other = "seed IN (1)"
		}
		for _, query := range []string{
			"SIMULATE availability VARY " + other + " WITH " + p.name + " = " + text,
			"SIMULATE availability VARY " + p.name + " IN (" + text + ")",
		} {
			sc, key, _ := planned(t, query)
			one.Name = sc.Name
			if !reflect.DeepEqual(one, sc) {
				t.Errorf("%s\n point: %+v\n query: %+v", query, one, sc)
			}
			if key != oneKey {
				t.Errorf("%s: the one-point key %s is not the query's %s", query, oneKey, key)
			}
		}
	}
}

// badValues is what a WITH may not say about a value, and the part of the
// complaint that tells the query's author where to look. A single size
// over its ceiling is TestWhatAQueryMayAskFor's; unknown names and varied
// execution settings are TestEngineRejectsBadQueries'.
var badValues = []struct{ with, want string }{
	{"cluster.racks = 'three'", "cluster.racks wants a non-negative integer"},
	{"node.ttf = 42", "node.ttf wants a distribution spec string"},
	{"power.enabled = 1", "power.enabled wants TRUE or FALSE"},
	{"users = 2.5", "users wants a non-negative integer"},
	{"disk.spec = 'warp-drive'", "disk.spec: "},
	{"power.utilization = 2", "power.utilization wants a number in [0, 1]"},
	{"power.pue = 0.5", "power.pue wants a number >= 1"},
	{"storage.scheme = 'raid5'", "storage.scheme: "},
	{"cluster.racks = 100000, cluster.nodes_per_rack = 100000", "over the ceiling of 1000000 nodes"},
	{"cluster.racks = 0", "need >= 1 rack"}, // a present 0 is applied, not skipped
	{"power.utility_ttf = 'exp(mean=2000)'", "UtilityTTF and UtilityRepair must both be set"},
}

// TestOnePointRefusesBadValues: a one-point query is outside input, as a
// scenario file was. Whatever its WITH gets wrong about a value is an
// error that says where to look, found before a trial runs — and a value
// that is present is applied even when it is 0.
func TestOnePointRefusesBadValues(t *testing.T) {
	for _, c := range badValues {
		_, err := (&Engine{Trials: 1}).Execute("SIMULATE availability WITH " + c.with)
		if err == nil {
			t.Errorf("WITH %s: accepted", c.with)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("WITH %s: error %q does not say %q", c.with, err, c.want)
		}
	}

	sc, _, _ := planned(t, "SIMULATE availability WITH repair.detection = 'det(2)', repair.detection_hours = 0, seed = 0, object_mb = 0, power.cap = 0")
	if sc.Repair.Detection != nil || sc.Seed != 0 || sc.ObjectSizeMB != 0 || !sc.Power.Enabled {
		t.Errorf("a 0 was not applied: detection %v, seed %d, object_mb %v, power enabled %t",
			sc.Repair.Detection, sc.Seed, sc.ObjectSizeMB, sc.Power.Enabled)
	}
}

// TestEveryParamMovesTheCacheKey generalises core's
// TestPowerFingerprintSafety from the power knobs to every row: assigning
// any scenario parameter a value other than its default changes
// core.CacheKey, so a row added without its field in the key can never
// serve one design's statistics for another's. (The base has power on for
// the power.* rows, so each must move the key by its own field, not by
// switching the subsystem on.) Execution settings move the key exactly
// when they can move a trial's statistics.
func TestEveryParamMovesTheCacheKey(t *testing.T) {
	runner := core.Runner{Trials: 5}
	inKey := map[string]bool{
		"trials": true, "crn": true, "antithetic": true, "failure_bias": true,
		// Runs are bit-identical for any worker count, and a screened point
		// never reaches the cache.
		"workers": false, "screen": false, "screen_margin": false,
	}
	for i := range paramTable {
		p := &paramTable[i]
		text := sample(t, p)
		if p.setting != nil {
			moves, listed := inKey[p.name]
			if !listed {
				t.Errorf("execution setting %s: say whether it belongs in the cache key", p.name)
			}
			_, base, _ := planned(t, "SIMULATE availability VARY users IN (1000)")
			_, key, _ := planned(t, "SIMULATE availability VARY users IN (1000) WITH "+p.name+" = "+text)
			if (key != base) != moves {
				t.Errorf("WITH %s = %s: key moved = %t, want %t", p.name, text, key != base, moves)
			}
			continue
		}
		base := core.DefaultScenario()
		base.Power.Enabled = p.name != "power.enabled" && strings.HasPrefix(p.name, "power.")
		q, err := Parse("SIMULATE availability VARY users IN (1) WITH " + p.name + " = " + text)
		if err != nil {
			t.Fatal(err)
		}
		sc := base
		if err := p.assign(&sc, nil, q.With[0].Value); err != nil {
			t.Fatal(err)
		}
		if core.CacheKey(sc, runner) == core.CacheKey(base, runner) {
			t.Errorf("%s = %s does not change core.CacheKey: two designs would share one cache entry", p.name, text)
		}
	}
}

// TestWhatAQueryMayAskFor: a size a query names is refused above its
// ceiling when the query is planned, in an error that names the parameter
// and the ceiling — and a number that does not fit an int is refused, not
// wrapped around to a negative one.
func TestWhatAQueryMayAskFor(t *testing.T) {
	for with, want := range map[string]string{
		"users = 1e10":                                "users = 1e+10 is over the ceiling of 10000000",
		"users = 10000001":                            "users = 1.0000001e+07 is over the ceiling of 10000000",
		"cluster.racks = 1e30":                        "cluster.racks = 1e+30 is over the ceiling of 1000000",
		"cluster.nodes_per_rack = 1e7":                "cluster.nodes_per_rack = 1e+07 is over the ceiling of 1000000",
		"cluster.nodes = 1e7":                         "cluster.nodes = 1e+07 is over the ceiling of 1000000",
		"disk.per_node = 1025":                        "disk.per_node = 1025 is over the ceiling of 1024",
		"trials = 1e9":                                "trials = 1e+09 is over the ceiling of 10000000",
		"storage.replication = 1e10":                  "storage.replication = 1e+10 is over the ceiling of 2147483647",
		"repair.concurrency = 3e9":                    "repair.concurrency = 3e+09 is over the ceiling of 2147483647",
		"workers = 1e19":                              "workers = 1e+19 is over the ceiling of 2147483647",
		"seed = 1e16":                                 "seed = 1e+16 is over the ceiling of 9007199254740992",
		"storage.scheme = 'rs-4294967296-4294967296'": "is not 'rep-N' or 'rs-K-M'",
	} {
		q, err := Parse("SIMULATE availability VARY storage.placement IN ('random') WITH " + with)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (&Engine{}).Plan(q); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("WITH %s: %v, want an error saying %q", with, err, want)
		}
	}
	// At the ceiling is fine.
	planned(t, "SIMULATE availability VARY users IN (10000000) WITH cluster.racks = 1000000, cluster.nodes_per_rack = 1, trials = 10000000, seed = 9007199254740992")

	// Six short lists multiply to 15 625 000 points: refused when planned,
	// before the space is enumerated.
	list := "1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25"
	q, err := Parse("SIMULATE availability VARY users IN (" + list + "), seed IN (" + list + "), cluster.racks IN (" + list +
		"), cluster.nodes_per_rack IN (" + list + "), disk.per_node IN (" + list + ")")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Engine{}).Plan(q); err == nil || !strings.Contains(err.Error(), "ceiling of 100000 design points") {
		t.Errorf("a 9.7 M-point space: %v, want a refusal naming the ceiling", err)
	}

	// A WHERE nested deeper than the parser will follow is a parse error.
	deep := "SIMULATE availability VARY users IN (1) WHERE " + strings.Repeat("(", 100000) + "a = 1" + strings.Repeat(")", 100000)
	if _, err := Parse(deep); err == nil || !strings.Contains(err.Error(), "nests deeper than 200") {
		t.Errorf("100 000 open parentheses: %v", err)
	}
	if _, err := Parse("SIMULATE availability VARY users IN (1) WHERE " + strings.Repeat("NOT ", 100000) + "a = 1"); err == nil {
		t.Error("100 000 NOTs parsed")
	}
	nested := "SIMULATE availability VARY users IN (1) WHERE " + strings.Repeat("NOT (", 90) + "a = 1" + strings.Repeat(")", 90)
	if _, err := Parse(nested); err != nil {
		t.Errorf("90 levels of NOT (…): %v", err)
	}
}

// TestPlanAllocations: the table costs a point what the map of closures
// did — one lookup and one call per assignment, nothing allocated by
// either. For bench/'s 8-point warm query, 7ca0849 allocated 39 times in
// Engine.Plan, 78 times to plan and build every point's scenario, and 93
// times to plan and key them (Plan.PointKeys).
func TestPlanAllocations(t *testing.T) {
	q, err := Parse(serveWarmQuery)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{TrialWorkers: 1}
	for _, c := range []struct {
		what   string
		parent float64
		then   func(*Plan) error
	}{
		{"Engine.Plan", 39, func(*Plan) error { return nil }},
		{"Engine.Plan + every point built", 78, func(p *Plan) (err error) {
			for i := 0; i < p.NumPoints() && err == nil; i++ {
				_, err = p.ex.Scenario(i)
			}
			return err
		}},
		// Keying borrows a buffer from a sync.Pool, which under the race
		// detector drops one at random: at most one more allocation a key.
		{"Engine.Plan + Plan.PointKeys", 93 + 8, func(p *Plan) error { _, err := p.PointKeys(); return err }},
	} {
		got := testing.AllocsPerRun(100, func() {
			plan, err := e.Plan(q)
			if err == nil {
				err = c.then(plan)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		if got > c.parent {
			t.Errorf("%s allocates %.0f times, want <= %.0f", c.what, got, c.parent)
		}
	}
}

// defaultOf renders what a parameter is when nothing sets it, for the
// rows whose value lives in one field; "" for the rest.
func defaultOf(p *param) string {
	var at any
	switch {
	case p.field != nil:
		sc := core.DefaultScenario()
		at = p.field(&sc)
	case p.setting != nil:
		q, _ := Parse("SIMULATE availability VARY users IN (1)")
		plan, _ := (&Engine{}).Plan(q)
		st := settings{trials: plan.runner.Trials, screenMargin: core.DefaultScreenMargin}
		at = p.setting(&st)
	default:
		return ""
	}
	switch v := reflect.ValueOf(at).Elem().Interface().(type) {
	case string:
		return "'" + v + "'"
	case bool:
		return strings.ToUpper(fmt.Sprint(v))
	case dist.Dist:
		return "'" + v.String() + "'"
	case nil:
		return "none"
	default:
		return fmt.Sprint(v)
	}
}

// TestREADMEListsEveryParameter: README's "Parameters" section is the
// table, written out. Same names, in the same order, with the same kinds
// and the same one-line meanings — and, for every parameter that is one
// field, the default that core.DefaultScenario (or a fresh Engine) really
// has.
func TestREADMEListsEveryParameter(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Parameters\n")
	if !ok {
		t.Fatal(`README.md has no "## Parameters" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	row := regexp.MustCompile("(?m)^\\| `([a-z_.]+)` \\| ([a-z]+) \\| (.*?) \\| (.+) \\|$")
	rows := row.FindAllStringSubmatch(section, -1)
	for i, m := range rows {
		if i >= len(paramTable) {
			t.Errorf("README lists %s, which the table does not have", m[1])
			continue
		}
		p := &paramTable[i]
		if m[1] != p.name || m[2] != string(p.kind) {
			t.Errorf("README row %d is %s (%s), the table's is %s (%s)", i+1, m[1], m[2], p.name, p.kind)
		}
		if def := defaultOf(p); def != "" && strings.Trim(m[3], "`") != def {
			t.Errorf("README says %s defaults to %s, it defaults to %s", p.name, m[3], def)
		}
		if m[4] != p.doc {
			t.Errorf("README says %s is %q, the table says %q", p.name, m[4], p.doc)
		}
	}
	if len(rows) < len(paramTable) {
		t.Errorf("README lists %d parameters, the table has %d: %s is missing", len(rows), len(paramTable), paramTable[len(rows)].name)
	}
}

// FuzzParse: arbitrary text through Parse never panics or hangs. What
// parses is planned and keyed — never simulated — and either plans or is
// refused: no panic, no size wrapped around to a negative number, nothing
// above a ceiling that Scenario.Validate and the Runner would not refuse
// before building a world. Seeded with every query in the repository's
// tests, README, CI and bench/workloads.go's rendered workloads
// (testdata/plans_7ca0849.ndjson is that list) and the two new parameters.
func FuzzParse(f *testing.F) {
	for _, p := range pinnedPlans(f) {
		f.Add(p[0])
	}
	f.Add("SIMULATE availability VARY storage.scheme IN ('rep-3', 'rs-6-3', 'rs-10-4') WITH net.switch = 'switch-48p-1g' ORDER BY storage.overhead")
	f.Add("SIMULATE availability VARY users IN (1e10, 5) WITH cluster.racks = 1e30, trials = 1e9")
	f.Add("SET explore.screen = on, runner.failure_bias = 3;")
	f.Fuzz(func(t *testing.T, text string) {
		q, err := Parse(text)
		if err != nil {
			return
		}
		plan, err := (&Engine{}).Plan(q)
		if err != nil {
			return
		}
		if plan.NumPoints() > maxPoints || plan.Trials() < 0 || plan.Trials() > core.MaxTrials || plan.ex.Workers < 0 {
			t.Fatalf("planned %d points, %d trials, %d workers", plan.NumPoints(), plan.Trials(), plan.ex.Workers)
		}
		keys, err := plan.PointKeys()
		if err != nil {
			return
		}
		for i := range keys {
			sc, err := plan.ex.Scenario(i)
			if err != nil {
				t.Fatalf("point %d keyed but not built: %v", i, err)
			}
			c := sc.Cluster
			if c.Racks < 0 || c.Racks > core.MaxNodes || c.NodesPerRack < 0 || c.NodesPerRack > core.MaxNodes ||
				c.DisksPerNode < 0 || c.DisksPerNode > core.MaxDisksPerNode || sc.Users < 0 || sc.Users > core.MaxUsers ||
				sc.Scheme.Width() < 0 || sc.Repair.MaxConcurrent < 0 || sc.Power.PDUs < 0 {
				t.Fatalf("point %d: a size is out of bounds: %+v", i, sc)
			}
			if sc.Validate() == nil && (c.Racks*c.NodesPerRack > core.MaxNodes ||
				c.Racks*c.NodesPerRack*c.DisksPerNode > core.MaxDisks || sc.Users*sc.Scheme.Width() > core.MaxShards) {
				t.Fatalf("point %d validates above a ceiling: %+v", i, sc)
			}
		}
	})
}
