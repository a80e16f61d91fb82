package wtql

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
)

// serveWarmQuery is the shape bench/'s serve_warm workload sends: an
// 8-point sweep, two trials a point, a WHERE the rows pass and an ORDER BY.
const serveWarmQuery = `SIMULATE availability
VARY storage.replication IN (2, 3), cluster.nodes_per_rack IN (4, 6), storage.placement IN ('random', 'roundrobin')
WITH cluster.racks = 2, users = 20, object_mb = 10, trials = 2, horizon_hours = 200,
     node.ttf = 'exp(mean=500)', node.repair = 'det(12)', seed = 1000
WHERE sla.availability >= 0.9 ORDER BY cost.total ASC`

// warmPlan plans serveWarmQuery on eng and runs it once, returning the
// plan and its committed outcomes — what a warm daemon assembles from.
func warmPlan(t testing.TB, eng *Engine) (*Plan, []core.PointOutcome) {
	t.Helper()
	q, err := Parse(serveWarmQuery)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	var outcomes []core.PointOutcome
	err = plan.RunSubset(context.Background(), []int{0, 1, 2, 3, 4, 5, 6, 7},
		func(out core.PointOutcome) { outcomes = append(outcomes, out) })
	if err != nil {
		t.Fatal(err)
	}
	return plan, outcomes
}

// TestAssembleWarmAllocs pins what assembling a warm 8-point result costs.
// At the parent commit (be31c54) Assemble allocated 480 times for this
// query: a whole hardware.DefaultCatalog() — eighteen specs, thirty-six
// fitted distributions — per row, plus each row's scenario rebuilt and
// its config formatted again. It now allocates 48 times: the rows' metric
// maps and the result set, with the catalog shared, the scenarios the
// explorer's prepared ones and the configs the plan's. The pin is a third
// of the parent's number.
func TestAssembleWarmAllocs(t *testing.T) {
	plan, outcomes := warmPlan(t, &Engine{TrialWorkers: 1})
	rs, err := plan.Assemble(outcomes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 8 {
		t.Fatalf("assembled %d rows, want all 8 to pass the WHERE", len(rs.Rows))
	}
	const parent = 480
	allocs := testing.AllocsPerRun(100, func() { plan.Assemble(outcomes) })
	if allocs > parent/3 {
		t.Fatalf("warm Assemble allocates %.0f times, want <= %d (a third of the parent's %d)", allocs, parent/3, parent)
	}
}

// TestWarmAnswerBytes pins the bytes of a warm point's answer, which
// TestAssembleWarmAllocs' count does not see: each map is sized for the
// entries it gets, where the parent commit (2fa139d) sized a run's
// metrics for 22 and a row's for 15. On Go 1.24 a map hint of 9–14
// allocates 504 B and one of 15–22 allocates 984 B, so the two maps a
// point's answer holds cost 480 B less each. A warm run of one
// serveWarmQuery point (two trials on its pooled world) allocated 1 416 B
// at the parent and 936 B after the change; a warm Assemble of the eight
// points 9 008 B and 4 640 B. The pins leave room for a few small allocations,
// not for one map sized as before.
func TestWarmAnswerBytes(t *testing.T) {
	plan, outcomes := warmPlan(t, &Engine{TrialWorkers: 1})
	sc, err := plan.ex.Scenario(0)
	if err != nil {
		t.Fatal(err)
	}
	// The least of twenty calls: a run whose cache-key buffer the
	// sync.Pool dropped (at a GC, or at random under the race detector)
	// allocates 4 KB more.
	bytes := func(f func()) uint64 {
		least := uint64(math.MaxUint64)
		for range 20 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	run := bytes(func() {
		if _, err := (core.Runner{Trials: 2, Workers: 1}).Run(sc); err != nil {
			t.Fatal(err)
		}
	})
	assemble := bytes(func() {
		if _, err := plan.Assemble(outcomes); err != nil {
			t.Fatal(err)
		}
	})
	if run > 1024 {
		t.Errorf("a warm one-point run allocates %d B, want <= 1024 (the parent's 1 416)", run)
	}
	if assemble > 5000 {
		t.Errorf("a warm 8-row Assemble allocates %d B, want <= 5000 (the parent's 9 008)", assemble)
	}
}

// TestPlanConfigShared: a point's formatted config is made once per plan;
// its table row holds that very map, and so does whatever asks
// Plan.Config for the point's stream event.
func TestPlanConfigShared(t *testing.T) {
	plan, outcomes := warmPlan(t, &Engine{TrialWorkers: 1})
	rs, err := plan.Assemble(outcomes)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"storage.replication": "2", "cluster.nodes_per_rack": "6", "storage.placement": "roundrobin"}
	if got := plan.Config(3); !reflect.DeepEqual(got, want) {
		t.Fatalf("Config(3) = %v, want %v", got, want)
	}
	if plan.Config(-1) != nil || plan.Config(8) != nil {
		t.Fatal("Config outside the plan's 8 points is not nil")
	}
	byPointer := map[uintptr]int{}
	for i := range outcomes {
		byPointer[reflect.ValueOf(plan.Config(i)).Pointer()] = i
	}
	if len(byPointer) != 8 {
		t.Fatalf("%d distinct config maps for 8 points", len(byPointer))
	}
	for _, row := range rs.Rows {
		ptr := reflect.ValueOf(row.Config).Pointer()
		if _, ok := byPointer[ptr]; !ok {
			t.Fatalf("row %v holds a config map of its own (or another row's), not the plan's", row.Config)
		}
		delete(byPointer, ptr)
	}
	// An outcome that names a point the plan does not have is an error,
	// not a row with someone else's config.
	stray := outcomes[0]
	stray.Index = 8
	if _, err := plan.Assemble([]core.PointOutcome{stray}); err == nil {
		t.Fatal("Assemble accepted an outcome with index 8 of 8")
	}
}

// TestPlanRunsShareOnePreparation: a plan's PointKeys, its Run and
// concurrent RunSubset shards all go through one explorer, so a cache
// that records lookups sees exactly the keys PointKeys reported, once
// per point per run, under the race detector too.
func TestPlanRunsShareOnePreparation(t *testing.T) {
	cache := &recordingCache{results: map[string]*core.RunResult{}}
	plan, _ := warmPlan(t, &Engine{TrialWorkers: 1, Cache: cache})
	keys, err := plan.PointKeys()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, shard := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := plan.RunSubset(context.Background(), shard, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if len(cache.results) != 8 {
		t.Fatalf("cache holds %d results, want 8", len(cache.results))
	}
	for i, k := range keys {
		if cache.gets[k] != 3 { // warmPlan's run, Run, one shard
			t.Errorf("point %d was looked up %d times under PointKeys' key, want 3", i, cache.gets[k])
		}
	}
}

type recordingCache struct {
	mu      sync.Mutex
	results map[string]*core.RunResult
	gets    map[string]int
}

func (c *recordingCache) Get(key string) (*core.RunResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gets == nil {
		c.gets = map[string]int{}
	}
	c.gets[key]++
	r, ok := c.results[key]
	return r, ok
}

func (c *recordingCache) Put(key string, r *core.RunResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results[key] = r
}

// BenchmarkAssembleWarm is Plan.Assemble over eight cached outcomes —
// bench/'s wtql.assemble_us on serve_warm, minus the first call's config
// formatting.
func BenchmarkAssembleWarm(b *testing.B) {
	plan, outcomes := warmPlan(b, &Engine{TrialWorkers: 1})
	b.ReportAllocs()
	for b.Loop() {
		if _, err := plan.Assemble(outcomes); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildAppliesInVaryOrder: two dimensions that write the same field
// are applied in the VARY clause's order for every point — the later one
// wins — so a plan's keys do not depend on map iteration. (cluster.nodes
// is "one rack of N nodes": listed last it resets the racks the first
// dimension set; listed first it does not.)
func TestBuildAppliesInVaryOrder(t *testing.T) {
	for vary, wantRacks := range map[string][]int{
		"cluster.racks IN (2, 3), cluster.nodes IN (5, 6)": {1, 1, 1, 1},
		"cluster.nodes IN (5, 6), cluster.racks IN (2, 3)": {2, 3, 2, 3},
	} {
		q, err := Parse("SIMULATE availability VARY " + vary)
		if err != nil {
			t.Fatal(err)
		}
		var first []string
		for range 20 {
			plan, err := (&Engine{Trials: 1}).Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			keys, err := plan.PointKeys()
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = keys
			} else if !reflect.DeepEqual(keys, first) {
				t.Fatalf("VARY %s: the same query planned twice has different keys", vary)
			}
			for i, want := range wantRacks {
				sc, err := plan.ex.Scenario(i)
				if err != nil {
					t.Fatal(err)
				}
				if sc.Cluster.Racks != want {
					t.Fatalf("VARY %s: point %d has %d racks, want %d", vary, i, sc.Cluster.Racks, want)
				}
			}
		}
	}
}
