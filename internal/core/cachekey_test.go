package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/design"
	"repro/internal/dist"
	"repro/internal/repair"
	"repro/internal/sla"
	"repro/internal/storage"
)

// fingerprint is the content address of a key/value description of a
// configuration, as results.Fingerprint computed it until nothing but this
// file called it: entries sorted by key, each key and value
// length-prefixed, SHA-256 over the lot — independent of map insertion
// order and immune to concatenation ambiguity ("ab"+"c" vs "a"+"bc").
// CacheKey writes this very encoding without building the map; this is the
// oracle it is held to, so the encoding here must never change.
func fingerprint(kv map[string]string) string {
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf []byte
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(kv[k])))
		buf = append(buf, kv[k]...)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestFingerprintInsertionOrder checks the canonical encoding: maps built
// in different insertion orders fingerprint identically.
func TestFingerprintInsertionOrder(t *testing.T) {
	keys := []string{"cluster.racks", "users", "seed", "node.ttf", "runner.trials"}
	vals := []string{"3", "1000", "1", "weibull(shape=0.7, scale=12000)", "20"}

	forward := make(map[string]string)
	for i, k := range keys {
		forward[k] = vals[i]
	}
	backward := make(map[string]string)
	for i := len(keys) - 1; i >= 0; i-- {
		backward[keys[i]] = vals[i]
	}
	if a, b := fingerprint(forward), fingerprint(backward); a != b {
		t.Fatalf("fingerprint depends on insertion order: %s vs %s", a, b)
	}
}

// TestFingerprintDistinguishes checks that the length-prefixed encoding
// cannot confuse adjacent fields or near-miss configs.
func TestFingerprintDistinguishes(t *testing.T) {
	cases := []map[string]string{
		{"a": "bc"},
		{"ab": "c"},
		{"a": "b", "c": ""},
		{"a": "", "c": "b"},
		{"a": "b"},
		{"a": "b", "c": "d"},
		{"cluster.nodes": "30", "rep": "3"},
		{"cluster.nodes": "303", "rep": ""},
		{"cluster.nodes": "3", "rep": "03"},
	}
	seen := make(map[string]int)
	for i, kv := range cases {
		fp := fingerprint(kv)
		if j, dup := seen[fp]; dup {
			t.Fatalf("configs %d and %d collide: %v vs %v", i, j, cases[i], cases[j])
		}
		seen[fp] = i
	}
}

// TestFingerprintStable pins the oracle's encoding: every persisted cache
// entry is filed under a digest it (then CacheKey) produced.
func TestFingerprintStable(t *testing.T) {
	// A literal taken from be31c54, the commit before results.Fingerprint
	// stopped copying each field into the hash.
	const pinned = "a91e630d207b257efa4fa5ecc51c896351925bfe1377c157887c4eda5660357d"
	if got := fingerprint(map[string]string{
		"k": "v", "cluster.racks": "3", "node.ttf": "weibull(shape=0.7, scale=12000)",
		"": "empty key", "empty value": "",
	}); got != pinned {
		t.Fatalf("fingerprint changed: %s, pinned %s", got, pinned)
	}
	if got, want := fingerprint(nil), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"; got != want {
		t.Fatalf("fingerprint of no fields = %s, want SHA-256 of nothing %s", got, want)
	}
}

// fingerprintKey is CacheKey as it was written until PR 15: every field
// rendered to a string, collected in a map, and handed to fingerprint
// (then results.Fingerprint) to sort and hash. Persisted disk caches, journal
// point records and fleet ring ownership hold digests this function
// produced, so it stays here as the reference CacheKey must equal.
func fingerprintKey(sc Scenario, r Runner) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	b := func(v bool) string { return strconv.FormatBool(v) }
	distKey := func(d dist.Dist) string {
		if d == nil {
			return ""
		}
		return d.String() +
			"|m=" + f(d.Mean()) +
			"|v=" + f(d.Variance()) +
			"|q25=" + f(d.Quantile(0.25)) +
			"|q50=" + f(d.Quantile(0.5)) +
			"|q90=" + f(d.Quantile(0.9))
	}
	return fingerprint(map[string]string{
		"cluster.racks":              strconv.Itoa(sc.Cluster.Racks),
		"cluster.nodes_per_rack":     strconv.Itoa(sc.Cluster.NodesPerRack),
		"cluster.disk_spec":          sc.Cluster.DiskSpec,
		"cluster.disks_per_node":     strconv.Itoa(sc.Cluster.DisksPerNode),
		"cluster.nic_spec":           sc.Cluster.NICSpec,
		"cluster.cpu_spec":           sc.Cluster.CPUSpec,
		"cluster.mem_spec":           sc.Cluster.MemSpec,
		"cluster.switch_spec":        sc.Cluster.SwitchSpec,
		"cluster.uplink_mbps":        f(sc.Cluster.UplinkMBps),
		"cluster.link_latency":       f(sc.Cluster.LinkLatency),
		"cluster.node_ttf":           distKey(sc.Cluster.NodeTTF),
		"cluster.node_repair":        distKey(sc.Cluster.NodeRepair),
		"cluster.component_failures": b(sc.Cluster.ComponentFailures),
		"cluster.switch_failures":    b(sc.Cluster.SwitchFailures),
		"users":                      strconv.Itoa(sc.Users),
		"object_mb":                  f(sc.ObjectSizeMB),
		"scheme":                     sc.Scheme.String(),
		"placement":                  sc.Placement,
		"repair.mode":                strconv.Itoa(int(sc.Repair.Mode)),
		"repair.max_concurrent":      strconv.Itoa(repairSlots(sc.Repair)),
		"repair.detection":           distKey(sc.Repair.Detection),
		"power.enabled":              b(sc.Power.Enabled),
		"power.pdus":                 strconv.Itoa(sc.Power.PDUs),
		"power.pdu_spec":             sc.Power.PDUSpec,
		"power.ups_spec":             sc.Power.UPSSpec,
		"power.utility_ttf":          distKey(sc.Power.UtilityTTF),
		"power.utility_repair":       distKey(sc.Power.UtilityRepair),
		"power.ups_minutes":          f(sc.Power.UPSMinutes),
		"power.generator_prob":       f(sc.Power.GeneratorStartProb),
		"power.generator_hours":      f(sc.Power.GeneratorStartHours),
		"power.idle_fraction":        f(sc.Power.IdleFraction),
		"power.utilization":          f(sc.Power.Utilization),
		"power.pue":                  f(sc.Power.PUE),
		"power.carbon_intensity":     f(sc.Power.CarbonKgPerKWh),
		"power.cap":                  f(sc.Power.CapFraction),
		"power.cap_start":            f(sc.Power.CapStartHours),
		"power.cap_duration":         f(sc.Power.CapDurationHours),
		"horizon_hours":              f(sc.HorizonHours),
		"seed":                       strconv.FormatUint(sc.Seed, 10),
		"runner.trials":              strconv.Itoa(r.Trials),
		"runner.target_ci":           "0", // 0 since the runner's early-stop rule was removed
		"runner.crn":                 b(r.CRN),
		"runner.antithetic":          b(r.Antithetic),
		"runner.failure_bias":        f(r.FailureBias),
		"runner.abort":               "", // empty since the runner's early-abort rule was removed
	})
}

// keyMutations changes every field CacheKey covers, one per entry, to a
// value drawn from rng. Distributions get nil, every comparable family
// and the two families that hold slices.
var keyMutations = []func(rng *rand.Rand, sc *Scenario, r *Runner){
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Cluster.Racks = rng.Intn(40) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Cluster.NodesPerRack = rng.Intn(400) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Cluster.DiskSpec = randomName(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Cluster.DisksPerNode = rng.Intn(24) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Cluster.NICSpec = randomName(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Cluster.CPUSpec = randomName(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Cluster.MemSpec = randomName(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Cluster.SwitchSpec = randomName(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Cluster.UplinkMBps = randomFloat(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Cluster.LinkLatency = randomFloat(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Cluster.NodeTTF = randomDist(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Cluster.NodeRepair = randomDist(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) {
		sc.Cluster.ComponentFailures = !sc.Cluster.ComponentFailures
	},
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Cluster.SwitchFailures = !sc.Cluster.SwitchFailures },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Users = rng.Intn(1 << 20) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.ObjectSizeMB = randomFloat(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Scheme = storage.ReplicationScheme(rng.Intn(12)) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) {
		sc.Scheme = storage.Scheme{Kind: storage.ErasureRS, K: rng.Intn(20), M: rng.Intn(8)}
	},
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Placement = randomName(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Repair.Mode = repair.Serial },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Repair.Mode = repair.Parallel },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Repair.MaxConcurrent = rng.Intn(64) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Repair.Detection = randomDist(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Power.Enabled = !sc.Power.Enabled },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Power.PDUs = rng.Intn(16) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Power.PDUSpec = randomName(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Power.UPSSpec = randomName(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Power.UtilityTTF = randomDist(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Power.UtilityRepair = randomDist(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Power.UPSMinutes = randomFloat(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Power.GeneratorStartProb = rng.Float64() },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Power.GeneratorStartHours = randomFloat(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Power.IdleFraction = rng.Float64() },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Power.Utilization = rng.Float64() },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Power.PUE = 1 + rng.Float64() },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Power.CarbonKgPerKWh = randomFloat(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Power.CapFraction = rng.Float64() },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Power.CapStartHours = randomFloat(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Power.CapDurationHours = randomFloat(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.HorizonHours = randomFloat(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Seed = rng.Uint64() },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { r.Trials = rng.Intn(1000) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { r.CRN = !r.CRN },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { r.Antithetic = !r.Antithetic },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { r.FailureBias = randomFloat(rng) },
	// Not in the key: they must not move it either way.
	func(rng *rand.Rand, sc *Scenario, r *Runner) { sc.Name = randomName(rng) },
	func(rng *rand.Rand, sc *Scenario, r *Runner) { r.Workers = rng.Intn(64) },
}

func randomName(rng *rand.Rand) string {
	names := []string{"", "hdd-7200", "nic-10g", "random", "roundrobin", "a|b=c", "über\x00spec", "pdu-basic"}
	return names[rng.Intn(len(names))]
}

// randomFloat covers the magnitudes 'g' formatting switches on: both zeros,
// integers, tiny and huge exponents, 17-digit mantissas.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(7) {
	case 0:
		return 0
	case 5:
		return math.Copysign(0, -1)
	case 1:
		return float64(rng.Intn(100000))
	case 2:
		return rng.Float64() * 1e-9
	case 3:
		return rng.Float64() * 1e23
	case 4:
		return 1.0 / 3.0 * float64(1+rng.Intn(9))
	}
	return rng.ExpFloat64() * 1000
}

func randomDist(rng *rand.Rand) dist.Dist {
	p := func() float64 { return 0.05 + rng.ExpFloat64()*float64(1+rng.Intn(5000)) }
	switch rng.Intn(9) {
	case 0:
		return nil
	case 1:
		return dist.Must(dist.NewWeibull(p(), p()))
	case 2:
		return dist.Must(dist.NewLogNormal(rng.NormFloat64(), 0.1+rng.Float64()))
	case 3:
		return dist.Must(dist.ExpMean(p()))
	case 4:
		return dist.Must(dist.NewDeterministic(p()))
	case 5:
		return dist.Must(dist.NewGamma(p(), p()))
	case 6:
		return dist.Must(dist.NewPareto(p(), 2.5+rng.Float64()))
	case 7:
		return dist.Must(dist.NewEmpirical([]float64{p(), p(), p(), p()}))
	}
	return dist.Must(dist.NewMixture([]dist.Component{
		{Weight: 0.8, Dist: dist.Must(dist.ExpMean(p()))},
		{Weight: 0.2, Dist: dist.Must(dist.NewDeterministic(p()))},
	}))
}

// TestCacheKeyMatchesFingerprint holds the streaming CacheKey to the map
// + fingerprint form it replaced, digest for digest: on the
// default scenario, with each covered field changed alone (so every field
// is varied at least once, from both of a bool's values, with nil and
// non-nil distributions, Serial and Parallel repair),
// and on a few hundred random combinations. The sweep path's remembered
// distribution encodings must not change a digest either.
func TestCacheKeyMatchesFingerprint(t *testing.T) {
	// The parent commit's digest for the default scenario, five trials: a
	// literal, so this test fails if both implementations drift together.
	const pinned = "3067771ab63dc524457f25e60b662ebe61e7980c4930926487b9252e6799fe34"
	if got := CacheKey(DefaultScenario(), Runner{Trials: 5}); got != pinned {
		t.Fatalf("CacheKey(DefaultScenario(), Runner{Trials: 5}) = %s, want the parent's %s", got, pinned)
	}

	rng := rand.New(rand.NewSource(15))
	var remembered distKeys
	check := func(what string, sc Scenario, r Runner) {
		t.Helper()
		want := fingerprintKey(sc, r)
		if got := CacheKey(sc, r); got != want {
			t.Fatalf("%s: CacheKey = %s, the map form gives %s\nscenario %+v\nrunner %+v", what, got, want, sc, r)
		}
		for pass := 0; pass < 2; pass++ { // the second meets what the first remembered
			if got := cacheKey(&sc, &r, &remembered); got != want {
				t.Fatalf("%s: with remembered distributions (pass %d) the key is %s, want %s", what, pass, got, want)
			}
		}
	}
	check("default", DefaultScenario(), Runner{Trials: 5})
	for i, mutate := range keyMutations {
		for rep := 0; rep < 4; rep++ {
			sc, r := DefaultScenario(), Runner{Trials: 5}
			mutate(rng, &sc, &r)
			check("mutation "+strconv.Itoa(i), sc, r)
		}
	}
	for i := 0; i < 400; i++ {
		sc, r := DefaultScenario(), Runner{Trials: 5}
		for n := 1 + rng.Intn(12); n > 0; n-- {
			keyMutations[rng.Intn(len(keyMutations))](rng, &sc, &r)
		}
		check("combination "+strconv.Itoa(i), sc, r)
	}
	if n := len(remembered.seen); n == 0 || n > maxDistKeys {
		t.Fatalf("%d distributions remembered, want 1..%d", n, maxDistKeys)
	}
}

// TestCacheKeyAllocs pins the allocations of one key: 47 at the parent
// commit (a 45-entry map of strings, the sorted key slice, the hash), 3
// now — the two distributions' String() and the digest.
func TestCacheKeyAllocs(t *testing.T) {
	sc, r := DefaultScenario(), Runner{Trials: 5}
	if allocs := testing.AllocsPerRun(200, func() { CacheKey(sc, r) }); allocs > 4 {
		t.Fatalf("CacheKey allocates %.0f times per call, want <= 4", allocs)
	}
}

// countedDist counts how often it is rendered, which CacheKey does
// exactly once per key it computes: the slice field makes the type
// incomparable, so no distKeys memo remembers it.
type countedDist struct {
	dist.Exponential
	rendered *atomic.Int64
	_        []struct{}
}

func (c countedDist) String() string {
	c.rendered.Add(1)
	return c.Exponential.String()
}

// TestPointKeysThenRunKeysOnce: a durable or fleet query asks for
// PointKeys (to shard, to journal) and then runs. The explorer's prepared
// point list makes that one Build and one key computation per point, not
// two — counted through the scenarios the points hand to CacheKey — and
// the run looks its cache up under exactly the keys PointKeys reported.
func TestPointKeysThenRunKeysOnce(t *testing.T) {
	space, err := design.NewSpace(design.Dimension{
		Name:   "nodes",
		Values: []design.Value{5, 6, 7, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	var builds, rendered atomic.Int64
	cache := &mapCache{m: map[string]*RunResult{}}
	ex := &Explorer{
		Space: space,
		Build: func(p design.Point) (Scenario, []sla.SLA, error) {
			builds.Add(1)
			sc := smallScenario()
			sc.Users, sc.HorizonHours = 10, 100
			sc.Cluster.Racks, sc.Cluster.NodesPerRack = 1, p.MustValue("nodes").(int)
			sc.Cluster.NodeTTF = countedDist{Exponential: dist.Must(dist.ExpMean(400)), rendered: &rendered}
			return sc, nil, nil
		},
		Runner: Runner{Trials: 1, Workers: 1},
		Cache:  cache,
	}
	keys, err := ex.PointKeys()
	if err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 4 || rendered.Load() != 4 {
		t.Fatalf("PointKeys: %d builds and %d key computations for 4 points", builds.Load(), rendered.Load())
	}
	// Twice, the second time in two shards at once: still nothing rebuilt.
	if _, err := ex.RunPoints(context.Background(), nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for _, shard := range [][]int{{0, 2}, {1, 3}} {
		go func() {
			_, err := ex.RunPoints(context.Background(), shard, nil, nil)
			errs <- err
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if builds.Load() != 4 || rendered.Load() != 4 {
		t.Fatalf("after PointKeys and three runs: %d builds and %d key computations for 4 points, want 4 and 4",
			builds.Load(), rendered.Load())
	}
	if len(cache.m) != 4 {
		t.Fatalf("the runs cached %d results, want 4", len(cache.m))
	}
	for i, k := range keys {
		if _, ok := cache.m[k]; !ok {
			t.Errorf("point %d ran under a key other than PointKeys' %s", i, k)
		}
		sc, err := ex.Scenario(i)
		if err != nil {
			t.Fatal(err)
		}
		if CacheKey(sc, ex.Runner) != k {
			t.Errorf("point %d: Scenario's key differs from PointKeys'", i)
		}
	}
	if _, err := ex.Scenario(4); err == nil {
		t.Error("Scenario(4) of a 4-point space succeeded")
	}
}

func BenchmarkCacheKey(b *testing.B) {
	sc, r := DefaultScenario(), Runner{Trials: 5}
	b.ReportAllocs()
	for b.Loop() {
		CacheKey(sc, r)
	}
}
