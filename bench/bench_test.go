package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wtql"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON holds BENCHMARK.json to the benchmark contract and
// to metrics.go: same workloads, same metric names, units and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", b.RunSeconds)
	}

	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, '_', '.' and '-'", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		use(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, metrics.go has %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		use(m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json and %+v in metrics.go", i, m, d)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want in (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, metrics.go has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		use(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json and %+v in metrics.go", i, m, d)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
}

// TestWorkloads runs every workload at its real size for a short window,
// untraced and traced, with every check on. It asserts that nothing
// failed (which covers the replay's CacheKey and availability checks and
// the durability check), that every end-to-end metric is emitted by
// every workload, that every per-layer metric is emitted by some
// workload and no undefined one by any, and that the layer-separation
// assertions hold.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps for about half a minute")
	}
	procs := min(runtime.NumCPU(), 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	emitted := map[string]bool{}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: defaultSeed, seconds: 1, trace: traced,
				procs: procs, setupRepeats: 1, tmp: t.TempDir(), golden: golden, ref: newHostRef(procs)}
			if traced {
				// Long enough for the CPU profile to hold a few hundred samples.
				cfg.seconds = 3
				cfg.spans = newRecorder()
			}
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, traced, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s trace=%t: %d of %d operations failed: %v", w, traced, out.failed, out.attempted, out.problems)
			}
			for _, warning := range out.warnings {
				t.Errorf("layer separation: %s", warning)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			defined := map[string]bool{}
			for _, d := range defs {
				defined[d.name] = true
				if _, ok := out.metrics[d.name]; !ok && !traced {
					t.Errorf("%s: end-to-end metric %s was not emitted", w, d.name)
				}
			}
			for name, r := range out.metrics {
				if !defined[name] {
					t.Errorf("%s trace=%t: metric %s is not one of that run's metrics", w, traced, name)
				}
				if !traced && r.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, name, r.Value)
				}
				emitted[name] = true
			}
			if traced && len(cfg.spans.spans) == 0 {
				t.Errorf("%s: the traced run recorded no spans", w)
			}
		}
	}
	for _, d := range perLayer {
		if !emitted[d.name] {
			t.Errorf("per-layer metric %s was emitted by no workload", d.name)
		}
	}
}

// TestGoldenCatchesAChangedStatistic is the reason golden.json exists:
// an output whose hash differs from the committed one fails the check.
func TestGoldenCatchesAChangedStatistic(t *testing.T) {
	cfg := config{workload: sweepRepair, seed: defaultSeed,
		golden: map[string]string{goldenKey(sweepRepair, defaultSeed, 0): tableHash("committed output")}}
	c := &tableChecks{cfg: cfg}
	if problem := c.check(0, "an output with a changed statistic"); !strings.Contains(problem, "golden.json") {
		t.Errorf("changed output passed the golden check: %q", problem)
	}
	c = &tableChecks{cfg: cfg}
	if problem := c.check(0, "committed output"); problem != "" {
		t.Errorf("committed output failed: %s", problem)
	}
	if problem := c.check(0, "committed output, second round, different"); !strings.Contains(problem, "rounds") {
		t.Errorf("a second round with a different output passed: %q", problem)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "op_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "ops_per_s", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 130, 80, 95, 120, 70, 110, 140, 90, 105}
	cases := []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same runs", lower, steady, steady, "ok"},
		{"within the bound", lower, steady, scale(steady, 1.05), "ok"},
		{"slower beyond the bound", lower, steady, scale(steady, 1.2), "regressed"},
		{"every run faster", lower, steady, scale(steady, 0.8), "improved"},
		{"lower throughput beyond the bound", higher, steady, scale(steady, 0.8), "regressed"},
		{"higher throughput", higher, steady, scale(steady, 1.2), "improved"},
		{"spread wider than the bound", lower, noisy, scale(noisy, 1.02), "unresolved"},
	}
	for _, c := range cases {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestQuartiles pins quartiles to what Python's
// statistics.quantiles(xs, n=4) returns for the same values.
func TestQuartiles(t *testing.T) {
	got := quartiles([]float64{10, 2, 8, 4, 6, 12, 14, 3, 9, 1})
	want := [3]float64{2.75, 7, 10.5}
	if got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

// TestHostRef checks the bookkeeping of the host-speed reference: an
// interval's factor is the mean of the samples around it, and what the
// samples allocate is kept out of the operations' account.
func TestHostRef(t *testing.T) {
	h := newHostRef(2)
	h.begin()
	before := h.allocatedElsewhere()
	f := h.slowdown()
	if len(h.factors) != 2 || f != (h.factors[0]+h.factors[1])/2 || f <= 0 {
		t.Errorf("slowdown = %v after samples %v, want their mean", f, h.factors)
	}
	if h.allocated < 1<<20 {
		t.Errorf("the samples allocated %d bytes, want the churn kernel's megabytes", h.allocated)
	}
	if elsewhere := h.allocatedElsewhere() - before; elsewhere > 64<<10 {
		t.Errorf("%d bytes of a sample were charged to the operations", elsewhere)
	}
}

func TestSelfTime(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.t0.Add(time.Duration(ms) * time.Millisecond) }
	op := r.newOp()
	root := r.add(op, 0, "sweep", at(0), 100*time.Millisecond)
	r.add(op, root, "point", at(10), 40*time.Millisecond) // two overlapping children
	r.add(op, root, "point", at(30), 40*time.Millisecond) // cover 10..70 between them
	self := r.selfTimeByOp()
	if got := self["sweep"]; len(got) != 1 || got[0] != 40 {
		t.Errorf("sweep self time = %v, want [40]", got)
	}
	if got := self["point"]; len(got) != 1 || got[0] != 80 {
		t.Errorf("point self time per operation = %v, want [80]", got)
	}
}

// TestProfileLayers checks the hand-written profile decoder against a
// real runtime/pprof profile of known work.
func TestProfileLayers(t *testing.T) {
	if got := layerOf([]string{"runtime.mallocgc", "repro/internal/netsim.(*FlowSim).recompute", "repro/internal/repair.(*Manager).pump"}); got != "netsim" {
		t.Errorf("innermost repro frame: got %q, want netsim", got)
	}
	if got := layerOf([]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}); got != "runtime.gc" {
		t.Errorf("collector stack: got %q", got)
	}
	prof, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := replayTrial(nil, mustScenario(t), 0); err != nil {
			t.Fatal(err)
		}
	}
	shares, samples, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10 {
		t.Skipf("only %d samples", samples)
	}
	attributed := 0.0
	for _, pkg := range cpuSharePackages {
		attributed += shares[pkg]
	}
	// Most of them without the race detector, whose own frames do not
	// unwind into Go and take half of the samples with it.
	if attributed < 0.25 {
		t.Errorf("%.2f of %d samples charged to repro/internal packages while replaying trials: %v", attributed, samples, shares)
	}
}

// mustScenario returns the scenario of sweep_quiet's first design point.
func mustScenario(t *testing.T) core.Scenario {
	t.Helper()
	spec := sweepQuery(sweepQuiet, defaultSeed, 0)
	q, err := wtql.Parse(spec.text())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := newSweepEngine().Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.scenario(plan.Points()[0])
	if err != nil {
		t.Fatal(err)
	}
	return sc
}
