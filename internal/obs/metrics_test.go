package obs

import (
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wt_test_total", "A test counter.")
	c.Add(3)
	g := r.Gauge("wt_test_depth", "A test gauge.")
	g.Set(7)
	h := r.Histogram("wt_test_seconds", "A test histogram.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	lc := r.Counter("wt_test_labeled_total", "A labeled counter.", "route", `/v1/"q"`)
	lc.Inc()
	r.GaugeFunc("wt_test_fn", "A func gauge.", func() float64 { return 2.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP wt_test_total A test counter.\n",
		"# TYPE wt_test_total counter\n",
		"wt_test_total 3\n",
		"wt_test_depth 7\n",
		"wt_test_seconds_bucket{le=\"0.1\"} 1\n",
		"wt_test_seconds_bucket{le=\"1\"} 2\n",
		"wt_test_seconds_bucket{le=\"+Inf\"} 3\n",
		"wt_test_seconds_sum 5.55\n",
		"wt_test_seconds_count 3\n",
		"wt_test_labeled_total{route=\"/v1/\\\"q\\\"\"} 1\n",
		"wt_test_fn 2.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	if problems := Lint([]byte(out)); len(problems) > 0 {
		t.Errorf("self-lint failed: %v", problems)
	}
}

func TestLabeledHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wt_req_seconds", "Request latency.", []float64{0.5}, "route", "/v1/query")
	h.Observe(0.1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`wt_req_seconds_bucket{route="/v1/query",le="0.5"} 1`,
		`wt_req_seconds_bucket{route="/v1/query",le="+Inf"} 1`,
		`wt_req_seconds_sum{route="/v1/query"} 0.1`,
		`wt_req_seconds_count{route="/v1/query"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	if problems := Lint([]byte(out)); len(problems) > 0 {
		t.Errorf("self-lint failed: %v", problems)
	}
}

// TestInstrumentsSameSeries pins GetOrCreate semantics: registering the
// same name+labels twice returns the same underlying instrument.
func TestInstrumentsSameSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("wt_dup_total", "dup")
	b := r.Counter("wt_dup_total", "dup")
	if a != b {
		t.Fatal("same series returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("counters not shared")
	}
	h1 := r.Histogram("wt_dup_seconds", "dup", DurationBuckets)
	h2 := r.Histogram("wt_dup_seconds", "dup", DurationBuckets)
	if h1 != h2 {
		t.Fatal("same series returned distinct histograms")
	}
}

// TestNilInstrumentsSafe pins the disabled-telemetry contract: nil
// registry and nil instruments accept every operation.
func TestNilInstrumentsSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := r.Gauge("y", "y")
	g.Set(3)
	g.Inc()
	g.Dec()
	h := r.Histogram("z", "z", DurationBuckets)
	h.Observe(1)
	r.GaugeFunc("w", "w", func() float64 { return 1 })
	r.CounterFunc("v", "v", func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestHotPathAllocations pins the zero-allocation contract on the
// instruments the point-commit and request paths hit.
func TestHotPathAllocations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wt_alloc_total", "alloc test")
	g := r.Gauge("wt_alloc_depth", "alloc test")
	h := r.Histogram("wt_alloc_seconds", "alloc test", DurationBuckets)
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(5) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.003) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op", n)
	}
}

// TestConcurrentScrape hammers counters and histograms from 100
// goroutines while /metrics-style scrapes run concurrently — the -race
// workhorse for the lock-free instruments.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wt_hammer_total", "hammer")
	h := r.Histogram("wt_hammer_seconds", "hammer", DurationBuckets)
	g := r.Gauge("wt_hammer_depth", "hammer")

	const goroutines = 100
	const perG = 200
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%17) / 100)
				g.Add(-1)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	scrapes := 0
	for {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		scrapes++
		if problems := Lint([]byte(b.String())); len(problems) > 0 {
			t.Fatalf("mid-hammer scrape fails lint: %v", problems)
		}
		select {
		case <-done:
			if c.Value() != goroutines*perG {
				t.Fatalf("lost increments: %d != %d", c.Value(), goroutines*perG)
			}
			if h.Count() != goroutines*perG {
				t.Fatalf("lost observations: %d != %d", h.Count(), goroutines*perG)
			}
			if g.Value() != 0 {
				t.Fatalf("gauge should settle at 0, got %d", g.Value())
			}
			t.Logf("%d scrapes during hammer", scrapes)
			return
		default:
		}
	}
}

// expositionFixture is a fixed registry: a counter with an escaped label
// value and one at 1234567, a negative gauge, a labelled and an
// unlabelled histogram, and gauge funcs at 2.5, 3 and 1e6 under an
// escaped HELP.
func expositionFixture() *Registry {
	r := NewRegistry()
	r.Counter("wt_fix_total", "A counter.", "path", `a\b"c`+"\n").Add(7)
	r.Counter("wt_fix_total", "A counter.", "path", "/plain").Add(1234567)
	r.Gauge("wt_fix_depth", "A gauge.").Set(-3)
	lh := r.Histogram("wt_fix_route_seconds", "A labelled histogram.", DurationBuckets, "route", "/v1/jobs/{id}")
	uh := r.Histogram("wt_fix_seconds", "An unlabelled histogram.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		lh.Observe(v)
		uh.Observe(v)
	}
	for _, v := range []float64{2.5, 3, 1e6} {
		r.GaugeFunc("wt_fix_fn", "A gauge func.\nIts second line has a \\ backslash.",
			func() float64 { return v }, "v", strconv.FormatFloat(v, 'g', -1, 64))
	}
	return r
}

// TestExpositionMatchesParent pins the one writer to what c0de718's two
// writers printed for the same registry: /metrics and the fleet view
// (the registry ingested under an instance label). testdata holds their
// output, written in a c0de718 checkout. The only difference allowed is
// the number format: an integral value below 2^53 now prints as an
// integer, where c0de718 printed a fn-backed or fleet-view one >= 1e6 in
// exponent form.
func TestExpositionMatchesParent(t *testing.T) {
	r := expositionFixture()
	h := NewHistory(8)
	h.Ingest(r.Snapshot(), "http://w1", time.Unix(1, 0))
	for _, tc := range []struct {
		file  string
		write func(io.Writer) error
		now   *strings.Replacer
	}{
		{"exposition_c0de718.txt", r.WritePrometheus,
			strings.NewReplacer(`wt_fix_fn{v="1e+06"} 1e+06`, `wt_fix_fn{v="1e+06"} 1000000`)},
		{"fleet_view_c0de718.txt", h.WriteLatestPrometheus,
			strings.NewReplacer(`v="1e+06"} 1e+06`, `v="1e+06"} 1000000`, `} 1.234567e+06`, `} 1234567`)},
	} {
		parent, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := tc.write(&b); err != nil {
			t.Fatal(err)
		}
		if want := tc.now.Replace(string(parent)); b.String() != want {
			t.Errorf("%s: got\n%s\nwant\n%s", tc.file, b.String(), want)
		}
		if problems := Lint([]byte(b.String())); len(problems) > 0 {
			t.Errorf("%s: lint: %v", tc.file, problems)
		}
	}
}
