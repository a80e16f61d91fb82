package obs

import (
	"strings"
	"testing"
	"time"
)

// FuzzParseExposition: a coordinator parses whatever a fleet member's
// /metrics returns and serves it back out at /v1/metrics/fleet. So any
// body is refused with an error, or Lint finds nothing in it but a
// missing HELP or TYPE and its families, ingested into a History under an
// instance label, render through WriteLatestPrometheus to text Lint
// accepts. Seeded with a live registry's exposition and the lint and
// parse fixtures, good and bad.
func FuzzParseExposition(f *testing.F) {
	r := NewRegistry()
	r.Counter("wt_seed_total", "Seed counter.", "path", `a\b"c`+"\n").Add(2)
	r.Gauge("wt_seed_depth", "Seed gauge.").Set(-3)
	h := r.Histogram("wt_seed_seconds", "Seed histogram.", []float64{0.01, 0.1, 1}, "route", "/v1/jobs/{id}")
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	r.GaugeFunc("wt_seed_uptime_seconds", "Seed gauge func.", func() float64 { return 12.75 })
	var live strings.Builder
	if err := r.WritePrometheus(&live); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(live.String()))
	f.Add([]byte(cleanExposition))
	f.Add([]byte(parseFixture))
	for _, tc := range lintViolations {
		f.Add([]byte(tc.in))
	}
	for _, tc := range unservable {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fams, err := ParseExposition(body)
		if err != nil {
			return
		}
		for _, p := range Lint(body) {
			if !strings.Contains(p, "no preceding # TYPE line") && !strings.Contains(p, "no # HELP line") {
				t.Fatalf("body %q parsed despite lint problem %q", body, p)
			}
		}
		if problems := renderLint(fams); len(problems) > 0 {
			t.Fatalf("body %q renders to text that fails lint: %v", body, problems)
		}
	})
}

// TestParseExpositionFindings pins what FuzzParseExposition found: each
// body used to parse into families whose fleet rendering Lint rejects.
// Now each is refused, or renders lint-clean.
func TestParseExpositionFindings(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		refused    bool
	}{
		{"histogram without +Inf bucket",
			"# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_sum 1\nh_count 1\n", true},
		{"histogram count disagrees with +Inf",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 9\n", true},
		{"histogram bucket without le",
			"# TYPE h histogram\nh_bucket 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n", true},
		{"histogram buckets not cumulative",
			"# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_bucket{le=\"+Inf\"} 3\n", true},
		{"empty TYPE", "# TYPE m \nm{}0 000000000000", true},
		{"label value Go would quote", "m{a=\"\xac\"}0\nx{a=\"tab\there\"} 1\n", false},
		{"sample named like a histogram expansion before its TYPE",
			"h_count{route=\"/v1/jobs/{id}\"}0\n# TYPE h histogram\nh_count{route=\"/v1/jobs/{id}\"}0", true},
		{"second TYPE re-types folded samples", "# TYPE  histogram\n_sum 0\n# TYPE  0", true},
		{"repeated histogram series",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 3\n", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fams, err := ParseExposition([]byte(tc.body))
			if tc.refused {
				if err == nil {
					t.Fatalf("parsed into %+v, want an error", fams)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if problems := renderLint(fams); len(problems) > 0 {
				t.Fatalf("renders to text that fails lint: %v", problems)
			}
		})
	}
}

// renderLint ingests families as a coordinator ingests a member's scrape
// and lints the fleet view they render to.
func renderLint(fams []FamilySnapshot) []string {
	h := NewHistory(4)
	h.Ingest(fams, "http://w1", time.Unix(1, 0))
	var b strings.Builder
	h.WriteLatestPrometheus(&b)
	return Lint([]byte(b.String()))
}
