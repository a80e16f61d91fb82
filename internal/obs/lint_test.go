package obs

import (
	"slices"
	"strings"
	"testing"
)

const cleanExposition = `# HELP wt_ok_total Fine counter.
# TYPE wt_ok_total counter
wt_ok_total 5
# HELP wt_ok_seconds Fine histogram.
# TYPE wt_ok_seconds histogram
wt_ok_seconds_bucket{le="0.1"} 1
wt_ok_seconds_bucket{le="1"} 3
wt_ok_seconds_bucket{le="+Inf"} 4
wt_ok_seconds_sum 2.5
wt_ok_seconds_count 4
`

func TestLintClean(t *testing.T) {
	if problems := Lint([]byte(cleanExposition)); len(problems) > 0 {
		t.Fatalf("clean exposition flagged: %v", problems)
	}
}

// lintViolations are exposition texts Lint must flag, each with a
// substring of the problem it must report.
var lintViolations = []struct {
	name string
	in   string
	want string // substring of an expected problem
}{
	{
		"missing TYPE",
		"wt_x_total 1\n",
		"no preceding # TYPE",
	},
	{
		"missing HELP",
		"# TYPE wt_x_total counter\nwt_x_total 1\n",
		"no # HELP",
	},
	{
		"duplicate series",
		"# HELP wt_x_total x.\n# TYPE wt_x_total counter\nwt_x_total 1\nwt_x_total 2\n",
		"duplicate series",
	},
	{
		"duplicate series label order",
		"# HELP wt_x_total x.\n# TYPE wt_x_total counter\nwt_x_total{a=\"1\",b=\"2\"} 1\nwt_x_total{b=\"2\",a=\"1\"} 2\n",
		"duplicate series",
	},
	{
		"bad escape",
		"# HELP wt_x_total x.\n# TYPE wt_x_total counter\nwt_x_total{a=\"\\q\"} 1\n",
		"bad escape",
	},
	{
		"unterminated label",
		"# HELP wt_x_total x.\n# TYPE wt_x_total counter\nwt_x_total{a=\"oops} 1\n",
		"unterminated",
	},
	{
		"bad value",
		"# HELP wt_x_total x.\n# TYPE wt_x_total counter\nwt_x_total banana\n",
		"bad value",
	},
	{
		"non-cumulative buckets",
		"# HELP wt_x_seconds x.\n# TYPE wt_x_seconds histogram\n" +
			"wt_x_seconds_bucket{le=\"0.1\"} 5\nwt_x_seconds_bucket{le=\"1\"} 3\nwt_x_seconds_bucket{le=\"+Inf\"} 6\n" +
			"wt_x_seconds_sum 1\nwt_x_seconds_count 6\n",
		"not cumulative",
	},
	{
		"missing +Inf",
		"# HELP wt_x_seconds x.\n# TYPE wt_x_seconds histogram\n" +
			"wt_x_seconds_bucket{le=\"0.1\"} 1\nwt_x_seconds_sum 1\nwt_x_seconds_count 1\n",
		"+Inf",
	},
	{
		"count disagrees with +Inf",
		"# HELP wt_x_seconds x.\n# TYPE wt_x_seconds histogram\n" +
			"wt_x_seconds_bucket{le=\"0.1\"} 1\nwt_x_seconds_bucket{le=\"+Inf\"} 4\n" +
			"wt_x_seconds_sum 1\nwt_x_seconds_count 9\n",
		"_count 9 != +Inf bucket 4",
	},
	{
		"bucket without le",
		"# HELP wt_x_seconds x.\n# TYPE wt_x_seconds histogram\n" +
			"wt_x_seconds_bucket 1\nwt_x_seconds_bucket{le=\"+Inf\"} 1\nwt_x_seconds_sum 1\nwt_x_seconds_count 1\n",
		"without an le label",
	},
}

func TestLintViolations(t *testing.T) {
	for _, tc := range lintViolations {
		t.Run(tc.name, func(t *testing.T) {
			problems := Lint([]byte(tc.in))
			for _, p := range problems {
				if strings.Contains(p, tc.want) {
					return
				}
			}
			t.Fatalf("expected a problem containing %q, got %v", tc.want, problems)
		})
	}
}

// TestLintRegistryOutput closes the loop: whatever the registry writes,
// the linter accepts — including escaped labels and labeled histograms.
func TestLintRegistryOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("wt_e2e_total", "e2e", "path", `a\b"c`+"\n").Add(2)
	h := r.Histogram("wt_e2e_seconds", "e2e", []float64{0.01, 0.1, 1}, "route", "/v1/jobs/{id}")
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	r.GaugeFunc("wt_e2e_uptime_seconds", "e2e", func() float64 { return 12.75 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if problems := Lint([]byte(b.String())); len(problems) > 0 {
		t.Fatalf("registry output fails lint: %v\n---\n%s", problems, b.String())
	}
}

// unservable are expositions no Prometheus parser accepts, each otherwise
// clean, with a substring of the problem Lint must report. Lint used to
// report nothing for any of them and ParseExposition ingested them, so
// the fleet view served them on.
var unservable = []struct {
	name string
	in   string
	want string
}{
	{"repeated label name",
		"# HELP m x.\n# TYPE m counter\nm{a=\"1\",a=\"2\"} 1\n", "repeated label a"},
	{"label name with a space",
		"# HELP m x.\n# TYPE m counter\nm{a b=\"1\"} 1\n", `invalid label name "a b"`},
	{"metric name starting with a digit",
		"# HELP 1m x.\n# TYPE 1m counter\n1m 1\n", `invalid metric name "1m"`},
	{"unknown type",
		"# HELP m x.\n# TYPE m bogus\nm 1\n", `unknown type "bogus"`},
}

func TestReaderRefusesUnservable(t *testing.T) {
	for _, tc := range unservable {
		t.Run(tc.name, func(t *testing.T) {
			problems := Lint([]byte(tc.in))
			if !slices.ContainsFunc(problems, func(p string) bool { return strings.Contains(p, tc.want) }) {
				t.Errorf("Lint = %v, want a problem containing %q", problems, tc.want)
			}
			if fams, err := ParseExposition([]byte(tc.in)); err == nil {
				t.Errorf("ParseExposition accepted it as %+v", fams)
			}
		})
	}
}
