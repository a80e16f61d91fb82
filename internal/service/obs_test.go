package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// startTracedFleet is startFleet with fully-configured workers: the
// listeners exist before New runs, so each worker knows its own URL
// (Peers + Self) and labels its spans and metrics with it — the
// production wiring, which the plain startFleet helper can't reproduce
// because httptest URLs are minted at server start.
func startTracedFleet(t testing.TB, n int) (*Server, *httptest.Server, []*Server, []string) {
	t.Helper()
	tss := make([]*httptest.Server, n)
	handlers := make([]lateHandler, n)
	urls := make([]string, n)
	for i := range tss {
		tss[i] = httptest.NewServer(&handlers[i])
		t.Cleanup(tss[i].Close)
		urls[i] = tss[i].URL
	}
	workers := make([]*Server, n)
	for i := range workers {
		srv, err := New(Config{PoolSize: 2, Peers: urls, Self: urls[i]})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		handlers[i].set(srv.Handler())
		workers[i] = srv
	}
	coord, cts := newTestServer(t, Config{Coordinator: true, Peers: urls})
	return coord, cts, workers, urls
}

// lateHandler answers 404 until its handler is stored: a worker's
// listener is already being probed by its peers when the worker is built.
type lateHandler struct{ h atomic.Pointer[http.Handler] }

func (l *lateHandler) set(h http.Handler) { l.h.Store(&h) }

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := l.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.NotFound(w, r)
}

// scrape fetches a server's /metrics exposition.
func scrape(t testing.TB, baseURL string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("wrong exposition content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// metricSum adds up every sample of a metric name across its label
// series in an exposition body.
func metricSum(t testing.TB, body []byte, name string) float64 {
	t.Helper()
	sum := 0.0
	found := false
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sample := line[:strings.LastIndexByte(line, ' ')]
		base := sample
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if strings.TrimSpace(base) != name {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("metric %s not found in exposition:\n%s", name, body)
	}
	return sum
}

// TestFleetMetricsScrapeAndLint is the live-scrape exposition check: a
// sweep runs through a two-worker fleet, then every member's /metrics
// must pass the format linter, the coordinator must have committed every
// point, and the workers' committed-point counters must sum to the job's
// point count (each worker counts exactly its shard).
func TestFleetMetricsScrapeAndLint(t *testing.T) {
	coord, cts, _, urls := startTracedFleet(t, 2)
	ev := lastEvent(t, postQuery(t, cts, smallQuery))
	if ev["type"] != "result" {
		t.Fatalf("fleet query ended with %v", ev)
	}

	for _, u := range append([]string{cts.URL}, urls...) {
		body := scrape(t, u)
		if problems := obs.Lint(body); len(problems) != 0 {
			t.Fatalf("exposition from %s fails lint: %v", u, problems)
		}
	}

	if got := metricSum(t, scrape(t, cts.URL), "wt_points_committed_total"); got != 4 {
		t.Fatalf("coordinator committed %v points, want 4", got)
	}
	var workerSum float64
	for _, u := range urls {
		workerSum += metricSum(t, scrape(t, u), "wt_points_committed_total")
	}
	if workerSum != 4 {
		t.Fatalf("workers committed %v points in total, want 4 (one per shard point)", workerSum)
	}
	if coord.tel == nil || coord.tel.reg == nil {
		t.Fatal("coordinator telemetry not enabled by default")
	}
}

// TestFleetTraceTree checks the tentpole's distributed-tracing claim: a
// fleet job answers GET /v1/jobs/{id}/trace with one connected span
// tree — a single root, every other span's parent present — that spans
// the coordinator and the workers that served points.
func TestFleetTraceTree(t *testing.T) {
	_, cts, _, _ := startTracedFleet(t, 2)
	events := postQuery(t, cts, smallQuery)
	if ev := lastEvent(t, events); ev["type"] != "result" {
		t.Fatalf("fleet query ended with %v", ev)
	}
	var jobID string
	pointWorkers := map[string]bool{}
	for _, ev := range events {
		switch ev["type"] {
		case "job":
			jobID = ev["id"].(string)
		case "point":
			if w, _ := ev["worker"].(string); w != "" {
				pointWorkers[w] = true
			}
		}
	}

	resp, err := http.Get(cts.URL + "/v1/jobs/" + jobID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: HTTP %d", resp.StatusCode)
	}
	var tr TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.TraceID == "" || len(tr.Spans) == 0 {
		t.Fatalf("empty trace: %+v", tr)
	}

	ids := map[string]bool{}
	for _, sp := range tr.Spans {
		if sp.TraceID != tr.TraceID {
			t.Fatalf("span %s carries foreign trace id %s", sp.SpanID, sp.TraceID)
		}
		if ids[sp.SpanID] {
			t.Fatalf("duplicate span id %s", sp.SpanID)
		}
		ids[sp.SpanID] = true
	}
	roots := 0
	spanWorkers := map[string]bool{}
	names := map[string]int{}
	for _, sp := range tr.Spans {
		spanWorkers[sp.Worker] = true
		names[sp.Name]++
		if sp.Parent == "" {
			roots++
			continue
		}
		if !ids[sp.Parent] {
			t.Fatalf("span %s (%s@%s) has unresolved parent %s — tree is disconnected",
				sp.SpanID, sp.Name, sp.Worker, sp.Parent)
		}
	}
	if roots != 1 {
		t.Fatalf("trace has %d roots, want exactly 1 (the coordinator's job span)", roots)
	}
	if !spanWorkers["coordinator"] {
		t.Fatalf("no coordinator spans in %v", spanWorkers)
	}
	// Every worker that served a point must have contributed its subtree.
	for w := range pointWorkers {
		if !spanWorkers[w] {
			t.Fatalf("worker %s served points but recorded no spans (have %v)", w, spanWorkers)
		}
	}
	for _, want := range []string{"plan", "merge", "shard", "worker"} {
		if names[want] == 0 {
			t.Fatalf("trace has no %q span: %v", want, names)
		}
	}
	if names["simulate"]+names["cache_hit"]+names["screened"] != 4 {
		t.Fatalf("trace holds %d point spans, want 4: %v",
			names["simulate"]+names["cache_hit"]+names["screened"], names)
	}
}

// TestHealthzBuildIdentity pins the enriched healthz body: status plus
// the build identity wtload prints and rolling upgrades rely on.
func TestHealthzBuildIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Status        string  `json:"status"`
		Version       string  `json:"version"`
		Go            string  `json:"go"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" {
		t.Fatalf("healthz status %q, want ok", hz.Status)
	}
	if hz.Version != Version {
		t.Fatalf("healthz version %q, want %q", hz.Version, Version)
	}
	if !strings.HasPrefix(hz.Go, "go") {
		t.Fatalf("healthz go version %q", hz.Go)
	}
	if hz.UptimeSeconds < 0 {
		t.Fatalf("negative uptime %v", hz.UptimeSeconds)
	}
}

// TestStatsSnapshot checks /v1/stats reflects live server state after a
// run: pool capacity, cache traffic, job registry, runtime numbers.
func TestStatsSnapshot(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 3})
	if ev := lastEvent(t, postQuery(t, ts, smallQuery)); ev["type"] != "result" {
		t.Fatalf("query ended with %v", ev)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Pool.Capacity != 3 {
		t.Fatalf("stats pool capacity %d, want 3", st.Pool.Capacity)
	}
	if st.Jobs.Total != 1 || st.Jobs.Running != 0 {
		t.Fatalf("stats jobs %+v, want 1 total / 0 running", st.Jobs)
	}
	if st.Cache.Misses == 0 {
		t.Fatalf("stats cache shows no traffic: %+v", st.Cache)
	}
	if st.Runtime.Goroutines <= 0 || st.Runtime.GoVersion == "" {
		t.Fatalf("stats runtime not populated: %+v", st.Runtime)
	}
}

// TestChaosExemptsObservability: with every request drawing an injected
// 500, the observability surface — healthz, stats, metrics — must still
// answer truthfully, while the data plane keeps failing.
func TestChaosExemptsObservability(t *testing.T) {
	_, ts := newFaultyServer(t, Config{PoolSize: 1}, &faults{err: 1})
	for _, path := range []string{"/v1/healthz", "/v1/stats", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s under err=1: HTTP %d, want 200 (exempt)", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET /v1/jobs under err=1: HTTP %d, want injected 500", resp.StatusCode)
	}
}

// TestDebugHandlerServesPprof checks the -pprof mux: the profiler index
// and the shared /metrics + /v1/stats endpoints answer on it, and its
// /metrics passes the exposition-format linter.
func TestDebugHandlerServesPprof(t *testing.T) {
	srv, err := New(Config{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.DebugHandler())
	t.Cleanup(ts.Close)
	for _, path := range []string{"/debug/pprof/", "/metrics", "/v1/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s on debug handler: HTTP %d", path, resp.StatusCode)
		}
		if path != "/metrics" {
			continue
		}
		if len(body) == 0 {
			t.Fatal("debug listener's /metrics is empty")
		}
		if problems := obs.Lint(body); len(problems) != 0 {
			t.Fatalf("debug listener's /metrics fails lint: %v\n%s", problems, body)
		}
	}
}

// TestJobCarriesTraceID: the job record exposes the trace id the trace
// endpoint resolves, and single-daemon jobs trace too.
func TestJobCarriesTraceID(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 2})
	events := postQuery(t, ts, smallQuery)
	if ev := lastEvent(t, events); ev["type"] != "result" {
		t.Fatalf("query ended with %v", ev)
	}
	jobs := srv.Jobs()
	if len(jobs) != 1 || jobs[0].TraceID == "" {
		t.Fatalf("job carries no trace id: %+v", jobs)
	}
	spans, _ := srv.tel.tracer.Spans(jobs[0].TraceID)
	names := map[string]int{}
	for _, sp := range spans {
		names[sp.Name]++
	}
	if names["job"] != 1 {
		t.Fatalf("want exactly one job root span, got %v", names)
	}
	if names["simulate"]+names["cache_hit"]+names["screened"] != 4 {
		t.Fatalf("want 4 point spans, got %v", names)
	}
}
