package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// startObsFleet is startTracedFleet with a fast telemetry-history clock:
// sampling, federation scraping and alert evaluation all run on interval
// so history tests finish in tens of milliseconds, not multiples of the
// production 2s default.
func startObsFleet(t testing.TB, n int, interval time.Duration) (*Server, *httptest.Server, []*Server, []string) {
	t.Helper()
	tss := make([]*httptest.Server, n)
	handlers := make([]lateHandler, n)
	urls := make([]string, n)
	for i := range tss {
		tss[i] = httptest.NewServer(&handlers[i])
		t.Cleanup(tss[i].Close)
		urls[i] = tss[i].URL
	}
	for i := range tss {
		srv, err := New(Config{PoolSize: 2, Peers: urls, Self: urls[i], HistoryInterval: interval})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		handlers[i].set(srv.Handler())
	}
	coord, err := New(Config{Coordinator: true, Peers: urls, HistoryInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)
	workers := make([]*Server, n)
	return coord, cts, workers, urls
}

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestObservabilityHeaders is the satellite regression test: every
// observability route must answer with Cache-Control: no-store (stale
// telemetry from an intermediary is worse than none) and the right
// Content-Type — the exposition version header on text endpoints, JSON
// elsewhere.
func TestObservabilityHeaders(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1, HistoryInterval: 10 * time.Millisecond})
	routes := []struct {
		path string
		ct   string
	}{
		{"/metrics", expositionContentType},
		{"/v1/metrics/fleet", expositionContentType},
		{"/v1/metrics/history?name=wt_uptime_seconds", "application/json"},
		{"/v1/alerts", "application/json"},
		{"/v1/stats", "application/json"},
		{"/v1/healthz", "application/json"},
	}
	for _, rt := range routes {
		resp, err := http.Get(ts.URL + rt.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", rt.path, resp.StatusCode)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Fatalf("GET %s: Cache-Control %q, want no-store", rt.path, cc)
		}
		if ct := resp.Header.Get("Content-Type"); ct != rt.ct {
			t.Fatalf("GET %s: Content-Type %q, want %q", rt.path, ct, rt.ct)
		}
	}
}

// TestFleetMetricsFederation: the coordinator scrapes both workers into
// history, so /v1/metrics/fleet serves one merged, obs.Lint-clean view
// with per-instance series, member-up gauges for every worker, and
// range queries over it answer JSON.
func TestFleetMetricsFederation(t *testing.T) {
	coord, cts, _, urls := startObsFleet(t, 2, 10*time.Millisecond)

	waitFor(t, 5*time.Second, "both workers federated", func() bool {
		up := coord.history.Latest("wt_fleet_member_up")
		if len(up) != 2 {
			return false
		}
		for _, v := range up {
			if v.V != 1 {
				return false
			}
		}
		// Worker registries must actually be in the merged view too.
		return len(coord.history.Latest("wt_uptime_seconds")) == 3 // 2 workers + coordinator
	})

	// scrape fetches the federated view and lints it.
	scrape := func() []byte {
		t.Helper()
		resp, err := http.Get(cts.URL + "/v1/metrics/fleet")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/metrics/fleet: HTTP %d", resp.StatusCode)
		}
		if got := resp.Header.Get(partialHeader); got != "" {
			t.Fatalf("healthy fleet flagged partial: %q", got)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if problems := obs.Lint(body); len(problems) != 0 {
			t.Fatalf("federated exposition fails lint: %v\n%s", problems, body)
		}
		return body
	}
	body := scrape()
	for _, u := range urls {
		if !strings.Contains(string(body), fmt.Sprintf("instance=%q", u)) {
			t.Fatalf("federated view missing instance %s:\n%s", u, body)
		}
	}
	if !strings.Contains(string(body), `instance="coordinator"`) {
		t.Fatalf("federated view missing the coordinator's own series")
	}

	// A view that is only sometimes valid is broken, and one scrape can
	// miss the racing write that breaks it: it lints again after each of
	// five further telemetry rounds.
	lastRound := func() (at time.Time) {
		for _, v := range coord.history.Latest("wt_fleet_member_up") {
			if v.T.After(at) {
				at = v.T
			}
		}
		return at
	}
	for i := 0; i < 5; i++ {
		before := lastRound()
		waitFor(t, 5*time.Second, "a further telemetry round", func() bool { return lastRound().After(before) })
		scrape()
	}

	hresp, err := http.Get(cts.URL + "/v1/metrics/history?name=wt_fleet_member_up&window=1m")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hist HistoryResponse
	if err := json.NewDecoder(hresp.Body).Decode(&hist); err != nil {
		t.Fatal(err)
	}
	if hist.Name != "wt_fleet_member_up" || len(hist.Series) != 2 {
		t.Fatalf("history range query: %+v", hist)
	}
	for _, sr := range hist.Series {
		if len(sr.Points) == 0 {
			t.Fatalf("series %s has no points", sr.Labels)
		}
	}

	// Healthy fleet: no alerts.
	aresp, err := http.Get(cts.URL + "/v1/alerts")
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	var alerts AlertsResponse
	if err := json.NewDecoder(aresp.Body).Decode(&alerts); err != nil {
		t.Fatal(err)
	}
	if alerts.Firing != 0 || alerts.Pending != 0 {
		t.Fatalf("healthy fleet has alerts: %+v", alerts)
	}
}

// TestFederationPartialWorkerDown is the satellite test: with one worker
// dead the federated view keeps serving (no wedge), flags itself
// partial, records member_up 0 for the dead worker — and the
// worker_down alert fires, then resolves when evaluation sees the
// member back.
func TestFederationPartialWorkerDown(t *testing.T) {
	handlers := make([]lateHandler, 2)
	tss := []*httptest.Server{httptest.NewServer(&handlers[0]), httptest.NewServer(&handlers[1])}
	urls := []string{tss[0].URL, tss[1].URL}
	for i := range tss {
		srv, err := New(Config{PoolSize: 1, Peers: urls, Self: urls[i], HistoryInterval: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		handlers[i].set(srv.Handler())
	}
	t.Cleanup(tss[0].Close)
	coord, err := New(Config{Coordinator: true, Peers: urls, HistoryInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	waitFor(t, 5*time.Second, "initial federation", func() bool {
		return len(coord.history.Latest("wt_fleet_member_up")) == 2
	})

	tss[1].Close() // kill one worker

	waitFor(t, 5*time.Second, "dead worker detected", func() bool {
		for _, v := range coord.history.Latest("wt_fleet_member_up") {
			if strings.Contains(v.Labels, urls[1]) && v.V == 0 {
				return true
			}
		}
		return false
	})

	resp, err := http.Get(cts.URL + "/v1/metrics/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial fleet view: HTTP %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(partialHeader); got != "true" {
		t.Fatalf("fleet view with a dead worker: %s=%q, want true", partialHeader, got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if problems := obs.Lint(body); len(problems) != 0 {
		t.Fatalf("partial federated exposition fails lint: %v", problems)
	}
	// The live worker and the coordinator are still in the view.
	if !strings.Contains(string(body), fmt.Sprintf("instance=%q", urls[0])) {
		t.Fatalf("partial view lost the live worker:\n%s", body)
	}

	// worker_down fires for the dead worker's instance.
	waitFor(t, 5*time.Second, "worker_down alert to fire", func() bool {
		for _, a := range coord.alerts.Snapshot().Alerts {
			if a.Rule == "worker_down" && a.State == AlertFiring && strings.Contains(a.Labels, urls[1]) {
				return true
			}
		}
		return false
	})
	if got := coord.alerts.FiringCount(); got != 1 {
		t.Fatalf("firing count %d, want 1", got)
	}

	// healthz carries the firing count without changing its status (the
	// health monitor rejects unknown statuses — alerts must not cascade
	// into fleet failover).
	hzresp, err := http.Get(cts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hzresp.Body.Close()
	var hz struct {
		Status       string `json:"status"`
		AlertsFiring int    `json:"alerts_firing"`
	}
	if err := json.NewDecoder(hzresp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.AlertsFiring != 1 {
		t.Fatalf("healthz %+v, want status ok with 1 firing", hz)
	}
}

// TestTraceEvictedJobTrace is the satellite regression test for
// wtql -trace against an evicted trace: the tracer's LRU admits newer
// jobs' traces by evicting the oldest, after which the job's trace
// endpoint must answer a distinct 404 "trace evicted" — not "no such
// job" — so the client can degrade gracefully.
func TestTraceEvictedJobTrace(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 2})
	events := postQuery(t, ts, smallQuery)
	if ev := lastEvent(t, events); ev["type"] != "result" {
		t.Fatalf("query ended with %v", ev)
	}
	jobID := events[0]["id"].(string)

	// Flood the tracer far past its LRU capacity so the job's trace is
	// evicted while the job record itself is retained.
	for i := 0; i < 2*obs.DefaultMaxTraces; i++ {
		traceID := srv.tel.tracer.NewTraceID()
		srv.tel.tracer.Add(obs.Span{
			TraceID: traceID,
			SpanID:  srv.tel.tracer.NewSpanID(),
			Name:    "flood",
			Start:   time.Now(),
		})
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + jobID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted trace: HTTP %d, want 404", resp.StatusCode)
	}
	var ev ErrorEvent
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.Error != "trace evicted" {
		t.Fatalf("evicted trace error %q, want \"trace evicted\"", ev.Error)
	}

	// The job itself is still fine — that's what makes the client-side
	// degrade-to-notice behavior correct.
	info, ok := srv.Job(jobID)
	if !ok || info.State != JobDone {
		t.Fatalf("job gone or not done: %+v ok=%v", info, ok)
	}
}
