package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// faults wraps a server's handler with the faults the tests inject, so
// that ordinary `go test` exercises the fleet's failover and the
// client's resume paths: per request, a 500 before the handler runs
// (err), or a body that ends partway through — cleanly (drop) or with a
// connection reset (reset) — each drawn from one seeded RNG so a
// failing run replays. cut, when > 0, resets every streaming response
// after that many body writes, with no RNG involved (only the first
// such response with once): a client that reconnects with
// from=<received> advances a few points per attempt and still finishes.
// The control plane is exempt (faultExempt).
type faults struct {
	seed             int64
	err, drop, reset float64
	cut              int
	once             bool

	mu       sync.Mutex
	rng      *rand.Rand
	requests int // data-plane requests seen
	cuts     int // responses cut
}

// faultPlan is the set of faults drawn for one request.
type faultPlan struct {
	err   bool
	reset bool // abort the connection instead of ending the body cleanly
	after int  // > 0: body writes before the drop or reset fires
}

// plan draws one request's faults under the lock, keeping the RNG
// sequence deterministic however many requests race.
func (f *faults) plan(r *http.Request) faultPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(f.seed))
	}
	f.requests++
	var p faultPlan
	if f.err > 0 && f.rng.Float64() < f.err {
		p.err = true
		return p
	}
	// Drop and reset are exclusive: both truncate the body, they differ
	// only in how the connection dies.
	switch {
	case f.drop > 0 && f.rng.Float64() < f.drop:
		p.after = 1 + f.rng.Intn(8)
	case f.reset > 0 && f.rng.Float64() < f.reset:
		p.reset, p.after = true, 1+f.rng.Intn(8)
	case f.cut > 0 && streamingPath(r) && !(f.once && f.cuts > 0):
		f.cuts++
		p.reset, p.after = true, f.cut
	}
	return p
}

// counts returns the data-plane requests seen and the responses cut.
func (f *faults) counts() (requests, cuts int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.requests, f.cuts
}

// errFaultDrop is the sentinel faultWriter panics with to end a body
// cleanly partway through; wrap recovers it, so the truncation looks
// like a handler that simply stopped streaming.
var errFaultDrop = errors.New("injected stream drop")

// faultExempt lists the control-plane paths no fault touches: the
// liveness endpoint (a lying healthz tests the monitor's patience, not
// failover), and the observability surface — an operator debugging a
// faulty run needs /metrics, /v1/stats and the profiler to tell the
// truth about it.
func faultExempt(r *http.Request) bool {
	switch r.URL.Path {
	case "/v1/healthz", "/v1/stats", "/metrics",
		"/v1/metrics/fleet", "/v1/metrics/history", "/v1/alerts":
		return true
	}
	return strings.HasPrefix(r.URL.Path, "/debug/pprof")
}

// streamingPath reports whether a request answers with an NDJSON job
// stream — the only responses a cut targets (cutting a one-shot JSON
// endpoint would test nothing resumable).
func streamingPath(r *http.Request) bool {
	return r.URL.Path == "/v1/query" || strings.HasSuffix(r.URL.Path, "/stream")
}

// wrap returns next with the faults in front of it.
func (f *faults) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if faultExempt(r) {
			next.ServeHTTP(w, r)
			return
		}
		p := f.plan(r)
		if p.err {
			writeJSON(w, http.StatusInternalServerError,
				ErrorEvent{Type: "error", Error: "injected server error"})
			return
		}
		if p.after > 0 {
			defer func() {
				if rec := recover(); rec != nil && rec != errFaultDrop {
					panic(rec)
				}
			}()
			w = &faultWriter{ResponseWriter: w, after: p.after, reset: p.reset}
		}
		next.ServeHTTP(w, r)
	})
}

// faultWriter truncates a response body after a number of writes: a
// drop panics with errFaultDrop (recovered by wrap, so the chunked body
// ends cleanly mid-stream), a reset with http.ErrAbortHandler (net/http
// aborts the connection). What it let through is flushed first, so
// "after N writes" means the client received exactly N of them however
// the handler batches its own flushes.
type faultWriter struct {
	http.ResponseWriter
	writes int
	after  int
	reset  bool
}

func (c *faultWriter) Write(p []byte) (int, error) {
	if c.writes >= c.after {
		c.Flush()
		if c.reset {
			panic(http.ErrAbortHandler)
		}
		panic(errFaultDrop)
	}
	c.writes++
	return c.ResponseWriter.Write(p)
}

// Flush keeps the NDJSON streaming path working under faults — the
// handler's flusher type-assertion must still see a Flusher.
func (c *faultWriter) Flush() {
	if fl, ok := c.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// newFaultyServer is newTestServer with f, when non-nil, in front of
// the handler.
func newFaultyServer(t testing.TB, cfg Config, f *faults) (*Server, *httptest.Server) {
	t.Helper()
	return newTunedServer(t, cfg, f, nil)
}

// newTunedServer is newFaultyServer with tune, when non-nil, applied to
// the server before it serves: a test sets a coordinator's fleet knobs
// there, where no request can race with it.
func newTunedServer(t testing.TB, cfg Config, f *faults, tune func(*Server)) (*Server, *httptest.Server) {
	t.Helper()
	noLeakedCommitters(t)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if tune != nil {
		tune(srv)
	}
	h := srv.Handler()
	if f != nil {
		h = f.wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestChaosDeterministic: two wrappers with the same seed draw the same
// fault sequence — the property that makes a faulty run reproducible.
func TestChaosDeterministic(t *testing.T) {
	a := &faults{seed: 42, err: 0.3, drop: 0.3, reset: 0.3}
	b := &faults{seed: 42, err: 0.3, drop: 0.3, reset: 0.3}
	r := httptest.NewRequest("POST", "/v1/query", nil)
	seen := map[faultPlan]bool{}
	for i := 0; i < 200; i++ {
		pa, pb := a.plan(r), b.plan(r)
		if pa != pb {
			t.Fatalf("plans diverged at request %d: %+v vs %+v", i, pa, pb)
		}
		seen[faultPlan{err: pa.err, reset: pa.reset, after: min(pa.after, 1)}] = true
	}
	// err, drop, reset and none: 200 requests at 30 % rates draw each.
	if len(seen) != 4 {
		t.Fatalf("200 requests at 30%% rates drew only %v", seen)
	}
}

// TestChaosInjectsError: err=1 turns every data-plane request into a
// 500 — except healthz, which stays exempt so the health monitor keeps
// seeing the truth.
func TestChaosInjectsError(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
		w.Write([]byte("ok\n"))
	})
	f := &faults{err: 1}
	ts := httptest.NewServer(f.wrap(inner))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("err fault returned %d, want 500", resp.StatusCode)
	}

	hz, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz not exempt from faults: %d", hz.StatusCode)
	}
	if requests, _ := f.counts(); requests != 1 {
		t.Fatalf("1 data + 1 healthz request counted as %d data-plane requests", requests)
	}
}

// TestChaosDropTruncatesStream: drop=1 ends a streaming body early with
// a clean EOF, and the server survives to serve the next request.
func TestChaosDropTruncatesStream(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl, _ := w.(http.Flusher)
		for i := 0; i < 100; i++ {
			w.Write([]byte(strings.Repeat("x", 32) + "\n"))
			if fl != nil {
				fl.Flush()
			}
		}
	})
	f := &faults{seed: 3, drop: 1}
	ts := httptest.NewServer(f.wrap(inner))
	t.Cleanup(ts.Close)

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("drop should end the body cleanly, got read error %v", err)
		}
		if len(body) >= 100*33 {
			t.Fatalf("drop did not truncate: %d bytes through", len(body))
		}
	}
}

// chaosQuery is the 12-point sweep of the fleet chaos test: enough
// points for a mid-sweep moment to kill a worker at.
const chaosQuery = `SIMULATE availability
VARY cluster.nodes IN (5, 6, 7, 8, 9, 10), storage.replication IN (1, 3)
WITH users = 50, trials = 3, horizon_hours = 1000
WHERE sla.availability >= 0.5
ORDER BY cost.total ASC`

// TestChaosFleetSurvives is the fleet's fault-tolerance check. Three
// workers inject 500s, dropped streams and connection resets; once the
// coordinator's job passes 6 of its 12 points, one worker is killed —
// its server closed, client connections included. The job must still
// render the single-daemon table byte for byte, with zero error events
// and degraded=false on both the result event and the job record: the
// surviving workers absorb every failed shard, and the coordinator
// never executes a point itself. A second sweep on the two survivors
// renders the same table.
func TestChaosFleetSurvives(t *testing.T) {
	_, single := newTestServer(t, Config{PoolSize: 2})
	want := lastEvent(t, postQuery(t, single, chaosQuery))["table"]

	workers := make([]*httptest.Server, 3)
	urls := make([]string, 3)
	for i := range workers {
		f := &faults{seed: int64(11 + i), err: 0.1, drop: 0.3, reset: 0.2}
		_, workers[i] = newFaultyServer(t, Config{PoolSize: 2}, f)
		urls[i] = workers[i].URL
	}
	coord, cts := newTunedServer(t, Config{Coordinator: true, Peers: urls}, nil, func(s *Server) { s.fleet.maxShardRetries = 10 })

	resp, err := http.Post(cts.URL+"/v1/query", "text/plain", strings.NewReader(chaosQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []map[string]any
	killedAt := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
		if ev["type"] == "error" {
			t.Fatalf("chaos fleet surfaced a job-level error: %v", ev)
		}
		if done, _ := ev["done"].(float64); killedAt == 0 && done >= 6 {
			killedAt = int(done)
			workers[0].CloseClientConnections()
			workers[0].Close()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if killedAt == 0 {
		t.Fatal("the job never passed 6/12: no worker was killed mid-sweep")
	}
	t.Logf("killed worker 0 at %d/12", killedAt)
	final := lastEvent(t, events)
	if final["type"] != "result" {
		t.Fatalf("chaos fleet ended with %v", final)
	}
	if final["table"] != want {
		t.Fatalf("chaos fleet table differs from single-daemon run:\n--- single ---\n%v--- chaos ---\n%v",
			want, final["table"])
	}
	if final["degraded"] != false {
		t.Fatalf("chaos fleet result reported degraded=%v: the coordinator executed points", final["degraded"])
	}
	if info, ok := coord.Job(final["id"].(string)); !ok || info.Degraded {
		t.Fatalf("chaos fleet job record %+v (found %v): want degraded=false", info, ok)
	}

	again := postQuery(t, cts, chaosQuery)
	for _, ev := range again {
		if ev["type"] == "error" {
			t.Fatalf("second sweep on the survivors surfaced an error: %v", ev)
		}
	}
	if got := lastEvent(t, again)["table"]; got != want {
		t.Fatalf("second sweep on the survivors differs from single-daemon run:\n--- single ---\n%v--- survivors ---\n%v",
			want, got)
	}
}
