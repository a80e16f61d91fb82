package service

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestFleetFailoverMidStreamKill is the golden failover check the issue
// asks for: kill a worker mid-sweep (its NDJSON stream resets after the
// job line plus one point event) and assert the coordinator re-plans
// the shard's undelivered points onto the survivor, finishes with zero
// job-level errors, reports degraded=false, and renders the exact bytes
// of a single-daemon run.
func TestFleetFailoverMidStreamKill(t *testing.T) {
	_, single := newTestServer(t, Config{PoolSize: 2})
	want := lastEvent(t, postQuery(t, single, smallQuery))

	// Whichever worker receives the first query stream gets killed after
	// two body writes (the job event + one point event), so the kill is
	// mid-sweep regardless of how the ring splits the four points.
	kill := &faults{cut: 2, once: true}
	urls := make([]string, 2)
	for i := range urls {
		_, ts := newFaultyServer(t, Config{PoolSize: 2}, kill)
		urls[i] = ts.URL
	}
	_, cts := newTestServer(t, Config{Coordinator: true, Peers: urls})

	events := postQuery(t, cts, smallQuery)
	for _, ev := range events {
		if ev["type"] == "error" {
			t.Fatalf("mid-stream worker kill surfaced a job-level error: %v", ev)
		}
	}
	final := lastEvent(t, events)
	if final["type"] != "result" {
		t.Fatalf("fleet ended with %v after mid-stream kill", final)
	}
	if _, cuts := kill.counts(); cuts != 1 {
		t.Fatal("kill middleware never fired: the test exercised nothing")
	}
	if final["table"] != want["table"] {
		t.Fatalf("post-failover table differs from single-daemon run:\n--- single ---\n%v--- fleet ---\n%v",
			want["table"], final["table"])
	}
	if final["degraded"] != false {
		t.Fatalf("failover to a live worker reported degraded=%v", final["degraded"])
	}
	// The merge must still commit in global order, all four points.
	done := 0
	for _, ev := range events {
		if ev["type"] != "point" {
			continue
		}
		done++
		if int(ev["done"].(float64)) != done {
			t.Fatalf("post-failover merge out of order: done=%v at position %d", ev["done"], done)
		}
	}
	if done != 4 {
		t.Fatalf("post-failover merge committed %d points, want 4", done)
	}
}

// TestFleetDegradedLocalFallback: when every retry target is exhausted
// (here: a one-worker fleet whose only worker resets every stream), the
// coordinator must degrade to local execution — same bytes, zero
// errors, degraded=true on the result event and the job record.
func TestFleetDegradedLocalFallback(t *testing.T) {
	_, single := newTestServer(t, Config{PoolSize: 2})
	want := lastEvent(t, postQuery(t, single, smallQuery))

	// Every query stream dies after the job line: the worker is alive
	// (healthz answers) but never delivers a single point.
	_, ts := newFaultyServer(t, Config{PoolSize: 2}, &faults{cut: 1})

	coord, cts := newTestServer(t, Config{Coordinator: true, Peers: []string{ts.URL}})
	events := postQuery(t, cts, smallQuery)
	for _, ev := range events {
		if ev["type"] == "error" {
			t.Fatalf("degraded fallback surfaced a job-level error: %v", ev)
		}
	}
	final := lastEvent(t, events)
	if final["type"] != "result" {
		t.Fatalf("degraded fallback ended with %v", final)
	}
	if final["table"] != want["table"] {
		t.Fatalf("degraded table differs from single-daemon run:\n--- single ---\n%v--- degraded ---\n%v",
			want["table"], final["table"])
	}
	if final["degraded"] != true {
		t.Fatal("coordinator-local fallback did not report degraded=true")
	}
	localPoints := 0
	for _, ev := range events {
		if ev["type"] == "point" && ev["worker"] == localWorker {
			localPoints++
			if ev["degraded"] != true {
				t.Fatalf("locally-served point event missing degraded flag: %v", ev)
			}
		}
	}
	if localPoints != 4 {
		t.Fatalf("%d of 4 points served locally, want all (the only worker never delivers)", localPoints)
	}
	jobs := coord.Jobs()
	if len(jobs) != 1 || !jobs[0].Degraded {
		t.Fatalf("job registry does not record the degradation: %+v", jobs)
	}
}

// TestFleetStreamIdleFailover: a worker that accepts a shard and then
// stalls (connection open, no events) must trip the per-stream idle
// deadline and fail over rather than hanging the job forever.
func TestFleetStreamIdleFailover(t *testing.T) {
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		json.NewEncoder(w).Encode(JobEvent{Type: "job", ID: "job-hung"})
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		<-r.Context().Done() // stall until the coordinator gives up
	}))
	t.Cleanup(hung.Close)

	_, cts := newTunedServer(t, Config{Coordinator: true, Peers: []string{hung.URL}, PoolSize: 2}, nil,
		func(s *Server) { s.fleet.idleTimeout = 100 * time.Millisecond })
	start := time.Now()
	final := lastEvent(t, postQuery(t, cts, smallQuery))
	if final["type"] != "result" {
		t.Fatalf("idle-stalled worker ended the job with %v", final)
	}
	if final["degraded"] != true {
		t.Fatal("sole-worker stall should degrade to local execution")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("idle failover took %v — the deadline did not fire", elapsed)
	}
}

// TestFleetDrainDuringJob: BeginDrain on a coordinator mid-merge must
// let the in-flight fleet job stream to completion while refusing new
// queries with 503.
func TestFleetDrainDuringJob(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once atomic.Bool

	srv, err := New(Config{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" && once.CompareAndSwap(false, true) {
			close(entered)
			<-release // hold the stream open until the test has drained
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	coord, cts := newTestServer(t, Config{Coordinator: true, Peers: []string{ts.URL}})

	type res struct{ final map[string]any }
	doneCh := make(chan res, 1)
	go func() {
		events := postQuery(t, cts, smallQuery)
		doneCh <- res{lastEvent(t, events)}
	}()

	<-entered
	coord.BeginDrain()

	// New work is refused immediately...
	resp, err := http.Post(cts.URL+"/v1/query", "text/plain", strings.NewReader(smallQuery))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining coordinator answered a new query with %d, want 503", resp.StatusCode)
	}
	// ...and the draining coordinator says so on healthz.
	hr, err := http.Get(cts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb map[string]string
	json.NewDecoder(hr.Body).Decode(&hb)
	hr.Body.Close()
	if hb["status"] != "draining" {
		t.Fatalf("draining healthz reported %q", hb["status"])
	}

	// The in-flight merge finishes normally once the worker resumes.
	close(release)
	select {
	case r := <-doneCh:
		if r.final["type"] != "result" {
			t.Fatalf("in-flight job under drain ended with %v", r.final)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight fleet job did not finish under drain")
	}
}

// TestHealthTreatsDrainingAsSuspect: a draining worker still answers
// probes, so it must become suspect (no new shards) — not failed, and
// still reachable for cache peering.
func TestHealthTreatsDrainingAsSuspect(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	h := NewHealth([]string{ts.URL})
	h.Probe(context.Background())
	if st := h.State(ts.URL); st != StateUp {
		t.Fatalf("healthy worker probed as %v", st)
	}

	srv.BeginDrain()
	h.Probe(context.Background())
	if st := h.State(ts.URL); st != StateSuspect {
		t.Fatalf("draining worker probed as %v, want suspect", st)
	}
	if h.Assignable(ts.URL) {
		t.Fatal("draining worker still assignable for new shards")
	}
	if !h.Reachable(ts.URL) {
		t.Fatal("draining worker treated as down — it is alive and finishing work")
	}
	snap := h.Snapshot()
	if len(snap) != 1 || !snap[0].Draining {
		t.Fatalf("snapshot does not mark the member draining: %+v", snap)
	}
}

// TestPassiveSuccessKeepsDraining: a draining worker finishing an
// in-flight shard reports a passive success, which says nothing about
// draining. Until PR 25 it cleared Draining and made the worker up —
// assignable until the next probe, so the next job's shard to it drew a
// 503 that counted as a worker failure and a re-plan.
func TestPassiveSuccessKeepsDraining(t *testing.T) {
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"draining"}`))
	}))
	defer draining.Close()
	h := NewHealth([]string{draining.URL})
	h.Probe(context.Background())
	h.ReportSuccess(draining.URL)
	if h.Assignable(draining.URL) {
		t.Fatal("a passive success made a draining worker assignable")
	}
	if st := h.State(draining.URL); st != StateSuspect {
		t.Fatalf("draining worker is %v after a passive success, want suspect", st)
	}
}

// hungMember returns the URL of a listener that accepts connections
// and never answers on them, closed when the test ends.
func hungMember(t testing.TB) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	return "http://" + ln.Addr().String()
}

// TestCachePeerDownSkipsFast is the <10ms-per-key assertion: a
// peer the health monitor holds down must be skipped before any dial,
// so a dead peer costs microseconds per key instead of the peer
// client's 2s timeout.
func TestCachePeerDownSkipsFast(t *testing.T) {
	// Any actual dial against a hung member would burn the full client
	// timeout.
	hungURL := hungMember(t)

	c, err := NewCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://self.invalid"
	c.EnablePeering([]string{hungURL, self}, self, nil)
	h := NewHealth([]string{hungURL})
	for range downAfter {
		h.ReportFailure(hungURL, nil)
	}
	if h.State(hungURL) != StateDown {
		t.Fatalf("3 failures left the peer %v", h.State(hungURL))
	}
	c.SetHealth(h)

	const keys = 20
	start := time.Now()
	for i := 0; i < keys; i++ {
		key := strings.Repeat("0", 62) + string(rune('a'+i%6)) + string(rune('0'+i%10))
		if _, ok := c.Get(key); ok {
			t.Fatal("down peer produced a hit")
		}
	}
	elapsed := time.Since(start)
	// 10ms per key is the ceiling the issue sets; an actual dial against
	// the hung listener would cost 2s per key.
	if elapsed > time.Duration(keys)*10*time.Millisecond {
		t.Fatalf("%d lookups against a down peer took %v, want <10ms per key", keys, elapsed)
	}
	if st := c.Stats(); st.PeerSkips != keys {
		t.Fatalf("peer skips = %d, want %d: %+v", st.PeerSkips, keys, st)
	}
}

// TestCachePeerTransientRetry: a 5xx from the owner peer gets one short
// retry — a momentarily-overloaded peer still hands the entry to the
// LRU promotion path — while a persistent transient status degrades to
// a miss without ever counting a peer hit.
func TestCachePeerTransientRetry(t *testing.T) {
	key := strings.Repeat("4e5f", 16)
	rec := recordFrom(dummyResult("flaky", 0.625))
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, rec)
	}))
	t.Cleanup(flaky.Close)

	c, err := NewCache(8, "")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://self.invalid"
	c.EnablePeering([]string{flaky.URL, self}, self, nil)

	got, ok := c.Get(key)
	if !ok {
		t.Fatal("transient 500 was not retried")
	}
	if got.Metrics["availability"] != 0.625 {
		t.Fatalf("retried fetch returned wrong entry: %+v", got)
	}
	if st := c.Stats(); st.PeerRetries != 1 || st.PeerHits != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("transient-retry stats: %+v", st)
	}

	// Persistent 429: retried once, then a plain miss — peer_hits stays
	// clean.
	overloaded := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	t.Cleanup(overloaded.Close)
	c2, err := NewCache(8, "")
	if err != nil {
		t.Fatal(err)
	}
	c2.EnablePeering([]string{overloaded.URL, self}, self, nil)
	if _, ok := c2.Get(strings.Repeat("6a7b", 16)); ok {
		t.Fatal("persistent 429 produced a hit")
	}
	if st := c2.Stats(); st.PeerRetries != 1 || st.PeerHits != 0 || st.Misses != 1 {
		t.Fatalf("persistent-429 stats: %+v", st)
	}
}

// TestCachePeerFetchHonorsContext: a cancelled job context aborts an
// in-flight peer fetch immediately instead of riding out the fetch
// client's 2s timeout.
func TestCachePeerFetchHonorsContext(t *testing.T) {
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(stall.Close)

	c, err := NewCache(8, "")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://self.invalid"
	c.EnablePeering([]string{stall.URL, self}, self, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, ok := c.GetContext(ctx, strings.Repeat("8c9d", 16)); ok {
		t.Fatal("stalled peer produced a hit")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled peer fetch took %v, want ~the 50ms context deadline", elapsed)
	}
}

// TestFleetEndpoint covers GET /v1/fleet: a coordinator exposes its
// mode and the per-member health snapshot; a single daemon answers too
// (mode "single", no members) so clients can probe any server alike.
func TestFleetEndpoint(t *testing.T) {
	_, single := newTestServer(t, Config{PoolSize: 1})
	var got struct {
		Mode    string         `json:"mode"`
		Members []MemberHealth `json:"members"`
	}
	mustGetJSON(t, single.URL+"/v1/fleet", &got)
	if got.Mode != "single" || len(got.Members) != 0 {
		t.Fatalf("single-daemon fleet endpoint: %+v", got)
	}

	_, cts, _, urls := startFleet(t, 2, false)
	mustGetJSON(t, cts.URL+"/v1/fleet", &got)
	if got.Mode != "coordinator" {
		t.Fatalf("coordinator mode = %q", got.Mode)
	}
	if len(got.Members) != len(urls) {
		t.Fatalf("fleet endpoint lists %d members, want %d", len(got.Members), len(urls))
	}
	for _, m := range got.Members {
		if m.URL == "" || m.State == "" {
			t.Fatalf("member missing url/state: %+v", m)
		}
	}
}

func mustGetJSON(t testing.TB, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s returned %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
