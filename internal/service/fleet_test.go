package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wtql"
)

// startFleet launches n workers (each with its own cache, peered over
// the full member list) plus one coordinator sharding across them. It
// returns the coordinator's server and test URL, and the worker
// servers in URL order.
func startFleet(t testing.TB, n int, diskCache bool) (*Server, *httptest.Server, []*Server, []string) {
	t.Helper()
	workers := make([]*Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := Config{PoolSize: 2}
		if diskCache {
			cfg.CacheDir = t.TempDir()
		}
		srv, ts := newTestServer(t, cfg)
		workers[i] = srv
		urls[i] = ts.URL
	}
	// httptest URLs exist only after the servers start, so peering is
	// wired afterwards — same ring, each worker its own self.
	for i, w := range workers {
		w.Cache().EnablePeering(urls, urls[i], nil)
	}
	coord, cts := newTestServer(t, Config{Coordinator: true, Peers: urls})
	return coord, cts, workers, urls
}

// TestFleetByteIdenticalMerge is the tentpole's golden check: a sweep
// sharded across two workers and merged by the coordinator must render
// the very bytes a single daemon produces, with point events arriving
// in global order and labelled with their serving worker.
func TestFleetByteIdenticalMerge(t *testing.T) {
	_, single := newTestServer(t, Config{PoolSize: 2})
	want := lastEvent(t, postQuery(t, single, smallQuery))

	_, cts, _, urls := startFleet(t, 2, false)
	events := postQuery(t, cts, smallQuery)
	got := lastEvent(t, events)

	if got["type"] != "result" {
		t.Fatalf("fleet query ended with %v", got)
	}
	wantTable, _ := want["table"].(string)
	gotTable, _ := got["table"].(string)
	if wantTable == "" || wantTable != gotTable {
		t.Fatalf("fleet table differs from single-daemon run:\n--- single ---\n%s--- fleet ---\n%s",
			wantTable, gotTable)
	}

	valid := map[string]bool{}
	for _, u := range urls {
		valid[u] = true
	}
	done := 0
	for _, ev := range events {
		if ev["type"] != "point" {
			continue
		}
		done++
		if int(ev["done"].(float64)) != done || int(ev["total"].(float64)) != 4 {
			t.Fatalf("merged point events out of order: done=%v total=%v at position %d",
				ev["done"], ev["total"], done)
		}
		w, _ := ev["worker"].(string)
		if !valid[w] {
			t.Fatalf("point event names unknown worker %q", w)
		}
	}
	if done != 4 {
		t.Fatalf("coordinator streamed %d point events, want 4", done)
	}
}

// TestFleetSecondPassHitsCaches reruns a sweep through the coordinator:
// every point must come back cached, because each point re-shards to
// the worker that simulated it the first time.
func TestFleetSecondPassHitsCaches(t *testing.T) {
	_, cts, workers, _ := startFleet(t, 2, false)

	cold := lastEvent(t, postQuery(t, cts, smallQuery))
	if cold["cache_hits"].(float64) != 0 {
		t.Fatalf("cold fleet run reported cache hits: %v", cold["cache_hits"])
	}
	warm := lastEvent(t, postQuery(t, cts, smallQuery))
	executed := warm["executed"].(float64)
	hits := warm["cache_hits"].(float64)
	if executed == 0 || hits < 0.9*executed {
		t.Fatalf("warm fleet run hit %v of %v executed points, want >= 90%%", hits, executed)
	}
	if coldT, warmT := cold["table"], warm["table"]; coldT != warmT {
		t.Fatalf("warm fleet table differs from cold:\n%v\nvs\n%v", coldT, warmT)
	}
	var hitsTotal uint64
	for _, w := range workers {
		hitsTotal += w.Cache().Stats().Hits
	}
	if hitsTotal < 4 {
		t.Fatalf("workers' caches recorded %d hits across the warm pass, want >= 4", hitsTotal)
	}
}

// TestFleetDeadWorkerFailsOver: a worker that is down when a query
// arrives must not fail the job — its shard fails over to the survivor
// and the merged table stays byte-identical to a single-daemon run,
// with no degradation (the fleet, not the coordinator, served it). When
// the worker went down after two identical jobs, the third is not the
// answer the coordinator kept, even with every point cached on the
// survivor: its point lines name the survivor, and it is not marked
// reused.
func TestFleetDeadWorkerFailsOver(t *testing.T) {
	_, single := newTestServer(t, Config{PoolSize: 2})
	want := lastEvent(t, postQuery(t, single, smallQuery))

	for _, c := range []struct {
		name string
		// before is how many jobs run with both workers up; the worker that
		// served the last one's first point then goes down.
		before int
	}{
		{name: "down before the query"},
		{name: "down after two jobs", before: 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			tss := make(map[string]*httptest.Server, 2)
			urls := make([]string, 2)
			for i := range urls {
				_, ts := newTestServer(t, Config{PoolSize: 2})
				urls[i], tss[ts.URL] = ts.URL, ts
			}
			coord, cts := newTestServer(t, Config{Coordinator: true, Peers: urls})

			dead := urls[1]
			for n := 0; n < c.before; n++ {
				dead, _ = postQuery(t, cts, smallQuery)[1]["worker"].(string)
			}
			if c.before > 0 {
				if coord.plans.get(planKey{query: smallQuery}).last.Load() == nil {
					t.Fatal("the coordinator kept no answer: the re-ask would not be a re-send either way")
				}
				// The survivor holds every point, so the moved points' lines
				// differ from the kept ones in the worker they name alone.
				survivor := urls[0]
				if survivor == dead {
					survivor = urls[1]
				}
				postQuery(t, tss[survivor], smallQuery)
			}
			tss[dead].Close()

			events := postQuery(t, cts, smallQuery)
			final := lastEvent(t, events)
			if final["type"] != "result" {
				t.Fatalf("fleet with a dead worker ended with %v, want failover to the survivor", final)
			}
			if final["table"] != want["table"] {
				t.Fatalf("failover table differs from single-daemon run:\n--- single ---\n%v--- fleet ---\n%v",
					want["table"], final["table"])
			}
			if final["degraded"] != false {
				t.Fatalf("failover to a healthy survivor reported degraded=%v", final["degraded"])
			}
			for _, ev := range events {
				if ev["type"] == "point" && (ev["worker"] == dead || ev["worker"] == localWorker) {
					t.Fatalf("a point line names %v, not the survivor: %v", ev["worker"], ev)
				}
			}
			if id, _ := events[0]["id"].(string); reused(t, coord, id) {
				t.Fatal("a job whose shard moved re-sent the kept answer")
			}
		})
	}
}

// TestFleetShardsMonotoneSweep: a MONOTONE sweep runs on the workers
// like any other — every worker that owns a point gets a shard, and the
// coordinator prunes as the outcomes commit — so its table and counts are
// a single daemon's, byte for byte, on two workers and on three, and when
// a worker dies mid-sweep. No point runs on the coordinator, and a repeat
// re-sends the answer kept from the sweep before it: the third sweep, or,
// when the death moved a point to a worker that had not simulated it, the
// fourth.
func TestFleetShardsMonotoneSweep(t *testing.T) {
	_, single := newTestServer(t, Config{PoolSize: 2})
	want := lastEvent(t, postQuery(t, single, monotoneQuery))
	if want["pruned"].(float64) == 0 || want["executed"].(float64) == 0 {
		t.Fatalf("the sweep prunes nothing or runs nothing: %v", want)
	}
	for _, c := range []struct {
		name    string
		workers int
		kill    *faults // cuts the first shard stream after one point, when set
	}{
		{name: "2 workers", workers: 2},
		{name: "3 workers", workers: 3},
		{name: "a worker dies mid-sweep", workers: 2, kill: &faults{cut: 2, once: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			workers := make([]*Server, c.workers)
			urls := make([]string, c.workers)
			for i := range workers {
				var ts *httptest.Server
				workers[i], ts = newFaultyServer(t, Config{PoolSize: 2}, c.kill)
				urls[i] = ts.URL
			}
			// One probe round, at start-up: the members' health then moves
			// only with the jobs' own traffic, so the second and third jobs
			// place their points alike.
			coord, cts := newTestServer(t, Config{Coordinator: true, Peers: urls, HistoryInterval: time.Hour})
			jobs := 3
			if c.kill != nil {
				jobs = 4
			}
			var ids []string
			for n := 1; n <= jobs; n++ {
				events := postQuery(t, cts, monotoneQuery)
				final := lastEvent(t, events)
				for _, field := range []string{"type", "table", "executed", "pruned", "screened", "degraded"} {
					if final[field] != want[field] {
						t.Fatalf("job %d: %s = %v, a single daemon's is %v\n%v", n, field, final[field], want[field], final)
					}
				}
				for _, ev := range events {
					w, _ := ev["worker"].(string)
					if ev["type"] == "point" && (w == localWorker || (w == "") != (ev["pruned"] == true)) {
						t.Fatalf("job %d: point %v served by %q", n, ev["index"], w)
					}
				}
				ids = append(ids, events[0]["id"].(string))
			}
			if c.kill != nil {
				if _, cuts := c.kill.counts(); cuts != 1 {
					t.Fatal("no worker died: the case exercised nothing")
				}
			}
			if reused(t, coord, ids[0]) || !reused(t, coord, ids[jobs-1]) {
				t.Fatalf("job %d did not re-send the answer of the job before it", jobs)
			}
			// Every worker that owns a point saw a shard of the first job.
			plan, err := coord.engine().Plan(mustParse(t, monotoneQuery))
			if err != nil {
				t.Fatal(err)
			}
			keys, err := plan.PointKeys()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				owner, _ := coord.fleet.ring.Owner(k)
				for i, u := range urls {
					if u == owner && len(workers[i].Jobs()) == 0 {
						t.Fatalf("worker %s owns a point and saw no shard", u)
					}
				}
			}
		})
	}
}

// mustParse parses a query.
func mustParse(t testing.TB, query string) *wtql.Query {
	t.Helper()
	q, err := wtql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// fakeWorker is a fleet member that answers every shard with a job line
// and then whatever serve writes, and every other request with a healthy
// healthz body.
func fakeWorker(t testing.TB, serve func(w http.ResponseWriter, r *http.Request, req QueryRequest)) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/query" {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
		var req QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("shard request: %v", err)
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write([]byte(`{"type":"job","id":"job-fake"}` + "\n"))
		serve(w, r, req)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// hang holds a fake worker's stream open, flushed, until the coordinator
// gives it up.
func hang(w http.ResponseWriter, r *http.Request) {
	w.(http.Flusher).Flush()
	<-r.Context().Done()
}

// noFleetGoroutines fails t unless every goroutine of a fleet run — the
// collector, the shard streams, a point waiting on them — is gone soon.
func noFleetGoroutines(t testing.TB) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		if !bytes.Contains(buf, []byte("(*fleetRun).")) && !bytes.Contains(buf, []byte("(*fleet).stream(")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a fleet run's goroutines outlived its job:\n%s", buf)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFleetRefusesUnservedPoints: what a worker streams is outside input.
// A point it calls pruned that no failure committed before it dominates,
// or one that is not pruned and carries no metrics, fails the job with an
// error naming the worker and the point, and the run's stream, left
// open by the worker, is torn down with it.
func TestFleetRefusesUnservedPoints(t *testing.T) {
	for _, c := range []struct{ name, query, event, want string }{
		{"pruned", monotoneQuery, `{"type":"point","index":0,"pruned":true,"all_met":false}`,
			"pruned, but no failure committed before it dominates it"},
		{"no result", smallQuery, `{"type":"point","index":0,"all_met":true}`, "no result"},
	} {
		t.Run(c.name, func(t *testing.T) {
			worker := fakeWorker(t, func(w http.ResponseWriter, r *http.Request, req QueryRequest) {
				w.Write([]byte(c.event + "\n"))
				hang(w, r)
			})
			_, cts := newTestServer(t, Config{Coordinator: true, Peers: []string{worker.URL}})
			final := lastEvent(t, postQuery(t, cts, c.query))
			msg, _ := final["error"].(string)
			if final["type"] != "error" || !strings.Contains(msg, "point 0 served by "+worker.URL+": "+c.want) {
				t.Fatalf("the job ended with %v, want an error naming %s, point 0 and %q", final, worker.URL, c.want)
			}
			noFleetGoroutines(t)
		})
	}
}

// TestFleetRunEndsWithItsJob: when the explorer stops early — its job
// cancelled, or failed by one worker's own error — the fleet's goroutines
// end with it, the streams of workers still running included.
func TestFleetRunEndsWithItsJob(t *testing.T) {
	t.Run("cancelled", func(t *testing.T) {
		asked := make(chan struct{}, 1)
		worker := fakeWorker(t, func(w http.ResponseWriter, r *http.Request, req QueryRequest) {
			asked <- struct{}{}
			hang(w, r)
		})
		coord, cts := newTestServer(t, Config{Coordinator: true, Peers: []string{worker.URL}})
		go func() {
			<-asked
			coord.CancelAll()
		}()
		final := lastEvent(t, postQuery(t, cts, smallQuery))
		if jobs := coord.Jobs(); final["type"] != "error" || len(jobs) != 1 || jobs[0].State != JobCancelled {
			t.Fatalf("the job ended with %v, state %+v", final, jobs)
		}
		noFleetGoroutines(t)
	})
	t.Run("a worker's own error", func(t *testing.T) {
		// The owner of point 0 fails the query; any other worker hangs.
		var owner0 atomic.Value
		serve := func(w http.ResponseWriter, r *http.Request, req QueryRequest) {
			if slices.Contains(req.Points, 0) {
				owner0.Store(true)
				w.Write([]byte(`{"type":"error","error":"wtql: boom"}` + "\n"))
				return
			}
			hang(w, r)
		}
		urls := []string{fakeWorker(t, serve).URL, fakeWorker(t, serve).URL}
		coord, cts := newTestServer(t, Config{Coordinator: true, Peers: urls})
		query := splitQuery(t, coord)
		final := lastEvent(t, postQuery(t, cts, query))
		if final["type"] != "error" || final["error"] != "wtql: boom" {
			t.Fatalf("the job ended with %v, want the worker's error", final)
		}
		if owner0.Load() == nil {
			t.Fatal("no worker was asked for point 0")
		}
		noFleetGoroutines(t)
	})
}

// splitQuery returns a 4-point sweep whose points coord's ring spreads
// over more than one worker, so that one shard can outlive another.
func splitQuery(t *testing.T, coord *Server) string {
	t.Helper()
	for seed := 1; seed < 100; seed++ {
		query := strings.Replace(smallQuery, "trials = 2", "trials = 2, seed = "+strconv.Itoa(seed), 1)
		plan, err := coord.engine().Plan(mustParse(t, query))
		if err != nil {
			t.Fatal(err)
		}
		keys, err := plan.PointKeys()
		if err != nil {
			t.Fatal(err)
		}
		owners := map[string]bool{}
		for _, k := range keys {
			o, _ := coord.fleet.ring.Owner(k)
			owners[o] = true
		}
		if len(owners) > 1 {
			return query
		}
	}
	t.Fatal("no seed spreads the sweep over two workers")
	return ""
}

// TestFleetShardsToSuspectMembers: a coordinator whose first probe round
// ran before its workers listened holds every worker suspect after one
// failed observation. The sweep still shards across them, not degraded —
// the first placement falls back to reachable members as failover does —
// and each worker is up again after its first served shard.
func TestFleetShardsToSuspectMembers(t *testing.T) {
	_, single := newTestServer(t, Config{PoolSize: 2})
	want := lastEvent(t, postQuery(t, single, smallQuery))

	var listening atomic.Bool
	urls := make([]string, 2)
	for i := range urls {
		srv, _ := newTestServer(t, Config{PoolSize: 2})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !listening.Load() {
				http.Error(w, "not listening yet", http.StatusServiceUnavailable)
				return
			}
			srv.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	// One round, at start-up: it finds every worker failing.
	coord, cts := newTestServer(t, Config{Coordinator: true, Peers: urls, HistoryInterval: time.Hour})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if coord.health.State(urls[0]) == StateSuspect && coord.health.State(urls[1]) == StateSuspect {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the first round left the members %v", coord.health.Snapshot())
		}
	}
	listening.Store(true)

	events := postQuery(t, cts, smallQuery)
	final := lastEvent(t, events)
	if final["type"] != "result" || final["table"] != want["table"] || final["degraded"] != false {
		t.Fatalf("the sweep over suspect workers ended with type=%v degraded=%v error=%v", final["type"], final["degraded"], final["error"])
	}
	for _, ev := range events {
		if w, _ := ev["worker"].(string); ev["type"] == "point" && w != urls[0] && w != urls[1] {
			t.Fatalf("point %v served by %q, want a worker", ev["index"], w)
		}
	}
	for _, m := range coord.health.Snapshot() {
		if served := slices.ContainsFunc(events, func(ev map[string]any) bool { return ev["worker"] == m.URL }); served && m.State != StateUp {
			t.Errorf("member %s served a shard and is still %s", m.URL, m.State)
		}
	}
}

// TestWorkerSubsetExecution drives the worker half of the protocol
// directly: a Points shard must execute only those indices and stream
// their global positions.
func TestWorkerSubsetExecution(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 2})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		bytes.NewReader(mustJSON(t, QueryRequest{Query: smallQuery, Points: []int{1, 3}})))
	if err != nil {
		t.Fatal(err)
	}
	events := decodeStream(t, resp)
	var indices []int
	for _, ev := range events {
		if ev["type"] == "point" {
			indices = append(indices, int(ev["index"].(float64)))
			if ev["total"].(float64) != 2 {
				t.Fatalf("subset total = %v, want 2", ev["total"])
			}
		}
	}
	if len(indices) != 2 || indices[0] != 1 || indices[1] != 3 {
		t.Fatalf("subset executed indices %v, want [1 3]", indices)
	}
	final := lastEvent(t, events)
	if final["type"] != "result" || final["executed"].(float64) != 2 {
		t.Fatalf("subset final event = %v", final)
	}
}

// TestWorkerRejectsBadSubset: a non-ascending or out-of-range shard is
// a client error, not a panic.
func TestWorkerRejectsBadSubset(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 2})
	for _, points := range [][]int{{3, 1}, {0, 0}, {0, 99}, {-1}} {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json",
			bytes.NewReader(mustJSON(t, QueryRequest{Query: smallQuery, Points: points})))
		if err != nil {
			t.Fatal(err)
		}
		final := lastEvent(t, decodeStream(t, resp))
		if final["type"] != "error" {
			t.Fatalf("subset %v accepted: %v", points, final)
		}
	}
}

// TestRingDeterministicAndComplete checks the consistent-hash ring:
// same members in any order agree on every owner, ownership spans all
// members on a reasonable key population, and removing a member only
// moves the removed member's keys.
func TestRingDeterministicAndComplete(t *testing.T) {
	a := NewRing([]string{"http://w1", "http://w2", "http://w3"})
	b := NewRing([]string{"http://w3", "http://w1", "http://w2"})

	keys := make([]string, 300)
	for i := range keys {
		keys[i] = strings.Repeat("0", 60) + string(rune('a'+i%26)) + strings.Repeat("f", 3)
	}
	owned := map[string]int{}
	for _, k := range keys {
		oa, ok := a.Owner(k)
		ob, _ := b.Owner(k)
		if !ok || oa != ob {
			t.Fatalf("rings disagree on %q: %q vs %q", k, oa, ob)
		}
		owned[oa]++
	}
	if len(owned) != 3 {
		t.Fatalf("300 keys landed on %d of 3 members: %v", len(owned), owned)
	}

	// Membership change: keys not owned by w3 must keep their owner.
	c := NewRing([]string{"http://w1", "http://w2"})
	for _, k := range keys {
		before, _ := a.Owner(k)
		after, _ := c.Owner(k)
		if before != "http://w3" && before != after {
			t.Fatalf("removing w3 moved %q from %q to %q", k, before, after)
		}
	}

	// OwnerExcluding never returns the excluded member, and an empty
	// ring (or fully-excluded ring) reports ok=false.
	for _, k := range keys {
		o, ok := a.OwnerExcluding(k, "http://w1")
		if !ok || o == "http://w1" {
			t.Fatalf("OwnerExcluding returned %q ok=%v", o, ok)
		}
	}
	if _, ok := NewRing(nil).Owner("x"); ok {
		t.Fatal("empty ring claimed an owner")
	}
	solo := NewRing([]string{"http://only"})
	if _, ok := solo.OwnerExcluding("x", "http://only"); ok {
		t.Fatal("fully-excluded ring claimed an owner")
	}
}

// TestCachePeerFetch: a worker that misses locally must fetch the entry
// from its hash-owner peer, count it as a peer hit, and re-replicate it
// into its own disk tier.
func TestCachePeerFetch(t *testing.T) {
	owner, ots := newTestServer(t, Config{PoolSize: 1})
	key := strings.Repeat("12ab", 16)
	want := dummyResult("peered", 0.97531)
	owner.Cache().Put(key, want)

	dir := t.TempDir()
	local, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	self := "http://self.invalid"
	local.EnablePeering([]string{ots.URL, self}, self, nil)

	got, ok := local.Get(key)
	if !ok {
		t.Fatal("peer-owned entry missed")
	}
	if got.Scenario != want.Scenario || got.EventsTotal != want.EventsTotal {
		t.Fatalf("peer round trip changed scalars: %+v", got)
	}
	for k, v := range want.Metrics {
		if got.Metrics[k] != v {
			t.Fatalf("metric %s not bit-exact over the peer hop: %v != %v", k, got.Metrics[k], v)
		}
	}
	st := local.Stats()
	if st.PeerHits != 1 || st.Hits != 1 {
		t.Fatalf("peer fetch stats: %+v", st)
	}

	// Re-replication: a fresh cache on the same dir finds the entry on
	// disk without any peer.
	fresh, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(key); !ok {
		t.Fatal("peer-fetched entry was not re-replicated to the local disk tier")
	}

	// Second Get serves from memory: no second peer hit.
	local.Get(key)
	if st := local.Stats(); st.PeerHits != 1 || st.Hits != 2 {
		t.Fatalf("promoted peer entry stats: %+v", st)
	}
}

// TestCachePeerUnreachableDegradesToMiss: a down (or absent) peer must
// degrade to a plain miss so the caller simulates locally.
func TestCachePeerUnreachableDegrades(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	c, err := NewCache(8, "")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://self.invalid"
	c.EnablePeering([]string{deadURL, self}, self, nil)

	key := strings.Repeat("77cc", 16)
	if _, ok := c.Get(key); ok {
		t.Fatal("dead peer produced a hit")
	}
	st := c.Stats()
	if st.Misses != 1 || st.PeerHits != 0 || st.Hits != 0 {
		t.Fatalf("dead-peer stats: %+v", st)
	}
	// The cache still works locally after the failed fetch.
	c.Put(key, dummyResult("local", 0.5))
	if _, ok := c.Get(key); !ok {
		t.Fatal("local put lost after failed peer fetch")
	}
}

// TestCacheConcurrentPeerFetchAndPut hammers one key with concurrent
// peer-fetching Gets and local Puts: the promotion path must never
// insert a second LRU element for the key (which would desync the list
// from the map and later evict the live entry).
func TestCacheConcurrentPeerFetchAndPut(t *testing.T) {
	owner, ots := newTestServer(t, Config{PoolSize: 1})
	key := strings.Repeat("9d0e", 16)
	res := dummyResult("hot", 0.9)
	owner.Cache().Put(key, res)

	local, err := NewCache(8, "")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://self.invalid"
	local.EnablePeering([]string{ots.URL, self}, self, nil)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				local.Get(key)
			} else {
				local.Put(key, res)
			}
		}(g)
	}
	wg.Wait()
	if st := local.Stats(); st.Entries != 1 {
		t.Fatalf("one key became %d entries under concurrent peer fetch + put: %+v", st.Entries, st)
	}
	// Fill to capacity: the map and list must still agree.
	for i := 0; i < 7; i++ {
		local.Put(strings.Repeat("f", 60)+"000"+string(rune('0'+i)), dummyResult("f", 0.5))
	}
	if _, ok := local.Get(key); !ok {
		t.Fatal("contended key lost after fills below capacity")
	}
	if st := local.Stats(); st.Entries != 8 || st.Evictions != 0 {
		t.Fatalf("map/list desync: %+v", st)
	}
}

// TestCacheEntryEndpoint covers GET /v1/cache/{key} directly: hits
// serve the wire record, misses and malformed keys 404, and the lookup
// leaves the serving worker's hit/miss counters alone.
func TestCacheEntryEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	key := strings.Repeat("ab01", 16)
	srv.Cache().Put(key, dummyResult("served", 0.88))

	resp, err := http.Get(ts.URL + "/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache entry GET returned %d", resp.StatusCode)
	}

	for _, bad := range []string{strings.Repeat("a", 63), strings.Repeat("Z", 64), "..%2f..%2fetc"} {
		r2, err := http.Get(ts.URL + "/v1/cache/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusNotFound {
			t.Fatalf("key %q returned %d, want 404", bad, r2.StatusCode)
		}
	}

	if st := srv.Cache().Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("peer-serving lookups polluted the counters: %+v", st)
	}
}

// decodeStream parses an NDJSON response body into events.
func decodeStream(t testing.TB, resp *http.Response) (events []map[string]any) {
	t.Helper()
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev map[string]any
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("bad NDJSON stream: %v", err)
		}
		events = append(events, ev)
	}
	return events
}

// poisonQuery plans fine on a coordinator and fails Scenario.Validate on
// whichever worker gets it: the query's fault, not the fleet's.
const poisonQuery = `SIMULATE availability
VARY cluster.nodes IN (5, 6, 7, 8)
WITH users = 20, object_mb = 10, trials = 2, horizon_hours = 200, storage.placement = 'nope'`

// TestFleetJobErrorIsNotWorkerFailure: a worker that answers a shard with
// the job's own error — an error event, or a refusal of the request as
// malformed — has done its work. The job fails at once in the worker's
// words — no failover, no degraded run on the coordinator — and the fleet
// is as healthy for the next query as it was for this one.
func TestFleetJobErrorIsNotWorkerFailure(t *testing.T) {
	t.Run("error event", func(t *testing.T) {
		coord, cts, _, urls := startFleet(t, 2, false)
		fleetJobError(t, coord, cts, urls, poisonQuery, `unknown placement policy "nope"`)
	})
	t.Run("400", func(t *testing.T) {
		// Workers that refuse any shard of refusedQuery, as a newer or older
		// build that reads the request differently might.
		refusedQuery := strings.Replace(smallQuery, "trials = 2", "trials = 2, seed = 4242", 1)
		urls := make([]string, 2)
		for i := range urls {
			srv, _ := newTestServer(t, Config{PoolSize: 2})
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				body, _ := io.ReadAll(r.Body)
				if r.URL.Path == "/v1/query" && bytes.Contains(body, []byte("seed = 4242")) {
					writeJSON(w, http.StatusBadRequest, ErrorEvent{Type: "error", Error: "service: bad request JSON: unknown field"})
					return
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
				srv.Handler().ServeHTTP(w, r)
			}))
			t.Cleanup(ts.Close)
			urls[i] = ts.URL
		}
		coord, cts := newTestServer(t, Config{Coordinator: true, Peers: urls})
		fleetJobError(t, coord, cts, urls, refusedQuery, "service: bad request JSON: unknown field")
	})
}

func fleetJobError(t *testing.T, coord *Server, cts *httptest.Server, urls []string, query, wantErr string) {
	final := lastEvent(t, postQuery(t, cts, query))
	msg, _ := final["error"].(string)
	if final["type"] != "error" || !strings.HasSuffix(msg, wantErr) {
		t.Fatalf("query ended with %v, want the worker's error %q", final, wantErr)
	}
	if strings.Contains(msg, "degraded local execution") {
		t.Errorf("the job's error reads as a fleet failure: %q", msg)
	}
	tel := coord.tel
	t.Logf("shards launched %d, retries %d, worker failures %d, degraded jobs %d",
		tel.shardsLaunched.Value(), tel.shardRetries.Value(), tel.workerFailures.Value(), tel.degradedJobs.Value())
	if n := tel.shardsLaunched.Value(); n > uint64(len(urls)) {
		t.Errorf("%d shard streams launched for a query no worker can run, want at most one per worker", n)
	}
	if r, f, d := tel.shardRetries.Value(), tel.workerFailures.Value(), tel.degradedJobs.Value(); r != 0 || f != 0 || d != 0 {
		t.Errorf("%d shard retries, %d worker failures, %d degraded jobs; want none", r, f, d)
	}
	var fleet FleetResponse
	mustGetJSON(t, cts.URL+"/v1/fleet", &fleet)
	for _, m := range fleet.Members {
		if m.State != StateUp || m.Failures != 0 {
			t.Errorf("member %s is %s after %d failures (%s), want up", m.URL, m.State, m.Failures, m.LastError)
		}
	}

	// The next valid query is served by the workers, not the coordinator.
	events := postQuery(t, cts, smallQuery)
	if final := lastEvent(t, events); final["type"] != "result" || final["degraded"] != false {
		t.Errorf("query after the poison one ended with type=%v degraded=%v", final["type"], final["degraded"])
	}
	for _, ev := range events {
		if w, _ := ev["worker"].(string); ev["type"] == "point" && w != urls[0] && w != urls[1] {
			t.Errorf("point served by %q, want one of the workers", w)
		}
	}
}

// TestFleetWorkerCancelledShardFailsOver: a shard its worker cancelled —
// its drain window ran out, an operator's DELETE — ends in an error event
// too, but the coordinator did not ask for it and the query is not at
// fault: it fails over like any other lost stream.
func TestFleetWorkerCancelledShardFailsOver(t *testing.T) {
	_, single := newTestServer(t, Config{PoolSize: 2})
	want := lastEvent(t, postQuery(t, single, bigQuery))

	coord, cts, workers, urls := startFleet(t, 2, false)
	// The first worker to commit a point cancels everything it runs, once.
	var once sync.Once
	victim := make(chan string, 1)
	for i, w := range workers {
		w.setPointGate(func(int) { once.Do(func() { victim <- urls[i]; w.CancelAll() }) })
	}
	events := postQuery(t, cts, bigQuery)
	final := lastEvent(t, events)
	if final["type"] != "result" || final["table"] != want["table"] || final["degraded"] != false {
		t.Fatalf("sweep with a worker-cancelled shard ended with type=%v degraded=%v error=%v", final["type"], final["degraded"], final["error"])
	}
	if f := coord.tel.workerFailures.Value(); f == 0 {
		t.Fatal("the cancelled shard was not counted as a worker failure")
	}
	// A point takes microseconds, so the cancel may land after the whole
	// shard has streamed: then there is nothing left to fail over. Any of
	// its points served elsewhere must have been re-planned.
	cancelled := <-victim
	plan, err := coord.engine().Plan(mustParse(t, bigQuery))
	if err != nil {
		t.Fatal(err)
	}
	keys, err := plan.PointKeys()
	if err != nil {
		t.Fatal(err)
	}
	owned, served := 0, 0
	for _, k := range keys {
		if w, _ := coord.fleet.ring.Owner(k); w == cancelled {
			owned++
		}
	}
	for _, ev := range events {
		if ev["type"] == "point" && ev["worker"] == cancelled {
			served++
		}
	}
	if r := coord.tel.shardRetries.Value(); served < owned && r == 0 {
		t.Fatalf("%s served %d of its %d points and no shard was retried: the cancelled shard was never failed over", cancelled, served, owned)
	}
}
