package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// smallQuery is a fast 4-point sweep used across the tests.
const smallQuery = `SIMULATE availability
VARY cluster.nodes IN (5, 6, 7, 8)
WITH users = 20, object_mb = 10, trials = 2, horizon_hours = 200
WHERE sla.availability >= 0.2`

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return newFaultyServer(t, cfg, nil)
}

// postQuery posts a query and decodes the NDJSON stream.
func postQuery(t testing.TB, ts *httptest.Server, query string) (events []map[string]any) {
	t.Helper()
	return postRequest(t, ts, QueryRequest{Query: query})
}

// postRequest is postQuery for a whole request body.
func postRequest(t testing.TB, ts *httptest.Server, req QueryRequest) (events []map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func lastEvent(t testing.TB, events []map[string]any) map[string]any {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	return events[len(events)-1]
}

// TestQueryStreamShape checks the NDJSON protocol: a job event, one point
// event per design point, then a result event carrying the rendered
// table.
func TestQueryStreamShape(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 2})
	events := postQuery(t, ts, smallQuery)

	if events[0]["type"] != "job" || events[0]["id"] == "" {
		t.Fatalf("first event should be the job admission, got %v", events[0])
	}
	points := 0
	for _, ev := range events {
		if ev["type"] == "point" {
			points++
			if ev["total"].(float64) != 4 {
				t.Fatalf("point event total = %v, want 4", ev["total"])
			}
		}
	}
	if points != 4 {
		t.Fatalf("streamed %d point events, want 4", points)
	}
	final := lastEvent(t, events)
	if final["type"] != "result" {
		t.Fatalf("last event should be the result, got %v", final)
	}
	if table, _ := final["table"].(string); !strings.Contains(table, "availability") {
		t.Fatalf("result table missing availability column:\n%s", table)
	}
}

// TestRepeatedSweepCacheHitGolden is the acceptance check: a repeated
// sweep must hit the trial cache on >= 90% of its points (here: all of
// them) and render byte-identical output to the cold run.
func TestRepeatedSweepCacheHitGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 2})

	cold := lastEvent(t, postQuery(t, ts, smallQuery))
	warm := lastEvent(t, postQuery(t, ts, smallQuery))

	coldTable, _ := cold["table"].(string)
	warmTable, _ := warm["table"].(string)
	if coldTable == "" || coldTable != warmTable {
		t.Fatalf("warm table differs from cold:\n--- cold ---\n%s--- warm ---\n%s", coldTable, warmTable)
	}
	if cold["cache_hits"].(float64) != 0 {
		t.Fatalf("cold run reported cache hits: %v", cold["cache_hits"])
	}
	executed := warm["executed"].(float64)
	hits := warm["cache_hits"].(float64)
	if executed == 0 || hits < 0.9*executed {
		t.Fatalf("warm run hit %v of %v executed points, want >= 90%%", hits, executed)
	}
}

// TestEightConcurrentJobs serves 8 concurrent sweep jobs on a 4-slot
// shared pool — the acceptance criterion's concurrency shape — with a
// second follower attached to each job mid-run: both read the same bytes.
func TestEightConcurrentJobs(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 4})

	const jobs = 8
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds so the jobs cannot ride each other's cache
			// entries: all 8 must actually simulate on the shared pool.
			q := fmt.Sprintf(`SIMULATE availability
VARY cluster.nodes IN (5, 6, 7)
WITH users = 20, object_mb = 10, trials = 2, horizon_hours = 200, seed = %d
WHERE sla.availability >= 0.2`, i+1)
			resp, err := http.Post(ts.URL+"/v1/query", "application/json",
				bytes.NewReader(mustJSON(t, QueryRequest{Query: q})))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			rd := bufio.NewReader(resp.Body)
			first, err := rd.ReadBytes('\n')
			if err != nil {
				errs <- err
				return
			}
			var admitted JobEvent
			if err := json.Unmarshal(first, &admitted); err != nil {
				errs <- fmt.Errorf("job %d: bad job line: %v", i, err)
				return
			}
			again, err := http.Get(ts.URL + "/v1/jobs/" + admitted.ID + "/stream")
			if err != nil {
				errs <- err
				return
			}
			defer again.Body.Close()
			rest, err := io.ReadAll(rd)
			if err != nil {
				errs <- err
				return
			}
			body := append(first, rest...)
			if second, err := io.ReadAll(again.Body); err != nil || !bytes.Equal(second, body) {
				errs <- fmt.Errorf("job %d: second follower read (%v)\n%s\nthe submitter read\n%s", i, err, second, body)
				return
			}
			lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
			var final map[string]any
			if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
				errs <- fmt.Errorf("job %d: bad final line: %v", i, err)
				return
			}
			if final["type"] != "result" {
				errs <- fmt.Errorf("job %d ended with %v", i, final)
				return
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	done := 0
	for _, j := range srv.Jobs() {
		if j.State == JobDone {
			done++
		}
	}
	if done != jobs {
		t.Fatalf("%d jobs done, want %d: %+v", done, jobs, srv.Jobs())
	}
	if got := srv.Cache().Stats().Puts; got < jobs*3 {
		t.Fatalf("cache recorded %d puts, want >= %d (distinct seeds must all simulate)", got, jobs*3)
	}
}

// TestCancelJob cancels a long-running job via DELETE /v1/jobs/{id} and
// checks the stream terminates with an error event and the job records
// the cancelled state.
func TestCancelJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})

	longQuery := `SIMULATE availability
VARY cluster.nodes IN (10, 12, 14, 16, 18, 20, 22, 24)
WITH users = 500, trials = 200, horizon_hours = 8766
WHERE sla.availability >= 0.2`
	req, err := http.NewRequest("POST", ts.URL+"/v1/query",
		bytes.NewReader(mustJSON(t, QueryRequest{Query: longQuery})))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("no job event")
	}
	var jobEv map[string]any
	if err := json.Unmarshal(sc.Bytes(), &jobEv); err != nil {
		t.Fatal(err)
	}
	id, _ := jobEv["id"].(string)
	if id == "" {
		t.Fatalf("job event without id: %v", jobEv)
	}

	// Cancel from a second connection while the sweep runs.
	del, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE returned %d", dresp.StatusCode)
	}

	sawError := false
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev["type"] == "error" {
			sawError = true
		}
		if ev["type"] == "result" {
			t.Fatal("cancelled job still streamed a result")
		}
	}
	if !sawError {
		t.Fatal("cancelled job's stream did not end with an error event")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		info, ok := srv.Job(id)
		if ok && info.State == JobCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached cancelled state: %+v", info)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDrainRejectsNewWork checks graceful drain: an in-flight job
// completes, new queries are refused with 503.
func TestDrainRejectsNewWork(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 2})

	started := make(chan struct{})
	finished := make(chan []map[string]any, 1)
	go func() {
		close(started)
		finished <- postQuery(t, ts, smallQuery)
	}()
	<-started
	srv.BeginDrain()

	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		bytes.NewReader(mustJSON(t, QueryRequest{Query: smallQuery})))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain returned %d, want 503", resp.StatusCode)
	}

	select {
	case events := <-finished:
		// The in-flight job may have been admitted before or after the
		// drain began; either a full result or a clean refusal is a
		// correct drain outcome — what must never happen is a hang or a
		// torn stream, which the NDJSON decode above already verifies.
		final := lastEvent(t, events)
		if final["type"] != "result" && final["type"] != "error" {
			t.Fatalf("in-flight job ended with %v", final)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight job did not finish during drain")
	}
}

// TestParseErrorsSurfaceLineColumn checks that server clients get
// actionable line:column positions back as JSON.
func TestParseErrorsSurfaceLineColumn(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1})
	events := postQuery(t, ts, "SIMULATE availability\nVARY cluster.nodes (5)")
	final := lastEvent(t, events)
	if final["type"] != "error" {
		t.Fatalf("want error event, got %v", final)
	}
	msg, _ := final["error"].(string)
	if !strings.Contains(msg, "2:20") {
		t.Fatalf("parse error %q lacks line:column position", msg)
	}
}

// TestJobListingAndLookup covers GET /v1/jobs and GET /v1/jobs/{id}.
func TestJobListingAndLookup(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 2})
	postQuery(t, ts, smallQuery)

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].State != JobDone || jobs[0].Done != 4 {
		t.Fatalf("job listing = %+v", jobs)
	}

	one, err := http.Get(ts.URL + "/v1/jobs/" + jobs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Body.Close()
	var info JobInfo
	if err := json.NewDecoder(one.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.ID != jobs[0].ID || info.CacheHits != 0 {
		t.Fatalf("job lookup = %+v", info)
	}

	missing, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, missing.Body)
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job returned %d", missing.StatusCode)
	}
}

// TestJobRegistryBounded checks the retention cap: a long-running
// daemon must not accumulate finished jobs — or their logs — without
// bound, while running jobs are never evicted.
func TestJobRegistryBounded(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	// One long-lived running job that must survive every eviction: the
	// first to reach the gate is held there.
	var held atomic.Bool
	reached, release := make(chan struct{}), make(chan struct{})
	srv.setPointGate(func(int) {
		if held.CompareAndSwap(false, true) {
			close(reached)
			<-release
		}
	})
	defer close(release)
	runningID, err := srv.Submit(QueryRequest{Query: smallQuery})
	if err != nil {
		t.Fatal(err)
	}
	<-reached

	// retained is what the registry's logs hold, in lines and bytes.
	retained := func() (lines, size int) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, j := range srv.jobs {
			j.log.mu.Lock()
			for _, ln := range j.log.lines {
				lines, size = lines+1, size+len(ln.data)
			}
			j.log.mu.Unlock()
		}
		return lines, size
	}
	// Each of these fails to parse: a finished job with a two-line log.
	flood := func(n int) (first string) {
		for i := 0; i < n; i++ {
			id, err := srv.Submit(QueryRequest{Query: "q"})
			if err != nil {
				t.Fatal(err)
			}
			if collectJob(t, srv, id, 0); first == "" {
				first = id
			}
		}
		return first
	}
	evicted := flood(maxRetainedJobs + 100)
	lines, size := retained()
	flood(100)
	if n := len(srv.Jobs()); n > maxRetainedJobs {
		t.Fatalf("registry holds %d jobs, cap is %d", n, maxRetainedJobs)
	}
	if info, ok := srv.Job(runningID); !ok || info.State != JobRunning {
		t.Fatalf("running job was evicted: %+v ok=%v", info, ok)
	}
	// 100 more jobs past the cap retain no more than before (ids grow a
	// digit now and then, hence the percent).
	if l, s := retained(); l != lines || s > size+size/100 {
		t.Fatalf("logs kept growing past the cap: %d lines / %d bytes, then %d / %d", lines, size, l, s)
	}
	if err := srv.Follow(context.Background(), evicted, 0, func([]byte) error { return nil }); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("following evicted %s: %v, want ErrUnknownJob", evicted, err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + evicted + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job's stream returned %d, want 404", resp.StatusCode)
	}
}

// TestOversizedBodyRejectedWith413 pins the body-limit fix: a body past
// maxQueryBody must be rejected with 413, not silently truncated at the
// limit and executed (or mis-parsed) as a prefix of what the client
// sent.
func TestOversizedBodyRejectedWith413(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1})

	big := strings.Repeat("x", maxQueryBody+1)
	resp, err := http.Post(ts.URL+"/v1/query", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body returned %d, want 413", resp.StatusCode)
	}
	var ev ErrorEvent
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ev.Error, "exceeds") {
		t.Fatalf("413 error message %q does not explain the limit", ev.Error)
	}

	// An at-limit body must still be accepted (it fails later as a parse
	// error, proving it reached the parser rather than the size check).
	atLimit := "SIMULATE availability " + strings.Repeat("x", maxQueryBody-22)
	resp2, err := http.Post(ts.URL+"/v1/query", "text/plain", strings.NewReader(atLimit))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("at-limit body returned %d, want 200 (stream with an error event)", resp2.StatusCode)
	}
}

// TestJobsNewestFirstWithinOneTick pins the listing-order fix under a
// frozen clock: jobs created at the identical Created timestamp must
// still list newest-first. The old sort.SliceStable on Created kept
// same-tick jobs in forward (oldest-first) order.
func TestJobsNewestFirstWithinOneTick(t *testing.T) {
	srv, err := New(Config{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	frozen := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	srv.now = func() time.Time { return frozen }

	var ids []string
	for i := 0; i < 5; i++ {
		j, _, err := srv.newJob("q", traceCtx{})
		if err != nil {
			t.Fatal(err)
		}
		srv.finish(j, nil)
		ids = append(ids, j.info.ID)
	}
	jobs := srv.Jobs()
	if len(jobs) != len(ids) {
		t.Fatalf("listed %d jobs, want %d", len(jobs), len(ids))
	}
	for i, j := range jobs {
		want := ids[len(ids)-1-i]
		if j.ID != want {
			t.Fatalf("position %d lists %s, want %s (same-tick jobs must be newest-first)", i, j.ID, want)
		}
		if !j.Created.Equal(frozen) {
			t.Fatalf("job %s Created = %v, clock not frozen", j.ID, j.Created)
		}
	}
}

// TestPoolBounds checks the gate semantics directly.
func TestPoolBounds(t *testing.T) {
	p := NewPool(2)
	ctx := context.Background()
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	timeout, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := p.Acquire(timeout); err == nil {
		t.Fatal("third acquire should block until a slot frees")
	}
	p.Release()
	if err := p.Acquire(ctx); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	p.Release()
	p.Release()
}

// setPointGate installs fn as the server's point gate (nil removes it);
// jobs running meanwhile see the old gate or the new one, never a torn one.
func (s *Server) setPointGate(fn func(index int)) {
	if fn == nil {
		s.pointGate.Store(nil)
		return
	}
	s.pointGate.Store(&fn)
}
