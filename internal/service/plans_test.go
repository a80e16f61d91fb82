package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sync"
	"testing"
	"time"
)

// warmCacheDir returns a cache directory holding every point of query, so
// a server opened on it serves the query without simulating: its point
// events say cached however many jobs ran it before, and one server's
// stream can be held to another's byte for byte.
func warmCacheDir(t *testing.T, query string) string {
	t.Helper()
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{PoolSize: 2, CacheDir: dir})
	if final := lastEvent(t, postQuery(t, ts, query)); final["type"] != "result" {
		t.Fatalf("warming the cache ended with %v", final)
	}
	return dir
}

// rawStream posts req and returns the NDJSON stream as sent.
func rawStream(t testing.TB, url string, req QueryRequest) []byte {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return body
}

var jobIDs = regexp.MustCompile(`"job-[0-9]+"`)

// sameBytes reports whether two streams are identical once each job's
// own id — the one thing two jobs of one query cannot share — is taken out.
func sameBytes(a, b []byte) bool {
	return bytes.Equal(jobIDs.ReplaceAll(a, []byte(`"job"`)), jobIDs.ReplaceAll(b, []byte(`"job"`)))
}

// countStages counts the stages srv's jobs go through.
func countStages(srv *Server) func() map[string]int {
	var mu sync.Mutex
	stages := map[string]int{}
	srv.stage = func(name string) {
		mu.Lock()
		stages[name]++
		mu.Unlock()
	}
	return func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		return map[string]int{"parse": stages["parse"], "plan": stages["plan"]}
	}
}

// TestRepeatedQueryPlansOnce: a server parses and plans a query the first
// time it is asked and never again, and the jobs that reuse the plan send
// what a fresh server sends, byte for byte. A different text, or the same
// text under another trials override, is another plan; a query that fails
// to parse or to plan is never kept, so it fails the same way every time.
func TestRepeatedQueryPlansOnce(t *testing.T) {
	dir := warmCacheDir(t, smallQuery)
	_, fresh := newTestServer(t, Config{PoolSize: 2, CacheDir: dir})
	want := rawStream(t, fresh.URL, QueryRequest{Query: smallQuery})

	srv, ts := newTestServer(t, Config{PoolSize: 2, CacheDir: dir})
	stages := countStages(srv)
	expect := func(parses, plans int) {
		t.Helper()
		if got := stages(); got["parse"] != parses || got["plan"] != plans {
			t.Fatalf("stages ran %v, want %d parse(s) and %d plan(s)", got, parses, plans)
		}
	}
	for i := 0; i < 6; i++ {
		if got := rawStream(t, ts.URL, QueryRequest{Query: smallQuery}); !sameBytes(got, want) {
			t.Fatalf("job %d sent\n%s\na fresh server sends\n%s", i+1, got, want)
		}
	}
	expect(1, 1)

	for i := 0; i < 3; i++ {
		rawStream(t, ts.URL, QueryRequest{Query: smallQuery + "\n"})
		rawStream(t, ts.URL, QueryRequest{Query: smallQuery, Trials: 3})
	}
	expect(3, 3)

	const planError = "SIMULATE availability VARY cluster.nodes IN (5) WITH nope = 1"
	for i := 0; i < 3; i++ {
		for _, q := range []string{"SIMULATE", planError} {
			if final := lastEvent(t, postQuery(t, ts, q)); final["type"] != "error" {
				t.Fatalf("%q ended with %v", q, final)
			}
		}
	}
	expect(3+6, 3+3)
}

// TestPlanMemoBounded: a flood of distinct queries never leaves the server
// keeping more design points than its trial cache's memory tier holds
// entries, and past the first few queries what it keeps stops growing: the
// most recently used plans, no more. A plan larger than the bound runs and
// is not kept.
func TestPlanMemoBounded(t *testing.T) {
	const bound = 16 // the cache's memory tier, in entries
	srv, _ := newTestServer(t, Config{PoolSize: 1, CacheEntries: bound})
	query := func(seed int) string {
		return fmt.Sprintf(`SIMULATE availability VARY cluster.nodes IN (5, 6, 7, 8)
WITH users = 1, object_mb = 1, trials = 1, horizon_hours = 1, seed = %d`, seed)
	}
	run := func(q string) {
		t.Helper()
		id, err := srv.Submit(QueryRequest{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		if table := tableOf(t, collectJob(t, srv, id, 0)); table == "" {
			t.Fatalf("%s rendered no table", q)
		}
	}
	// kept is what the memo holds, in plans and in points.
	kept := func() (plans, points int) {
		srv.plans.mu.Lock()
		defer srv.plans.mu.Unlock()
		for el := srv.plans.ll.Front(); el != nil; el = el.Next() {
			plans, points = plans+1, points+el.Value.(*keptPlan).plan.NumPoints()
		}
		if points != srv.plans.points || len(srv.plans.byKey) != plans {
			t.Fatalf("the memo counts %d points in %d entries, its list holds %d in %d", srv.plans.points, len(srv.plans.byKey), points, plans)
		}
		return plans, points
	}
	isKept := func(q string) bool { return srv.plans.get(planKey{query: q}) != nil }

	for seed := 0; seed < 40; seed++ {
		run(query(seed))
	}
	plans, points := kept()
	if plans != bound/4 || points != bound {
		t.Fatalf("after 40 four-point queries the memo keeps %d plans of %d points, want %d of %d", plans, points, bound/4, bound)
	}
	for seed := 40; seed < 140; seed++ {
		run(query(seed))
		if p, n := kept(); p != plans || n != points {
			t.Fatalf("the memo grew to %d plans of %d points", p, n)
		}
	}
	for seed := 136; seed < 140; seed++ {
		if !isKept(query(seed)) {
			t.Fatalf("seed %d, among the %d most recent queries, was not kept", seed, bound/4)
		}
	}
	// A use makes a plan the most recent: seed 136 outlives 137.
	run(query(136))
	run(query(140))
	if !isKept(query(136)) || isKept(query(137)) {
		t.Fatal("eviction is not least-recently-used")
	}

	over := `SIMULATE availability VARY cluster.nodes IN (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21)
WITH users = 1, object_mb = 1, trials = 1, horizon_hours = 1`
	run(over)
	if isKept(over) {
		t.Fatalf("a %d-point plan was kept under a bound of %d points", 17, bound)
	}
	if p, n := kept(); p != plans || n != points {
		t.Fatalf("running an over-size plan left the memo at %d plans of %d points", p, n)
	}
}

// TestSharedPlanConcurrentJobs: jobs that share one kept plan — and race
// to plan it in the first place — send what a fresh server sends, byte for
// byte. One daemon serves at once three whole sweeps, two shards, two
// resumed streams, a job recovered from its journal, and two sweeps a
// coordinator re-drives across it; every one of them is held at its first
// point until all have planned, so they run the shared plan together.
func TestSharedPlanConcurrentJobs(t *testing.T) {
	noLeakedCommitters(t)
	cacheDir := warmCacheDir(t, bigQuery)
	// A crash leaves a job with five of its twelve points journaled.
	journalDir := t.TempDir()
	crashed, err := New(Config{PoolSize: 1, JournalDir: journalDir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	recovered := crashAtPoint(t, crashed, bigQuery, 5)

	full := QueryRequest{Query: bigQuery}
	requests := []QueryRequest{
		full, full, full,
		{Query: bigQuery, Points: []int{0, 3, 7, 8}},
		{Query: bigQuery, Points: []int{1, 2, 11}},
		{Query: bigQuery, From: 4},
		{Query: bigQuery, From: 11},
	}
	// Each reference comes from a server of its own that has run nothing
	// before.
	reference := func(req QueryRequest) []byte {
		_, ts := newTestServer(t, Config{PoolSize: 2, CacheDir: cacheDir, JournalDir: t.TempDir()})
		return rawStream(t, ts.URL, req)
	}
	want := make([][]byte, len(requests))
	for i, req := range requests {
		want[i] = reference(req)
	}

	srv, ts := newTestServer(t, Config{PoolSize: 4, CacheDir: cacheDir, JournalDir: journalDir})
	const coordinated = 2
	jobs := len(requests) + 1 + coordinated
	release := make(chan struct{})
	srv.pointGate = func(int) { <-release }
	if resumed, warns, err := srv.Recover(); err != nil || resumed != 1 {
		t.Fatalf("recovered %d jobs (%v, warnings %v)", resumed, err, warns)
	}
	_, coord := newTestServer(t, Config{Coordinator: true, Peers: []string{ts.URL}})

	got := make([][]byte, len(requests)+coordinated)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i < len(requests) {
				got[i] = rawStream(t, ts.URL, requests[i])
			} else {
				got[i] = rawStream(t, coord.URL, full)
			}
		}()
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		running := 0
		for _, info := range srv.Jobs() {
			if info.State == JobRunning {
				running++
			}
		}
		if running == jobs {
			break
		}
		if time.Now().After(deadline) {
			close(release)
			wg.Wait()
			t.Fatalf("%d of %d jobs running after a minute: %+v", running, jobs, srv.Jobs())
		}
	}
	close(release)
	var lines [][]byte
	for _, ln := range collectJob(t, srv, recovered, 0) {
		lines = append(lines, append(ln, '\n'))
	}
	wg.Wait()

	for i, req := range requests {
		if !sameBytes(got[i], want[i]) {
			t.Errorf("request %+v sent\n%s\na fresh server sends\n%s", req, got[i], want[i])
		}
	}
	if resumed := bytes.Join(lines, nil); !sameBytes(resumed, want[0]) {
		t.Errorf("the recovered job streams\n%s\na fresh server sends\n%s", resumed, want[0])
	}
	_, freshCoord := newTestServer(t, Config{Coordinator: true, Peers: []string{ts.URL}})
	wantCoord := rawStream(t, freshCoord.URL, full)
	for _, g := range got[len(requests):] {
		if !sameBytes(g, wantCoord) {
			t.Errorf("the coordinator sent\n%s\na fresh coordinator sends\n%s", g, wantCoord)
		}
	}
}
