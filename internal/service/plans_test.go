package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
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
	srv.setPointGate(func(int) { <-release })
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

// monotoneQuery is an 8-point MONOTONE sweep with screening: two of its
// points are screened, two pruned, and its WHERE drops the pruned rows.
const monotoneQuery = `SIMULATE availability
VARY storage.replication IN (1, 2, 3, 9) MONOTONE, node.mttf_hours IN (200, 5000)
WITH users = 100, trials = 2, horizon_hours = 2000, object_mb = 5, cluster.racks = 2, cluster.nodes_per_rack = 5,
     node.repair_hours = 12, repair.detection_hours = 6, screen = TRUE
WHERE sla.availability >= 0.995`

// lossyQuery is a 6-point sweep whose replication-1 points lose objects.
const lossyQuery = `SIMULATE availability
VARY storage.replication IN (1, 2, 3), cluster.nodes IN (5, 8)
WITH users = 20, object_mb = 10, trials = 2, horizon_hours = 400, node.ttf = 'exp(mean=200)'`

// streamJobID returns the id a stream's first line announces.
func streamJobID(t *testing.T, stream []byte) string {
	t.Helper()
	first, _, _ := bytes.Cut(stream, []byte("\n"))
	var ev JobEvent
	if err := json.Unmarshal(first, &ev); err != nil || ev.Type != "job" {
		t.Fatalf("stream starts with %s (%v)", first, err)
	}
	return ev.ID
}

// reused reports whether job id's root span says it re-sent its plan's
// kept answer.
func reused(t *testing.T, srv *Server, id string) bool {
	t.Helper()
	info, ok := srv.Job(id)
	if !ok || info.TraceID == "" {
		t.Fatalf("job %s has no trace", id)
	}
	spans, _ := srv.tel.tracer.Spans(info.TraceID)
	for _, sp := range spans {
		if sp.Name == "job" {
			return sp.Attrs["reused"] == "true"
		}
	}
	t.Fatalf("job %s has no root span", id)
	return false
}

// TestKeptAnswerMatchesFresh: the first, second and third job of one query
// on one server each send, and journal, what a server that has run nothing
// sends and journals for the same job, byte for byte. The first job
// simulates and keeps its answer; the second reads every point from the
// cache, so its outcomes differ from the kept ones and it builds the answer
// anew; the third re-sends that answer, and is the only one marked reused.
// With a 4-entry memory tier that a larger query has flushed in between,
// the third reads its points back from disk and still re-sends.
func TestKeptAnswerMatchesFresh(t *testing.T) {
	clock := func() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }
	shards, worker := newTestServer(t, Config{PoolSize: 1})
	for _, c := range []struct {
		name, query string
		from        int
		journal     bool
		coordinator bool
		// flush, when set, gives the server a 4-entry memory tier and a disk
		// tier, and runs a 5-point query before the third job.
		flush bool
	}{
		{name: "no journal", query: smallQuery},
		{name: "journal", query: smallQuery, journal: true},
		{name: "from", query: smallQuery, from: 3},
		{name: "monotone", query: monotoneQuery, journal: true},
		{name: "where fails rows", query: lossyQuery + "\nWHERE sla.availability >= 0.99"},
		{name: "order by limit", query: lossyQuery + "\nORDER BY availability DESC LIMIT 3"},
		{name: "disk re-reads", query: smallQuery, journal: true, flush: true},
		{name: "coordinator monotone", query: monotoneQuery, coordinator: true},
		{name: "coordinator", query: smallQuery, coordinator: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			config := func(cacheDir string) Config {
				cfg := Config{PoolSize: 2, CacheDir: cacheDir}
				if c.journal {
					cfg.JournalDir = t.TempDir()
				}
				if c.coordinator {
					cfg.Coordinator, cfg.Peers = true, []string{worker.URL}
				}
				if c.flush {
					cfg.CacheEntries = 4
				}
				return cfg
			}
			req := QueryRequest{Query: c.query, From: c.from}
			// reference is what a fresh server on cacheDir streams and
			// journals as job id.
			reference := func(id, cacheDir string) (stream, journal []byte) {
				ref, ts := newTestServer(t, config(cacheDir))
				ref.now = clock
				seq, _ := jobSeq(id)
				ref.nextID = seq - 1
				stream = rawStream(t, ts.URL, req)
				if ref.journal != nil {
					journal = jobFrames(t, ref.journal, id)
				}
				return stream, journal
			}
			warm := warmCacheDir(t, c.query)

			ownDir := ""
			if c.flush {
				ownDir = t.TempDir()
			}
			srv, ts := newTestServer(t, config(ownDir))
			srv.now = clock
			for n := 1; n <= 3; n++ {
				if n == 3 && c.flush {
					flush := `SIMULATE availability VARY cluster.nodes IN (9, 10, 11, 12, 13)
WITH users = 20, object_mb = 10, trials = 2, horizon_hours = 200`
					if final := lastEvent(t, postQuery(t, ts, flush)); final["type"] != "result" {
						t.Fatalf("the flushing query ended with %v", final)
					}
				}
				before := srv.Cache().Stats()
				held := entries(shards.Cache())
				got := rawStream(t, ts.URL, req)
				id := streamJobID(t, got)
				refDir := warm
				if n == 1 {
					refDir = ""
				}
				// A sharded job's points are the worker's: its reference
				// finds the worker's cache as the job did.
				for key := range entries(shards.Cache()) {
					if _, ok := held[key]; !ok {
						setEntry(shards.Cache(), key, nil)
					}
				}
				want, wantJournal := reference(id, refDir)
				if !bytes.Equal(got, want) {
					t.Fatalf("job %d sent\n%s\na fresh server sends\n%s", n, got, want)
				}
				if srv.journal != nil {
					if journal := jobFrames(t, srv.journal, id); !bytes.Equal(journal, wantJournal) {
						t.Fatalf("job %d journaled\n%q\na fresh server journals\n%q", n, journal, wantJournal)
					}
				}
				if got := reused(t, srv, id); got != (n == 3) {
					t.Fatalf("job %d: reused=%v", n, got)
				}
				if n == 3 && c.flush {
					if disk := srv.Cache().Stats().DiskHits - before.DiskHits; disk != 4 {
						t.Fatalf("the third job read %d points from disk, want 4", disk)
					}
				}
			}
		})
	}
}

// entries snapshots a cache's memory tier.
func entries(c *Cache) map[string]*core.RunResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]*core.RunResult, len(c.items))
	for k, el := range c.items {
		out[k] = el.Value.(*cacheEntry).res
	}
	return out
}

// setEntry replaces the memory tier's entry under key with r, or drops it
// when r is nil.
func setEntry(c *Cache, key string, r *core.RunResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.items[key]
	if r == nil {
		c.ll.Remove(el)
		delete(c.items, key)
		return
	}
	el.Value.(*cacheEntry).res = r
}

// freshStream is what a server that has run nothing, whose memory tier
// holds held, streams for query.
func freshStream(t *testing.T, held map[string]*core.RunResult, query string) []byte {
	t.Helper()
	ref, ts := newTestServer(t, Config{PoolSize: 1})
	for k, r := range held {
		ref.cache.Put(k, r)
	}
	return rawStream(t, ts.URL, QueryRequest{Query: query})
}

// changed returns a copy of r, its metrics copied too, after change.
func changed(r *core.RunResult, change func(r *core.RunResult)) *core.RunResult {
	c := *r
	c.Metrics = maps.Clone(r.Metrics)
	change(&c)
	return &c
}

// TestKeptAnswerSignature: an outcome that differs from the one a kept line
// was built from in any field the line, or the result line, is built from
// does not match — each field changed alone, a metric by one ulp or by its
// sign, one metric added, removed or renamed, the worker that served it —
// while an equal outcome at another address does. Through a daemon: with
// one cached point changed each way a cache can change it, the next job
// streams what a fresh server with the same cache streams, is not marked
// reused, and keeps its answer for the job after it.
func TestKeptAnswerSignature(t *testing.T) {
	base := core.PointOutcome{
		Index: 2, FromCache: true, AllMet: true, Worker: "http://127.0.0.1:8867",
		Result: &core.RunResult{Trials: 3, EventsTotal: 99, Metrics: map[string]float64{
			"availability": 0.99, "loss_prob": 0, "repairs": 4,
		}},
	}
	sig := signature(&base)
	copyOf := func() core.PointOutcome {
		o := base
		o.Result = changed(base.Result, func(*core.RunResult) {})
		return o
	}
	if o := copyOf(); !sig.matches(&o) {
		t.Fatal("an equal outcome does not match")
	}
	for _, other := range []string{"http://127.0.0.1:8868", localWorker, ""} {
		o := copyOf()
		if o.Worker = other; sig.matches(&o) {
			t.Errorf("worker %q: an outcome another worker served matches", other)
		}
	}
	for name, change := range map[string]func(o *core.PointOutcome){
		"index":       func(o *core.PointOutcome) { o.Index++ },
		"cached":      func(o *core.PointOutcome) { o.FromCache = false },
		"pruned":      func(o *core.PointOutcome) { o.Pruned = true },
		"screened":    func(o *core.PointOutcome) { o.Screened = true },
		"all met":     func(o *core.PointOutcome) { o.AllMet = false },
		"no result":   func(o *core.PointOutcome) { o.Result = nil },
		"trials":      func(o *core.PointOutcome) { o.Result.Trials++ },
		"events":      func(o *core.PointOutcome) { o.Result.EventsTotal++ },
		"one ulp":     func(o *core.PointOutcome) { o.Result.Metrics["availability"] = math.Nextafter(0.99, 1) },
		"negative 0":  func(o *core.PointOutcome) { o.Result.Metrics["loss_prob"] = math.Copysign(0, -1) },
		"added":       func(o *core.PointOutcome) { o.Result.Metrics["zzz"] = 1 },
		"removed":     func(o *core.PointOutcome) { delete(o.Result.Metrics, "repairs") },
		"renamed":     func(o *core.PointOutcome) { delete(o.Result.Metrics, "repairs"); o.Result.Metrics["repairz"] = 4 },
		"nil metrics": func(o *core.PointOutcome) { o.Result.Metrics = nil },
	} {
		o := copyOf()
		change(&o)
		if sig.matches(&o) {
			t.Errorf("%s: a changed outcome matches", name)
		}
	}
	pruned := core.PointOutcome{Index: 1, Pruned: true}
	withResult := pruned
	withResult.Result = &core.RunResult{}
	if s := signature(&pruned); !s.matches(&pruned) || s.matches(&withResult) {
		t.Error("a pruned outcome's signature does not tell an empty result from none")
	}

	srv, ts := newTestServer(t, Config{PoolSize: 1})
	for i := 0; i < 2; i++ {
		rawStream(t, ts.URL, QueryRequest{Query: smallQuery})
	}
	kp := srv.plans.get(planKey{query: smallQuery})
	keys, err := kp.plan.PointKeys()
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range []struct {
		name   string
		change func(r *core.RunResult) // nil: the entry is dropped, and the point simulates
		// keeps: the changed job keeps its answer. A point line that cannot
		// be encoded (a NaN metric, its row failing the WHERE) leaves a
		// stream shorter than its outcomes, and nothing is kept.
		// resends: the job after it sees the same outcomes and re-sends that
		// answer. A simulated point is put back, so the job after reads it
		// from the cache: another change.
		keeps, resends bool
	}{
		{"one ulp", func(r *core.RunResult) { r.Metrics["availability"] = math.Nextafter(r.Metrics["availability"], 0) }, true, true},
		{"added", func(r *core.RunResult) { r.Metrics["zzz"] = 1 }, true, true},
		{"removed", func(r *core.RunResult) { delete(r.Metrics, "repairs") }, true, true},
		{"trials", func(r *core.RunResult) { r.Trials++ }, true, true},
		{"events", func(r *core.RunResult) { r.EventsTotal++ }, true, true},
		{"all met", func(r *core.RunResult) { r.Metrics["availability"] = 0.1 }, true, true},
		{"cached", nil, true, false},
		{"unencodable", func(r *core.RunResult) { r.Metrics["availability"] = math.NaN() }, false, false},
	} {
		key := keys[i%len(keys)]
		orig := entries(srv.cache)[key]
		// Settle the kept answer on the unchanged cache first: the first job
		// keeps it, the second re-sends it.
		rawStream(t, ts.URL, QueryRequest{Query: smallQuery})
		if id := streamJobID(t, rawStream(t, ts.URL, QueryRequest{Query: smallQuery})); !reused(t, srv, id) {
			t.Fatalf("%s: the unchanged cache's job was not reused", m.name)
		}
		var r *core.RunResult
		if m.change != nil {
			r = changed(orig, m.change)
		}
		setEntry(srv.cache, key, r)
		want := freshStream(t, entries(srv.cache), smallQuery)
		before := kp.last.Load()
		got := rawStream(t, ts.URL, QueryRequest{Query: smallQuery})
		if !sameBytes(got, want) {
			t.Fatalf("%s: the job sent\n%s\na fresh server sends\n%s", m.name, got, want)
		}
		if reused(t, srv, streamJobID(t, got)) {
			t.Fatalf("%s: a changed outcome's job was marked reused", m.name)
		}
		if keeps := kp.last.Load() != before; keeps != m.keeps {
			t.Fatalf("%s: the changed job kept its answer: %v", m.name, keeps)
		}
		again := rawStream(t, ts.URL, QueryRequest{Query: smallQuery})
		if want := freshStream(t, entries(srv.cache), smallQuery); !sameBytes(again, want) {
			t.Fatalf("%s: the job after sent\n%s\na fresh server sends\n%s", m.name, again, want)
		}
		if got := reused(t, srv, streamJobID(t, again)); got != m.resends {
			t.Fatalf("%s: the job after it: reused=%v", m.name, got)
		}
		setEntry(srv.cache, key, orig)
	}
}

// TestKeptAnswerConcurrentJobs: eight journaled jobs re-send one kept
// answer while another job, whose outcomes differ, replaces it; each sends
// what a fresh server with its cache sends, and the job after them re-sends
// the replacement.
func TestKeptAnswerConcurrentJobs(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 2, JournalDir: t.TempDir()})
	req := QueryRequest{Query: smallQuery}
	for i := 0; i < 2; i++ {
		rawStream(t, ts.URL, req)
	}
	keys, err := srv.plans.get(planKey{query: smallQuery}).plan.PointKeys()
	if err != nil {
		t.Fatal(err)
	}
	held := entries(srv.cache)
	want := freshStream(t, held, smallQuery)

	// The eight are held at their last point: by then each has matched
	// every outcome against the kept answer it loaded.
	const jobs = 8
	last := len(keys) - 1
	var parked atomic.Int32
	var arrived sync.WaitGroup
	arrived.Add(jobs)
	release := make(chan struct{})
	srv.setPointGate(func(index int) {
		if index == last && parked.Add(1) <= jobs {
			arrived.Done()
			<-release
		}
	})
	got := make([][]byte, jobs)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = rawStream(t, ts.URL, req)
		}()
	}
	arrived.Wait()

	setEntry(srv.cache, keys[0], changed(held[keys[0]], func(r *core.RunResult) {
		r.Metrics["availability"] = math.Nextafter(r.Metrics["availability"], 0)
	}))
	wantChanged := freshStream(t, entries(srv.cache), smallQuery)
	replacer := rawStream(t, ts.URL, req)
	close(release)
	wg.Wait()

	if !sameBytes(replacer, wantChanged) || reused(t, srv, streamJobID(t, replacer)) {
		t.Fatalf("the replacing job sent\n%s\na fresh server sends\n%s", replacer, wantChanged)
	}
	for i, g := range got {
		if !sameBytes(g, want) {
			t.Errorf("job %d sent\n%s\na fresh server sends\n%s", i, g, want)
		} else if !reused(t, srv, streamJobID(t, g)) {
			t.Errorf("job %d was not marked reused", i)
		}
	}
	after := rawStream(t, ts.URL, req)
	if !sameBytes(after, wantChanged) || !reused(t, srv, streamJobID(t, after)) {
		t.Fatalf("the job after them sent\n%s\na fresh server sends\n%s", after, wantChanged)
	}
}
