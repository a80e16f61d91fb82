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
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// bigQuery is a 12-point sweep, slow enough that an in-process "kill
// -9" (crashForTest) reliably lands mid-run.
const bigQuery = `SIMULATE availability
VARY cluster.nodes IN (5, 6, 7, 8), storage.replication IN (1, 2, 3)
WITH users = 20, object_mb = 10, trials = 3, horizon_hours = 200
WHERE sla.availability >= 0.2`

// collectJob follows a durable job to its terminal line, returning the
// raw NDJSON lines.
func collectJob(t testing.TB, srv *Server, id string, from int) [][]byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var lines [][]byte
	err := srv.Follow(ctx, id, from, func(line []byte) error {
		lines = append(lines, append([]byte(nil), line...))
		return nil
	})
	if err != nil {
		t.Fatalf("Follow(%s, from=%d): %v", id, from, err)
	}
	return lines
}

// crashAtPoint submits query on srv and simulates kill -9 with exactly
// k points committed: the point gate blocks the k'th (0-based) commit —
// or, when the sweep has only k points, the terminal record — before it
// is queued on the journal, the "kill" lands (flushing the k point
// records already queued, nothing after them), then execution is
// released into its cancelled context. Returns the job id.
func crashAtPoint(t testing.TB, srv *Server, query string, k int) string {
	t.Helper()
	gate := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.pointGate = func(index int) {
		if index >= k {
			once.Do(func() { close(gate) })
			<-release
		}
	}
	id, err := srv.Submit(QueryRequest{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate:
	case <-time.After(time.Minute):
		t.Fatalf("job never reached point %d", k)
	}
	srv.crashForTest()
	close(release)
	srv.Close()
	return id
}

// tableOf extracts the rendered table from a terminal result line.
func tableOf(t testing.TB, lines [][]byte) string {
	t.Helper()
	if len(lines) == 0 {
		t.Fatal("empty job stream")
	}
	var ev struct {
		Type  string `json:"type"`
		Table string `json:"table"`
		Error string `json:"error"`
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal(last, &ev); err != nil {
		t.Fatalf("bad terminal line %s: %v", last, err)
	}
	if ev.Type != "result" {
		t.Fatalf("job ended with %s", last)
	}
	return ev.Table
}

// TestCrashResumeGolden is the tentpole's acceptance check: a daemon
// killed mid-sweep (no goodbye, journals abandoned exactly as kill -9
// leaves them) and restarted over the same journal + cache directories
// must resurrect the job under its original id, resume only the
// undelivered points, and produce the byte-identical final table — with
// the committed prefix served from journal + cache, not re-simulated.
func TestCrashResumeGolden(t *testing.T) {
	noLeakedCommitters(t)
	_, single := newTestServer(t, Config{PoolSize: 2})
	want := lastEvent(t, postQuery(t, single, bigQuery))
	wantTable, _ := want["table"].(string)
	if wantTable == "" {
		t.Fatal("golden run produced no table")
	}
	// The crash matrix: every interruption point of the 12-point sweep,
	// from "only the begin record is durable" to "every point is, the
	// terminal record is not".
	for seen := 0; seen <= 12; seen++ {
		t.Run(fmt.Sprintf("k=%d", seen), func(t *testing.T) { crashResumeGolden(t, seen, wantTable) })
	}
}

func crashResumeGolden(t *testing.T, seen int, wantTable string) {
	journalDir, cacheDir := t.TempDir(), t.TempDir()
	a, err := New(Config{PoolSize: 1, JournalDir: journalDir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	// Freeze the job the moment point `seen` tries to commit: exactly
	// `seen` points are fsync'd when the "kill" lands — a deterministic
	// crash position, not a sleep race.
	id := crashAtPoint(t, a, bigQuery, seen)

	b, err := New(Config{PoolSize: 2, JournalDir: journalDir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	resumed, warns, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d jobs, want 1 (warnings: %v)", resumed, warns)
	}
	if exact := fmt.Sprintf("resuming %s at %d committed point(s)", id, seen); !strings.Contains(strings.Join(warns, "\n"), exact) {
		t.Fatalf("journal does not hold exactly %d points: %v", seen, warns)
	}
	info, ok := b.Job(id)
	if !ok || !info.Resumed {
		t.Fatalf("job %s not resurrected as resumed: %+v (ok=%v)", id, info, ok)
	}

	lines := collectJob(t, b, id, 0)
	if got := tableOf(t, lines); got != wantTable {
		t.Fatalf("resumed table differs from uninterrupted run:\n--- want ---\n%s--- got ---\n%s", wantTable, got)
	}
	points := 0
	for _, ln := range lines {
		var ev PointEvent
		if err := json.Unmarshal(ln, &ev); err == nil && ev.Type == "point" {
			points++
			if ev.Done != points || ev.Total != 12 {
				t.Fatalf("replayed stream out of order: done=%d total=%d at position %d", ev.Done, ev.Total, points)
			}
		}
	}
	if points != 12 {
		t.Fatalf("resumed stream delivered %d point events, want 12", points)
	}
	// The committed prefix must not have been re-simulated: every point
	// the first daemon finished was journaled and/or disk-cached, so the
	// restarted daemon's cache misses are bounded by the points the
	// crashed daemon never completed.
	if misses := b.Cache().Stats().Misses; misses > uint64(12-seen) {
		t.Fatalf("restarted daemon re-simulated committed work: %d cache misses, want <= %d", misses, 12-seen)
	}
	// The journal sticks around for replay until eviction; a fresh
	// Follow must still replay the identical stream.
	again := collectJob(t, b, id, 0)
	if len(again) != len(lines) {
		t.Fatalf("second replay has %d lines, first %d", len(again), len(lines))
	}
	for i := range lines {
		if !bytes.Equal(lines[i], again[i]) {
			t.Fatalf("replay not byte-identical at line %d:\n%s\nvs\n%s", i, lines[i], again[i])
		}
	}
}

// resumeModes are the daemons a resume cursor must work on alike: a
// journal makes a job outlive a crash, it is not what makes its stream
// resumable.
var resumeModes = []struct {
	name  string
	start func(t *testing.T) (*Server, *httptest.Server)
}{
	{"journal", func(t *testing.T) (*Server, *httptest.Server) {
		return newTestServer(t, Config{PoolSize: 2, JournalDir: t.TempDir()})
	}},
	{"no journal", func(t *testing.T) (*Server, *httptest.Server) {
		return newTestServer(t, Config{PoolSize: 2})
	}},
	{"coordinator without journal", func(t *testing.T) (*Server, *httptest.Server) {
		coord, cts, _, _ := startFleet(t, 2, false)
		return coord, cts
	}},
}

// TestStreamResumeFromOffset: Follow(from=N) must deliver exactly the
// suffix of Follow(from=0) with the first N point events removed,
// byte-for-byte — the contract the wtql reconnect logic depends on.
func TestStreamResumeFromOffset(t *testing.T) {
	for _, mode := range resumeModes {
		t.Run(mode.name, func(t *testing.T) {
			srv, _ := mode.start(t)
			streamResumeFromOffset(t, srv)
		})
	}
}

func streamResumeFromOffset(t *testing.T, srv *Server) {
	id, err := srv.Submit(QueryRequest{Query: smallQuery})
	if err != nil {
		t.Fatal(err)
	}
	full := collectJob(t, srv, id, 0)
	part := collectJob(t, srv, id, 2)

	var want [][]byte
	points := 0
	for _, ln := range full {
		if bytes.Contains(ln, []byte(`"type":"point"`)) {
			if points++; points <= 2 {
				continue
			}
		}
		want = append(want, ln)
	}
	if len(part) != len(want) {
		t.Fatalf("from=2 stream has %d lines, want %d", len(part), len(want))
	}
	for i := range want {
		if !bytes.Equal(part[i], want[i]) {
			t.Fatalf("from=2 line %d differs:\n%s\nvs\n%s", i, part[i], want[i])
		}
	}
}

// TestHTTPStreamEndpointResume covers the wire version: GET
// /v1/jobs/{id}/stream?from=N replays the suffix and tails to the
// terminal line; unknown jobs 404; a bad cursor 400s.
func TestHTTPStreamEndpointResume(t *testing.T) {
	for _, mode := range resumeModes {
		t.Run(mode.name, func(t *testing.T) {
			srv, ts := mode.start(t)
			httpStreamEndpointResume(t, srv, ts)
		})
	}
}

func httpStreamEndpointResume(t *testing.T, srv *Server, ts *httptest.Server) {
	id, err := srv.Submit(QueryRequest{Query: smallQuery})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream?from=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream endpoint returned %d", resp.StatusCode)
	}
	var types []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
	}
	// 4-point sweep, from=3: job line, point 4, result.
	if want := []string{"job", "point", "result"}; strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("from=3 stream shape = %v, want %v", types, want)
	}

	if resp, err := http.Get(ts.URL + "/v1/jobs/job-999/stream"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job stream returned %d, want 404", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream?from=wat"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad cursor returned %d, want 400", resp.StatusCode)
		}
	}
}

// TestQueryFromSuppression: a re-submitted query with from=N (the
// coordinator-takeover path) executes the full sweep but streams only
// the undelivered points — done numbering stays global, the table is
// complete.
func TestQueryFromSuppression(t *testing.T) {
	for _, mode := range resumeModes {
		t.Run(mode.name, func(t *testing.T) {
			_, ts := mode.start(t)
			queryFromSuppression(t, ts)
		})
	}
}

func queryFromSuppression(t *testing.T, ts *httptest.Server) {
	want := lastEvent(t, postQuery(t, ts, smallQuery))

	var points []int
	var table string
	err := Client{}.Query(context.Background(), ts.URL, QueryRequest{Query: smallQuery, From: 2}, func(ev *Event) error {
		switch ev.Type {
		case "point":
			p, err := ev.Point()
			points = append(points, p.Done)
			return err
		case "result":
			r, err := ev.Result()
			table = r.Table
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0] != 3 || points[1] != 4 {
		t.Fatalf("from=2 streamed done=%v, want [3 4]", points)
	}
	if table != want["table"] {
		t.Fatalf("from=2 table differs from full run")
	}
}

// TestJournalDisabledMatchesLegacy: -journal "" changes what survives a
// crash, not what a client sees — identical event shapes, the same
// table, and a stream the daemon can replay while it lives.
func TestJournalDisabledMatchesLegacy(t *testing.T) {
	noLeakedCommitters(t)
	srvOn, tsOn := newTestServer(t, Config{PoolSize: 2, JournalDir: t.TempDir()})
	srvOff, tsOff := newTestServer(t, Config{PoolSize: 2})
	if srvOn.journal == nil || srvOff.journal != nil {
		t.Fatal("journal wiring inverted")
	}

	on := postQuery(t, tsOn, smallQuery)
	off := postQuery(t, tsOff, smallQuery)
	if len(on) != len(off) {
		t.Fatalf("journaled stream has %d events, inline %d", len(on), len(off))
	}
	tOn := lastEvent(t, on)
	tOff := lastEvent(t, off)
	if tOn["table"] != tOff["table"] {
		t.Fatalf("tables differ with journaling on/off")
	}

	// The disabled daemon replays what it streamed, byte for byte.
	resp, err := http.Post(tsOff.URL+"/v1/query", "text/plain", strings.NewReader(smallQuery))
	if err != nil {
		t.Fatal(err)
	}
	posted, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var first JobEvent
	if err := json.Unmarshal(posted[:bytes.IndexByte(posted, '\n')+1], &first); err != nil || first.ID == "" {
		t.Fatalf("no job line in %q: %v", posted, err)
	}
	resp, err = http.Get(tsOff.URL + "/v1/jobs/" + first.ID + "/stream?from=0")
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("replaying %s: status %d, %v", first.ID, resp.StatusCode, err)
	}
	if !bytes.Equal(replayed, posted) {
		t.Fatalf("stream endpoint replays\n%s\nthe POST streamed\n%s", replayed, posted)
	}
}

// TestCoordinatorTakeoverGolden: kill the fleet coordinator mid-merge
// and stand up a replacement over the same journal directory. The new
// coordinator must reconstruct the job from journal + caches, re-plan
// only the missing shards, and deliver the byte-identical table under
// the original job id.
func TestCoordinatorTakeoverGolden(t *testing.T) {
	noLeakedCommitters(t)
	_, single := newTestServer(t, Config{PoolSize: 2})
	want := lastEvent(t, postQuery(t, single, bigQuery))
	wantTable, _ := want["table"].(string)

	// Two live workers shared by every coordinator generation.
	urls := make([]string, 2)
	for i := 0; i < 2; i++ {
		_, ts := newTestServer(t, Config{PoolSize: 2, CacheDir: t.TempDir()})
		urls[i] = ts.URL
	}
	for k := 0; k <= 12; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { coordinatorTakeoverGolden(t, urls, k, wantTable) })
	}
}

func coordinatorTakeoverGolden(t *testing.T, urls []string, k int, wantTable string) {
	journalDir := t.TempDir()
	c1, err := New(Config{Coordinator: true, Peers: urls, JournalDir: journalDir})
	if err != nil {
		t.Fatal(err)
	}
	id := crashAtPoint(t, c1, bigQuery, k)

	c2, err := New(Config{Coordinator: true, Peers: urls, JournalDir: journalDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	resumed, warns, err := c2.Recover()
	if err != nil || resumed != 1 {
		t.Fatalf("takeover resumed %d jobs (err=%v, warnings=%v)", resumed, err, warns)
	}

	lines := collectJob(t, c2, id, 0)
	if got := tableOf(t, lines); got != wantTable {
		t.Fatalf("takeover table differs from single-daemon run:\n--- want ---\n%s--- got ---\n%s", wantTable, got)
	}
	points := 0
	for _, ln := range lines {
		var ev PointEvent
		if json.Unmarshal(ln, &ev) == nil && ev.Type == "point" {
			points++
			if ev.Done != points {
				t.Fatalf("takeover stream out of order at %d: %s", points, ln)
			}
		}
	}
	if points != 12 {
		t.Fatalf("takeover streamed %d points, want 12", points)
	}
}

// TestChaosCutResume: with a cut aborting every streaming response
// after three writes, a client that reconnects with from=<received>
// (the wtql/wtload loop) must still converge to the exact table —
// end-to-end proof that resume survives repeated connection loss.
func TestChaosCutResume(t *testing.T) {
	_, clean := newTestServer(t, Config{PoolSize: 2})
	want := lastEvent(t, postQuery(t, clean, smallQuery))

	cut := &faults{cut: 3}
	_, ts := newFaultyServer(t, Config{PoolSize: 2, JournalDir: t.TempDir()}, cut)

	var table string
	attempts := 0
	s := Session{Request: QueryRequest{Query: smallQuery}}
	for table == "" {
		if attempts++; attempts > 20 {
			t.Fatalf("no result after %d attempts (%d points)", attempts, s.Points)
		}
		lines, err := Client{}.Attempt(context.Background(), ts.URL, &s, func(ev *Event) error {
			if ev.Type != "result" {
				return nil
			}
			r, err := ev.Result()
			table = r.Table
			return err
		})
		if attempts == 1 && lines != 3 {
			t.Fatalf("cut=3 let %d lines through on the first attempt", lines)
		}
		if s.Job == "" {
			t.Fatal("stream died before the job event")
		}
		var refused *StatusError
		if errors.As(err, &refused) {
			t.Fatalf("resume attempt returned %v", err)
		}
	}
	if attempts < 2 {
		t.Fatalf("the cut never fired (attempts=%d) — the test proved nothing", attempts)
	}
	if s.Points != 4 {
		t.Fatalf("received %d point events across %d attempts, want exactly 4 (no duplicates, no loss)", s.Points, attempts)
	}
	if table != want["table"] {
		t.Fatalf("resumed table differs from clean run:\n--- want ---\n%v--- got ---\n%v", want["table"], table)
	}
	if _, cuts := cut.counts(); cuts == 0 {
		t.Fatalf("the wrapper recorded no cuts")
	}
}

// journalEntries is how many entries smallQuery's job queues on its
// journal: the begin record, the job line, four points, the end record.
const journalEntries = 7

// awaitQueued blocks until n entries have been queued on l.
func awaitQueued(t testing.TB, l *segLog, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(100 * time.Microsecond) {
		l.mu.Lock()
		queued := l.queued
		l.mu.Unlock()
		if queued >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("job queued %d journal entries, want %d", queued, n)
			return
		}
	}
}

// TestJournalWriteAheadWatermark pins the write-ahead rule under
// group commit. With the disk held still the job runs to completion and
// queues its whole stream, yet a follower sees none of it; every line a
// follower is ever handed already has its record in the file; and the
// batch that was waiting goes out behind one fsync, which is where its
// journal_append spans end.
func TestJournalWriteAheadWatermark(t *testing.T) {
	noLeakedCommitters(t)
	dir := t.TempDir()
	srv, err := New(Config{PoolSize: 2, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	// The first two flushes stop at the gate until the test lets them by.
	// One committer at a time: flushes needs no lock. The job's first
	// point waits until the first flush has taken its batch, so that batch
	// is the begin record alone however late the committer starts.
	entered := make(chan struct{})
	hold := []chan struct{}{make(chan struct{}), make(chan struct{})}
	firstFlush := make(chan struct{})
	flushes := 0
	srv.journal.log.flushGate = func() {
		if n := flushes; n < len(hold) {
			flushes++
			if n == 0 {
				close(firstFlush)
			}
			entered <- struct{}{}
			<-hold[n]
		}
	}
	srv.pointGate = func(index int) {
		if index == 0 {
			<-firstFlush
		}
	}
	id, err := srv.Submit(QueryRequest{Query: smallQuery})
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu   sync.Mutex
		seen []string // event types delivered to the follower
	)
	followed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		followed <- srv.Follow(ctx, id, 0, func(line []byte) error {
			var ev struct {
				Type string `json:"type"`
			}
			if err := json.Unmarshal(line, &ev); err != nil {
				return err
			}
			_, kinds := wholeFrames(onDisk(t, dir))
			onDisk := strings.Join(kinds, " ")
			mu.Lock()
			defer mu.Unlock()
			seen = append(seen, ev.Type)
			points := strings.Count(strings.Join(seen, " "), "point")
			switch {
			case ev.Type == "job" && !strings.HasPrefix(onDisk, "begin"),
				ev.Type == "point" && strings.Count(onDisk, "point") < points,
				ev.Type == "result" && !strings.HasSuffix(onDisk, "end"):
				t.Errorf("follower was handed %v with only [%s] on disk", seen, onDisk)
			}
			return nil
		})
	}()

	<-entered // the begin record's flush is held
	awaitQueued(t, srv.journal.log, journalEntries)
	if info, _ := srv.Job(id); info.State != JobDone {
		t.Fatalf("job did not run to completion behind the held flush: %+v", info)
	}
	held := time.Now()
	mu.Lock()
	if len(seen) != 0 {
		t.Fatalf("follower saw %v before anything was durable", seen)
	}
	mu.Unlock()
	if data := onDisk(t, dir); len(data) != 0 {
		t.Fatalf("journal not empty behind the held flush: %d bytes", len(data))
	}

	close(hold[0])
	<-entered // first batch released, second (all four points + end) held
	mu.Lock()
	if got := strings.Join(seen, " "); got != "" && got != "job" {
		t.Fatalf("follower saw [%s] with only the begin record durable", got)
	}
	mu.Unlock()
	heldFor := time.Since(held)

	close(hold[1])
	if err := <-followed; err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(seen, " "); got != "job point point point point result" {
		t.Fatalf("stream delivered [%s]", got)
	}
	if n, recs := srv.tel.journalFsync.Count(), srv.tel.journalAppends.Value(); n != 2 || recs != 6 {
		t.Fatalf("%d flushes for %d records, want 2 for 6", n, recs)
	}
	info, _ := srv.Job(id)
	spans, _ := srv.tel.tracer.Spans(info.TraceID)
	appends := 0
	for _, sp := range spans {
		if sp.Name != "journal_append" {
			continue
		}
		appends++
		// Started when the point was queued, before the hold; ended by
		// the fsync after it — not at enqueue.
		if sp.Attrs["batch"] != "5" || sp.Duration < heldFor {
			t.Errorf("journal_append span %+v: want batch=5 and duration >= %v", sp, heldFor)
		}
	}
	if appends != 4 {
		t.Fatalf("%d journal_append spans, want 4", appends)
	}
}

// TestJournalFlushErrorDegradesJob: the journal's file breaks under a
// running job with two points durable. The failed batch and everything
// after it must still be released, in order — the client's stream is
// complete and byte-identical to an undisturbed run's — the job finishes
// normally, the file is left a clean contiguous prefix, and a restarted
// daemon resumes from it.
func TestJournalFlushErrorDegradesJob(t *testing.T) {
	noLeakedCommitters(t)
	clean, err := New(Config{PoolSize: 1, JournalDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clean.Close)
	cleanID, err := clean.Submit(QueryRequest{Query: smallQuery})
	if err != nil {
		t.Fatal(err)
	}
	want := collectJob(t, clean, cleanID, 0)

	journalDir, cacheDir := t.TempDir(), t.TempDir()
	srv, err := New(Config{PoolSize: 1, JournalDir: journalDir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	const durable = 2
	srv.pointGate = func(index int) {
		if index != durable {
			return
		}
		// Points 0 and 1 are on disk and nothing is in flight: close the
		// descriptor under the journal, so its next write fails.
		srv.journals()[0].sync()
		l := srv.journal.log
		l.mu.Lock()
		l.head.f.Close()
		l.mu.Unlock()
	}
	id, err := srv.Submit(QueryRequest{Query: smallQuery})
	if err != nil {
		t.Fatal(err)
	}
	got := collectJob(t, srv, id, 0)
	if len(got) != len(want) {
		t.Fatalf("degraded stream has %d lines, clean run %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("degraded stream differs at line %d:\n%s\nvs\n%s", i, got[i], want[i])
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if !srv.WaitJobs(ctx) {
		t.Fatal("job wedged after the flush failure")
	}
	if info, _ := srv.Job(id); info.State != JobDone {
		t.Fatalf("job finished as %+v, want done", info)
	}
	srv.Close()

	jobs, warns := recoverDir(t, journalDir)
	if len(jobs) != 1 || len(warns) != 0 {
		t.Fatalf("broken journal is not a clean prefix: jobs=%+v warns=%v", jobs, warns)
	}
	if jobs[0].Status != "" || len(jobs[0].Points) != durable {
		t.Fatalf("recovered %d points, status %q; want %d durable points of an incomplete job", len(jobs[0].Points), jobs[0].Status, durable)
	}

	b, err := New(Config{PoolSize: 1, JournalDir: journalDir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	if resumed, warns, err := b.Recover(); err != nil || resumed != 1 {
		t.Fatalf("restart resumed %d jobs (err=%v, warnings=%v)", resumed, err, warns)
	}
	if tableOf(t, collectJob(t, b, id, 0)) != tableOf(t, want) {
		t.Fatal("table resumed from the broken journal differs")
	}
}

// TestJournalTornBatchResumeGolden: a daemon killed while a multi-record batch
// was on its way to the disk leaves a prefix of the batch's bytes. For a
// cut inside each record of such a batch, the restarted daemon must
// replay the whole records before the cut verbatim, re-run the rest and
// produce the byte-identical table.
func TestJournalTornBatchResumeGolden(t *testing.T) {
	noLeakedCommitters(t)
	journalDir, cacheDir := t.TempDir(), t.TempDir()
	a, err := New(Config{PoolSize: 2, JournalDir: journalDir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	// Hold the begin record's flush until the job has queued everything:
	// the four points and the end record then share the second batch.
	first := true
	a.journal.log.flushGate = func() {
		if first {
			first = false
			awaitQueued(t, a.journal.log, journalEntries)
		}
	}
	id, err := a.Submit(QueryRequest{Query: smallQuery})
	if err != nil {
		t.Fatal(err)
	}
	want := collectJob(t, a, id, 0)
	if n := a.tel.journalFsync.Count(); n != 2 {
		t.Fatalf("job flushed %d batches, want 2", n)
	}
	data := onDisk(t, journalDir)
	ends, _ := wholeFrames(data)
	if len(ends) != 6 {
		t.Fatalf("journal holds %d records, want 6", len(ends))
	}

	for r := 1; r < len(ends); r++ {
		cut := (ends[r-1] + ends[r]) / 2 // inside record r: r-1 points survive
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000001"+segmentExt), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := New(Config{PoolSize: 2, JournalDir: dir, CacheDir: cacheDir})
		if err != nil {
			t.Fatal(err)
		}
		resumed, warns, err := b.Recover()
		if err != nil || resumed != 1 || !strings.Contains(strings.Join(warns, "\n"), "truncating") {
			t.Fatalf("cut in record %d: resumed %d (err=%v, warnings=%v)", r, resumed, err, warns)
		}
		got := collectJob(t, b, id, 0)
		b.Close()
		if tableOf(t, got) != tableOf(t, want) {
			t.Fatalf("cut in record %d: resumed table differs", r)
		}
		for i := 0; i < r; i++ { // the job line and the r-1 surviving points
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut in record %d: replayed line %d differs:\n%s\nvs\n%s", r, i, got[i], want[i])
			}
		}
	}
}

// countingFS is the os file system, counting the operations that change
// a directory.
type countingFS struct {
	osFS
	creates, removes, syncDirs atomic.Int64
}

func (fs *countingFS) Create(name string) (logFile, error) {
	fs.creates.Add(1)
	return fs.osFS.Create(name)
}

func (fs *countingFS) Remove(name string) error {
	fs.removes.Add(1)
	return fs.osFS.Remove(name)
}

func (fs *countingFS) SyncDir(dir string) error {
	fs.syncDirs.Add(1)
	return fs.osFS.SyncDir(dir)
}

// dirNames returns the names under the given directories.
func dirNames(t testing.TB, dirs ...string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			names[filepath.Join(dir, e.Name())] = true
		}
	}
	return names
}

// TestWarmDurableQueriesTouchNoFiles: with a registry already full of
// finished jobs, 100 warm 8-point durable queries change no directory
// entry of the journal or the cache beyond one new and one deleted
// segment, and through the file interface they create, remove and
// fsync no directory at all.
func TestWarmDurableQueriesTouchNoFiles(t *testing.T) {
	noLeakedCommitters(t)
	journalDir, cacheDir := t.TempDir(), t.TempDir()
	fs := &countingFS{}
	srv, err := newServer(Config{PoolSize: 2, JournalDir: journalDir, CacheDir: cacheDir}, disk{fs, segmentRoll})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.now = func() time.Time { return time.Unix(1700000000, 0) }
	run := func() {
		t.Helper()
		id, err := srv.Submit(QueryRequest{Query: serveWarmQuery})
		if err != nil {
			t.Fatal(err)
		}
		collectJob(t, srv, id, 0)
		if info, _ := srv.Job(id); info.State != JobDone || info.Done != 8 {
			t.Fatalf("%s ended as %+v", id, info)
		}
	}
	run() // cold: the eight points reach the disk tier
	for i := 0; i < maxRetainedJobs; i++ {
		run()
	}
	before := dirNames(t, journalDir, cacheDir)
	hits := srv.Cache().Stats().Hits
	fs.creates.Store(0)
	fs.removes.Store(0)
	fs.syncDirs.Store(0)
	for i := 0; i < 100; i++ {
		run()
	}
	if n := srv.Cache().Stats().Hits - hits; n != 800 {
		t.Fatalf("100 warm queries hit the cache %d times, want 800", n)
	}
	after := dirNames(t, journalDir, cacheDir)
	var added, removed []string
	for name := range after {
		if !before[name] {
			added = append(added, name)
		}
	}
	for name := range before {
		if !after[name] {
			removed = append(removed, name)
		}
	}
	if len(added) > 1 || len(removed) > 1 || len(added)+len(removed) > 0 && !strings.HasSuffix(strings.Join(append(added, removed...), ""), segmentExt) {
		t.Fatalf("100 warm queries added %v and removed %v", added, removed)
	}
	if c, r, d := fs.creates.Load(), fs.removes.Load(), fs.syncDirs.Load(); c+r+d != 0 {
		t.Fatalf("100 warm queries made %d creates, %d removes and %d directory fsyncs", c, r, d)
	}
	t.Logf("%d names in the two directories; %d segments", len(after), len(segments(t, journalDir)))
}

// TestParentJobResumesOnceAcrossTwoCrashes: on the parent_be31c54
// fixture, a restart resumes job-2; crashing it again and restarting
// once more brings job-2 back exactly once, with the parent's table and
// no point streamed twice.
func TestParentJobResumesOnceAcrossTwoCrashes(t *testing.T) {
	noLeakedCommitters(t)
	fixture := filepath.Join("testdata", "parent_be31c54")
	journalDir, cacheDir := t.TempDir(), t.TempDir()
	copyTree(t, filepath.Join(fixture, "journal"), journalDir)
	copyTree(t, filepath.Join(fixture, "cache"), cacheDir)
	cfg := Config{PoolSize: 1, JournalDir: journalDir, CacheDir: cacheDir}

	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	// Crash the resumed job once it has journaled its third point.
	crashed, stop := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(stop) })
	a.pointGate = func(index int) {
		if index == 3 {
			close(crashed)
			<-stop // the fourth is committed only after the crash
		}
	}
	if resumed, warns, err := a.Recover(); err != nil || resumed != 1 {
		t.Fatalf("first restart resumed %d (%v, %v)", resumed, err, warns)
	}
	<-crashed
	a.crashForTest()

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	resumed, warns, err := b.Recover()
	if err != nil || resumed != 1 {
		t.Fatalf("second restart resumed %d (%v, %v), want job-2 once", resumed, err, warns)
	}
	jobs := 0
	for _, info := range b.Jobs() {
		if info.ID == "job-2" {
			jobs++
		}
	}
	lines := collectJob(t, b, "job-2", 0)
	want, err := os.ReadFile(filepath.Join(fixture, "job-2.table"))
	if err != nil {
		t.Fatal(err)
	}
	if jobs != 1 || tableOf(t, lines) != string(want) {
		t.Fatalf("job-2 is held %d times and renders\n%s\nwant\n%s", jobs, tableOf(t, lines), want)
	}
	indices := map[int]bool{}
	for _, line := range lines[1 : len(lines)-1] {
		var ev PointEvent
		if err := json.Unmarshal(line, &ev); err != nil || ev.Type != "point" || indices[ev.Index] {
			t.Fatalf("job-2 streams %s again or out of place", line)
		}
		indices[ev.Index] = true
	}
	if len(indices) != 4 {
		t.Fatalf("job-2 streamed %d points, want 4", len(indices))
	}
}
