package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wtql"
)

// The two queries whose durable runs at the parent commit (be31c54) are
// under testdata/parent_be31c54: job-1 finished; job-2 was killed with
// two of its four points committed and a third already in the disk cache.
const (
	parentFinished = `SIMULATE availability
VARY cluster.nodes IN (5, 6), storage.replication IN (2, 3)
WITH users = 20, object_mb = 10, trials = 2, horizon_hours = 200, node.ttf = 'exp(mean=500)'
WHERE sla.availability >= 0.2`
	parentCrashed = `SIMULATE availability
VARY cluster.nodes IN (5, 6), storage.replication IN (2, 3)
WITH users = 20, object_mb = 10, trials = 2, horizon_hours = 200, node.ttf = 'exp(mean=500)', seed = 9
WHERE sla.availability >= 0.2 ORDER BY cost.total ASC`
)

// copyTree copies the regular files of src (one level of directories is
// all the fixtures have) into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServesParentWrittenState: a daemon started over a journal directory
// and a disk cache written by the parent commit carries on as the parent
// would have. Every cache file is named by a CacheKey digest and every
// journal record holds one, so this is the end-to-end form of "the key
// did not change": the finished job replays the bytes the parent
// streamed, the killed job resumes from its journaled prefix, finds its
// third point in the parent's cache, simulates only the fourth and
// renders the table an uninterrupted parent run rendered, and a repeat of
// the finished query is served from the parent's cache files alone.
func TestServesParentWrittenState(t *testing.T) {
	noLeakedCommitters(t)
	fixture := filepath.Join("testdata", "parent_be31c54")
	journalDir, cacheDir := t.TempDir(), t.TempDir()
	copyTree(t, filepath.Join(fixture, "journal"), journalDir)
	copyTree(t, filepath.Join(fixture, "cache"), cacheDir)

	srv, err := New(Config{PoolSize: 1, JournalDir: journalDir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	resumed, warns, err := srv.Recover()
	if err != nil || resumed != 1 {
		t.Fatalf("Recover resumed %d jobs (%v, warnings %v), want job-2 alone", resumed, err, warns)
	}

	if info, ok := srv.Job("job-2"); !ok || info.Query != parentCrashed || !info.Resumed {
		t.Fatalf("job-2 came back as %+v", info)
	}

	wantStream, err := os.ReadFile(filepath.Join(fixture, "job-1.stream"))
	if err != nil {
		t.Fatal(err)
	}
	replay := append(bytes.Join(collectJob(t, srv, "job-1", 0), []byte("\n")), '\n')
	if !bytes.Equal(replay, wantStream) {
		t.Fatalf("job-1 replays differently from what the parent streamed:\n got %s\nwant %s", replay, wantStream)
	}

	wantTable, err := os.ReadFile(filepath.Join(fixture, "job-2.table"))
	if err != nil {
		t.Fatal(err)
	}
	lines := collectJob(t, srv, "job-2", 0)
	if got := tableOf(t, lines); got != string(wantTable) {
		t.Fatalf("resumed job-2 renders\n%s\nthe parent's uninterrupted run rendered\n%s", got, wantTable)
	}
	if len(lines) != 6 {
		t.Fatalf("job-2 streamed %d lines, want job + 4 points + result", len(lines))
	}
	st := srv.Cache().Stats()
	if st.DiskHits != 1 || st.Misses != 1 {
		t.Fatalf("resuming job-2: %d disk hits and %d misses, want the parent's cached third point hit and only the fourth simulated", st.DiskHits, st.Misses)
	}

	id, err := srv.Submit(QueryRequest{Query: parentFinished})
	if err != nil {
		t.Fatal(err)
	}
	repeat := collectJob(t, srv, id, 0)
	if got, want := tableOf(t, repeat), tableOf(t, bytes.Split(bytes.TrimSuffix(wantStream, []byte("\n")), []byte("\n"))); got != want {
		t.Fatalf("repeat of the parent's finished query renders\n%s\nwant\n%s", got, want)
	}
	if st := srv.Cache().Stats(); st.DiskHits != 5 || st.Misses != 1 {
		t.Fatalf("repeating the finished query: %d disk hits and %d misses in total, want all four points read from the parent's files", st.DiskHits, st.Misses)
	}
}

// TestServesRetiredTargetCIState: a journal the parent commit (f352535)
// wrote for two queries that set the retired target_ci = 1e-3, under
// testdata/parent_f352535. Job-1 finished there, its points stopped at 2
// of 4 trials; job-2 was killed with two of its four points journaled.
// The finished job replays the bytes the parent streamed, because nothing
// plans it again. The unfinished one streams its journaled points and ends
// failed, with the retired-row error its query now plans to. The daemon
// then answers a fresh query.
func TestServesRetiredTargetCIState(t *testing.T) {
	noLeakedCommitters(t)
	fixture := filepath.Join("testdata", "parent_f352535")
	journalDir := t.TempDir()
	copyTree(t, filepath.Join(fixture, "journal"), journalDir)
	srv, err := New(Config{PoolSize: 1, JournalDir: journalDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if resumed, warns, err := srv.Recover(); err != nil || resumed != 1 {
		t.Fatalf("Recover resumed %d jobs (%v, warnings %v), want job-2 alone", resumed, err, warns)
	}

	wantStream, err := os.ReadFile(filepath.Join(fixture, "job-1.stream"))
	if err != nil {
		t.Fatal(err)
	}
	if replay := append(bytes.Join(collectJob(t, srv, "job-1", 0), []byte("\n")), '\n'); !bytes.Equal(replay, wantStream) {
		t.Fatalf("job-1 replays differently from what the parent streamed:\n got %s\nwant %s", replay, wantStream)
	}

	q, err := wtql.Parse(`SIMULATE availability VARY seed IN (1) WITH target_ci = 1e-3`)
	if err != nil {
		t.Fatal(err)
	}
	_, retired := (&wtql.Engine{}).Plan(q)
	if retired == nil || !strings.Contains(retired.Error(), "verdict-driven stopping") {
		t.Fatalf("a query setting target_ci plans to %v, want the retired-row error", retired)
	}
	lines := collectJob(t, srv, "job-2", 0)
	if len(lines) != 4 {
		t.Fatalf("job-2 streamed %d lines, want job + its 2 journaled points + error:\n%s", len(lines), bytes.Join(lines, []byte("\n")))
	}
	for i, line := range lines[1:3] {
		var ev PointEvent
		if err := json.Unmarshal(line, &ev); err != nil || ev.Type != "point" || ev.Index != i || ev.Total != 4 {
			t.Fatalf("job-2 line %d is %s, want journaled point %d of 4", i+1, line, i)
		}
	}
	var end ErrorEvent
	if err := json.Unmarshal(lines[3], &end); err != nil || end.Type != "error" || end.Error != retired.Error() {
		t.Fatalf("job-2 ended with %s, want the retired-row error", lines[3])
	}
	if info, ok := srv.Job("job-2"); !ok || info.State != JobFailed || info.Error != retired.Error() {
		t.Fatalf("job-2 came back as %+v", info)
	}

	id, err := srv.Submit(QueryRequest{Query: smallQuery})
	if err != nil {
		t.Fatal(err)
	}
	if fresh := collectJob(t, srv, id, 0); !strings.Contains(string(fresh[len(fresh)-1]), `"type":"result"`) {
		t.Fatalf("a fresh query after the recovery ended with %s", fresh[len(fresh)-1])
	}
}

// TestSetIsNotAStatement: SET and its second vocabulary are gone, not
// deprecated. It fails to parse as any non-query does, at 1:1, and a
// daemon ends its job in an error event. In a journal the parent wrote, a
// finished SET job replays the bytes it streamed then (the line the
// parent's daemon wrote for this statement, settings and all); an
// unfinished one cannot be planned again and ends in the same error.
func TestSetIsNotAStatement(t *testing.T) {
	const set, refusal = "SET runner.crn = on", `wtql: expected SIMULATE at 1:1, got "SET"`
	if _, err := wtql.Parse(set); err == nil || err.Error() != refusal {
		t.Fatalf("Parse(%q) = %v", set, err)
	}
	_, ts := newTestServer(t, Config{PoolSize: 1})
	if final := lastEvent(t, postQuery(t, ts, set)); final["type"] != "error" || final["error"] != refusal {
		t.Fatalf("a SET job ended with %v", final)
	}

	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	parentStream := [][]byte{[]byte(`{"type":"job","id":"job-1"}`),
		[]byte(`{"type":"result","id":"job-1","columns":["setting","value"],"rows":[],"executed":0,"pruned":0,"screened":0,"cache_hits":0,"settings":{"runner.crn":"true"},"table":"setting                       value\n----------------------------  --------\nrunner.crn                    true\n","degraded":false}`)}
	created := time.Unix(1700000000, 0)
	finished, err := j.Begin("job-1", set, 0, created)
	if err != nil {
		t.Fatal(err)
	}
	if err := finished.End("done", "", parentStream[1]); err != nil {
		t.Fatal(err)
	}
	unfinished, err := j.Begin("job-2", set, 0, created)
	if err != nil {
		t.Fatal(err)
	}
	unfinished.Close() // killed before it answered

	srv, _ := newTestServer(t, Config{PoolSize: 1, JournalDir: dir})
	if resumed, warns, err := srv.Recover(); err != nil || resumed != 1 {
		t.Fatalf("Recover resumed %d jobs (%v, warnings %v), want job-2 alone", resumed, err, warns)
	}
	if got := collectJob(t, srv, "job-1", 0); !bytes.Equal(bytes.Join(got, []byte("\n")), bytes.Join(parentStream, []byte("\n"))) {
		t.Fatalf("finished SET job replays\n%s\nwant\n%s", bytes.Join(got, []byte("\n")), bytes.Join(parentStream, []byte("\n")))
	}
	lines := collectJob(t, srv, "job-2", 0)
	var end ErrorEvent
	if err := json.Unmarshal(lines[len(lines)-1], &end); err != nil || end.Type != "error" || end.Error != refusal {
		t.Fatalf("unfinished SET job ended with %s", lines[len(lines)-1])
	}
}
