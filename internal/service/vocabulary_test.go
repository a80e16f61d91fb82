package service

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/wtql"
)

// TestOversizedQueryFailsTheJobNotTheDaemon: a query that asks for more
// than any design in the repository comes near — ten billion users, 1e30
// racks, ten billion nodes a factor at a time, a billion trials in the
// query or in the request body — is a failed job: an error event that
// names what was asked for and its ceiling, at once, with nothing sized by
// the request ever allocated. The daemon answers the next query, and after
// a crash its journal holds no job that would resume. (Before the
// ceilings the first of these was `fatal error: out of memory` — not a
// panic, so nothing recovered it — and since the job was journaled before
// it ran, so was every restart.)
func TestOversizedQueryFailsTheJobNotTheDaemon(t *testing.T) {
	journalDir := t.TempDir()
	srv, ts := newTestServer(t, Config{PoolSize: 2, JournalDir: journalDir})
	const sweep = "SIMULATE availability VARY cluster.nodes IN (5, 6) WITH object_mb = 10, horizon_hours = 200, "
	oversized := []struct {
		req  QueryRequest
		want []string
	}{
		{QueryRequest{Query: sweep + "users = 1e10"}, []string{"users = 1e+10", "ceiling of 10000000"}},
		{QueryRequest{Query: sweep + "cluster.racks = 1e30"}, []string{"cluster.racks = 1e+30", "ceiling of 1000000"}},
		{QueryRequest{Query: "SIMULATE availability VARY users IN (20) WITH cluster.racks = 100000, cluster.nodes_per_rack = 100000"},
			[]string{"100000 racks x 100000 nodes per rack", "ceiling of 1000000 nodes"}},
		{QueryRequest{Query: sweep + "users = 20, trials = 1e9"}, []string{"trials = 1e+09", "ceiling of 10000000"}},
		{QueryRequest{Query: sweep + "users = 20", Trials: 2000000000}, []string{"2000000000 trials", "ceiling of 10000000"}},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, o := range oversized {
		start := time.Now()
		last := lastEvent(t, postRequest(t, ts, o.req))
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: answered after %v", o.req.Query, took)
		}
		msg, _ := last["error"].(string)
		if last["type"] != "error" {
			t.Errorf("%s: ended with %v, want an error event", o.req.Query, last)
		}
		for _, want := range o.want {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: error %q does not say %q", o.req.Query, msg, want)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("refusing %d oversized queries allocated %d MB", len(oversized), grew>>20)
	}

	if last := lastEvent(t, postQuery(t, ts, smallQuery)); last["type"] != "result" {
		t.Fatalf("the query after them ended with %v", last)
	}

	// kill -9, restart on the same journal: every one of those jobs has its
	// terminal record, so nothing comes back to try again.
	srv.crashForTest()
	srv.Close()
	restarted, err := New(Config{PoolSize: 2, JournalDir: journalDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restarted.Close)
	resumed, warnings, err := restarted.Recover()
	if err != nil || resumed != 0 {
		t.Fatalf("restart resumed %d job(s) (err %v): %v", resumed, err, warnings)
	}
	jobs := restarted.Jobs()
	if len(jobs) != len(oversized)+1 {
		t.Errorf("restart recovered %d jobs, want %d", len(jobs), len(oversized)+1)
	}
	for _, j := range jobs {
		if j.State == JobRunning {
			t.Errorf("%s is running after the restart: %s", j.ID, j.Query)
		}
	}
}

// TestSchemeSweep: erasure coding against replication — the paper's §1
// trade-off, and what a scenario file could always say — is a query, and
// so a daemon's and a fleet's: the same bytes from a local engine, a
// daemon and a coordinator, with storage.overhead 3, 1.5 and 1.4.
func TestSchemeSweep(t *testing.T) {
	const query = `SIMULATE availability
VARY storage.scheme IN ('rep-3', 'rs-6-3', 'rs-10-4')
WITH cluster.racks = 2, cluster.nodes_per_rack = 8, users = 20, object_mb = 10, trials = 2, horizon_hours = 200
ORDER BY storage.overhead DESC`
	rs, err := (&wtql.Engine{TrialWorkers: 1}).Execute(query)
	if err != nil {
		t.Fatal(err)
	}
	want := rs.Render()
	var overheads []float64
	for _, row := range rs.Rows {
		overheads = append(overheads, row.Metrics["storage.overhead"])
	}
	if len(overheads) != 3 || overheads[0] != 3 || overheads[1] != 1.5 || overheads[2] != 1.4 {
		t.Fatalf("storage.overhead by row = %v, want 3, 1.5, 1.4\n%s", overheads, want)
	}
	for _, cell := range []string{"rep-3", "rs-6-3", "rs-10-4", "1.5", "1.4"} {
		if !strings.Contains(want, cell) {
			t.Fatalf("rendered table lacks %q:\n%s", cell, want)
		}
	}

	_, daemon := newTestServer(t, Config{PoolSize: 2})
	if got, _ := lastEvent(t, postQuery(t, daemon, query))["table"].(string); got != want {
		t.Errorf("daemon's table differs from the local engine's:\n--- local ---\n%s--- daemon ---\n%s", want, got)
	}
	_, coordinator, _, _ := startFleet(t, 2, false)
	last := lastEvent(t, postQuery(t, coordinator, query))
	if got, _ := last["table"].(string); got != want || last["degraded"] == true {
		t.Errorf("fleet's table differs from the local engine's (degraded: %v):\n--- local ---\n%s--- fleet ---\n%s", last["degraded"], want, got)
	}
}

// TestOnePointQuery: a query without VARY is a one-point job like any
// other. The daemon streams one point event whose config is empty, then
// the table the local engine renders, byte for byte.
func TestOnePointQuery(t *testing.T) {
	const query = "SIMULATE availability WITH users = 20, object_mb = 10, trials = 2, horizon_hours = 200"
	rs, err := (&wtql.Engine{TrialWorkers: 1}).Execute(query)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{PoolSize: 2})
	events := postQuery(t, ts, query)
	var points []map[string]any
	for _, ev := range events {
		if ev["type"] == "point" {
			points = append(points, ev)
		}
	}
	if len(points) != 1 {
		t.Fatalf("streamed %d point events, want 1: %v", len(points), events)
	}
	if config, ok := points[0]["config"].(map[string]any); !ok || len(config) != 0 {
		t.Errorf("the point's config is %v, want {}", points[0]["config"])
	}
	last := lastEvent(t, events)
	if got, _ := last["table"].(string); last["type"] != "result" || got != rs.Render() {
		t.Errorf("daemon's result differs from the local engine's:\n--- local ---\n%s--- daemon ---\n%v", rs.Render(), last)
	}
}
