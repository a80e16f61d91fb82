package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wtql"
)

// The client half of the serving contract — stream, reconnect, resume by
// cursor, fail over — against real servers: what CI's crash- and
// fleet-smoke jobs drive through wtql and wtload, in tier-1.

// recorder collects what one query's attempts delivered.
type recorder struct {
	lines  [][]byte
	jobs   []string
	points []PointEvent
	result *ResultEvent
}

func (r *recorder) on(ev *Event) error {
	r.lines = append(r.lines, bytes.Clone(ev.line))
	switch ev.Type {
	case "job":
		j, err := ev.Job()
		r.jobs = append(r.jobs, j.ID)
		return err
	case "point":
		p, err := ev.Point()
		r.points = append(r.points, p)
		return err
	case "result":
		res, err := ev.Result()
		r.result = &res
		return err
	}
	return fmt.Errorf("unexpected event type %q", ev.Type)
}

// exactlyOnce checks the points arrived once each, in order, and that the
// table is the one an uninterrupted run renders.
func (r *recorder) exactlyOnce(t *testing.T, total int, wantTable string) {
	t.Helper()
	if len(r.points) != total {
		t.Fatalf("received %d point events, want %d", len(r.points), total)
	}
	for i, p := range r.points {
		if p.Done != i+1 || p.Total != total {
			t.Fatalf("point event %d reads done=%d total=%d", i, p.Done, p.Total)
		}
	}
	if r.result == nil || r.result.Table != wantTable {
		t.Fatalf("result %+v, want the table\n%s", r.result, wantTable)
	}
}

// localRun executes query on a plain engine — what the CLI does — and
// returns the rendered table with each point's outcome.
func localRun(t testing.TB, query string) (*wtql.ResultSet, []core.PointOutcome) {
	t.Helper()
	q, err := wtql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (&wtql.Engine{Trials: 5}).Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	var outs []core.PointOutcome
	if err := plan.RunSubset(context.Background(), nil, func(out core.PointOutcome) { outs = append(outs, out) }); err != nil {
		t.Fatal(err)
	}
	rs, err := plan.Assemble(outs)
	if err != nil {
		t.Fatal(err)
	}
	return rs, outs
}

func sameBits(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// TestClientRoundTrip: on every kind of daemon, what Client.Query hands
// out is what the job's log holds, line for line; decoded into the
// server's own event types it loses nothing (re-encoding gives the line
// back), carries the local run's metrics bit for bit, and the result's
// table is the CLI's.
func TestClientRoundTrip(t *testing.T) {
	local, outs := localRun(t, smallQuery)
	for _, mode := range resumeModes {
		t.Run(mode.name, func(t *testing.T) {
			srv, ts := mode.start(t)
			var rec recorder
			if err := (Client{}).Query(context.Background(), ts.URL, QueryRequest{Query: smallQuery}, rec.on); err != nil {
				t.Fatal(err)
			}
			held := collectJob(t, srv, rec.jobs[0], 0)
			if len(rec.lines) != len(held) {
				t.Fatalf("client saw %d events, the log holds %d", len(rec.lines), len(held))
			}
			for i := range held {
				if !bytes.Equal(rec.lines[i], append(held[i], '\n')) {
					t.Fatalf("event %d: client saw\n%s\nthe log holds\n%s", i, rec.lines[i], held[i])
				}
			}

			var enc eventEncoder
			if len(rec.points) != len(outs) {
				t.Fatalf("%d point events, the local run has %d points", len(rec.points), len(outs))
			}
			for i, p := range rec.points {
				line, err := enc.encodePoint(&p)
				if err != nil || !bytes.Equal(line, rec.lines[1+i]) {
					t.Fatalf("point %d does not re-encode to its line (%v):\n%s\n%s", i, err, line, rec.lines[1+i])
				}
				if p.Index != outs[i].Index || !sameBits(p.Metrics, outs[i].Result.Metrics) {
					t.Fatalf("point %d metrics %v differ from the local run's %v", i, p.Metrics, outs[i].Result.Metrics)
				}
			}
			res := rec.result
			if res.Table != local.Render() {
				t.Fatalf("table differs from the CLI's:\n%s\nvs\n%s", res.Table, local.Render())
			}
			if res.ID != rec.jobs[0] || len(res.Rows) != len(local.Rows) || res.Executed != local.Executed {
				t.Fatalf("result event %+v does not describe the local run", res)
			}
			for i, row := range res.Rows {
				if !sameBits(row.Metrics, local.Rows[i].Metrics) {
					t.Fatalf("row %d metrics %v differ from the local run's %v", i, row.Metrics, local.Rows[i].Metrics)
				}
			}
		})
	}
}

// TestClientChaosCutEveryN: a daemon that cuts every stream after N lines,
// for every N up to the stream's length, and a client that does nothing
// but call Attempt again. Each point event is delivered once, in order,
// the table is the uninterrupted one, and the connections used are the
// ones the protocol predicts: a journaled daemon resumes the job's stream;
// a journal-less one that restarted in between answers 404 and is sent the
// query again with the cursor; one that merely lost its client may do
// either, depending on whether the job had finished.
func TestClientChaosCutEveryN(t *testing.T) {
	_, clean := newTestServer(t, Config{PoolSize: 2})
	wantTable, _ := lastEvent(t, postQuery(t, clean, smallQuery))["table"].(string)
	const lines, points = 6, 4 // job, four points, result

	for _, mode := range []struct {
		name    string
		journal bool
		restart bool // a fresh daemon (same address, same cache) after every cut
	}{
		{"journal", true, false},
		{"no journal", false, false},
		{"no journal, restarted", false, true},
	} {
		for n := 1; n <= lines; n++ {
			t.Run(fmt.Sprintf("%s/cut=%d", mode.name, n), func(t *testing.T) {
				var late lateHandler
				ts := httptest.NewServer(&late)
				t.Cleanup(ts.Close)
				cacheDir := t.TempDir()
				var daemons []*faults
				start := func() {
					cfg := Config{PoolSize: 2, CacheDir: cacheDir}
					if mode.journal {
						cfg.JournalDir = t.TempDir()
					}
					noLeakedCommitters(t)
					srv, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(srv.Close)
					f := &faults{cut: n}
					daemons = append(daemons, f)
					late.set(f.wrap(srv.Handler()))
				}
				start()

				var rec recorder
				s := Session{Request: QueryRequest{Query: smallQuery}}
				attempts := 0
				for rec.result == nil && attempts < 8 {
					attempts++
					got, err := (Client{}).Attempt(context.Background(), ts.URL, &s, rec.on)
					if rec.result == nil {
						// The cut: as many lines as the daemon let through,
						// then a transport error worth another connection.
						if got != n || err == nil || Permanent(err) {
							t.Fatalf("attempt %d delivered %d events and ended with %v; want %d and a retryable error", attempts, got, err, n)
						}
						if mode.restart {
							start()
						}
					}
				}
				if n == 1 {
					// Only the job line ever gets through: no cursor can
					// advance. Giving up is the caller's policy.
					if rec.result != nil || s.Points != 0 || len(rec.jobs) != attempts {
						t.Fatalf("cut=1 made progress: %+v", s)
					}
					return
				}
				rec.exactlyOnce(t, points, wantTable)
				// Every connection carries the job line, then up to n-1 of
				// the five lines that remain.
				want := (lines - 1 + n - 2) / (n - 1)
				if attempts != want {
					t.Fatalf("took %d connections, want %d", attempts, want)
				}
				requests := func(f *faults) int { n, _ := f.counts(); return n }
				switch {
				case mode.journal:
					// One POST, then GET …/stream?from= on the same job.
					if requests(daemons[0]) != attempts || len(slices.Compact(rec.jobs)) != 1 {
						t.Fatalf("%d requests over jobs %v, want %d on one job", requests(daemons[0]), rec.jobs, attempts)
					}
				case mode.restart:
					// Each new daemon is asked for the stream (404), then
					// sent the query with the cursor.
					for i, f := range daemons[:attempts] {
						if want := min(i, 1) + 1; requests(f) != want {
							t.Fatalf("daemon %d served %d requests, want %d", i, requests(f), want)
						}
					}
				}
			})
		}
	}
}

// TestClientFailoverEveryK is TestCoordinatorTakeoverGolden as its client
// lives it: a Session streaming from the primary coordinator, which is
// killed with exactly k points committed, for every k; the primary's
// address then refuses connections and the standby — started over the
// same journal directory — is sent the query with the cursor. The client
// is handed each point once, in order, and the single-daemon table.
func TestClientFailoverEveryK(t *testing.T) {
	noLeakedCommitters(t)
	_, single := newTestServer(t, Config{PoolSize: 2})
	wantTable, _ := lastEvent(t, postQuery(t, single, bigQuery))["table"].(string)

	urls := make([]string, 2)
	for i := range urls {
		_, ts := newTestServer(t, Config{PoolSize: 2, CacheDir: t.TempDir()})
		urls[i] = ts.URL
	}
	for k := 0; k <= 12; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { clientFailover(t, urls, k, wantTable) })
	}
}

func clientFailover(t *testing.T, workers []string, k int, wantTable string) {
	journalDir := t.TempDir()
	primary, err := New(Config{Coordinator: true, Peers: workers, JournalDir: journalDir})
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(primary.Handler())
	defer pts.Close()

	// The primary freezes with k points committed; once the client holds
	// all k it is killed: journal abandoned as kill -9 leaves it,
	// connections reset, address dead.
	var received atomic.Int32
	var rec recorder
	on := func(ev *Event) error {
		if ev.Type == "point" {
			received.Add(1)
		}
		return rec.on(ev)
	}
	frozen, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	primary.setPointGate(func(index int) {
		if index >= k {
			once.Do(func() { close(frozen) })
			<-release
		}
	})
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		<-frozen
		for deadline := time.Now().Add(time.Minute); int(received.Load()) < k && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		primary.crashForTest()
		pts.CloseClientConnections()
		pts.Close()
		close(release)
		primary.Close()
	}()

	// The caller's policy, at its simplest: a server that gives nothing is
	// given up for the next on the list.
	servers := []string{pts.URL, ""}
	s := Session{Request: QueryRequest{Query: bigQuery}}
	si := 0
	for attempts := 0; rec.result == nil; attempts++ {
		if attempts > 6 {
			t.Fatalf("no result after %d attempts: %+v", attempts, s)
		}
		got, err := (Client{}).Attempt(context.Background(), servers[si], &s, on)
		if err == nil {
			break
		}
		if Permanent(err) {
			t.Fatal(err)
		}
		<-killed
		if servers[1] == "" {
			standby, err := New(Config{Coordinator: true, Peers: workers, JournalDir: journalDir})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(standby.Close)
			if resumed, warns, err := standby.Recover(); err != nil || resumed != 1 {
				t.Fatalf("takeover resumed %d jobs (err=%v, warnings=%v)", resumed, err, warns)
			}
			sts := httptest.NewServer(standby.Handler())
			t.Cleanup(sts.Close)
			servers[1] = sts.URL
		}
		if got == 0 {
			si = 1
		}
	}
	if int(received.Load()) < k || s.Owner != servers[1] {
		t.Fatalf("client held %d points at the kill (want %d) and finished on %s", received.Load(), k, s.Owner)
	}
	rec.exactlyOnce(t, 12, wantTable)
}

// TestClientErrors: each way a query can end without a result is told
// apart, and none of them makes the client try again on its own.
func TestClientErrors(t *testing.T) {
	ctx := context.Background()
	nothing := func(*Event) error { return nil }

	t.Run("400 is a StatusError, permanent, one request", func(t *testing.T) {
		var requests atomic.Int32
		srv, _ := newTestServer(t, Config{PoolSize: 1})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests.Add(1)
			srv.Handler().ServeHTTP(w, r)
		}))
		defer ts.Close()
		s := Session{Request: QueryRequest{Query: smallQuery, Trials: -1}}
		got, err := (Client{}).Attempt(ctx, ts.URL, &s, nothing)
		var se *StatusError
		if !errors.As(err, &se) || se.Status != http.StatusBadRequest || !strings.Contains(se.Message, "bad trials") ||
			!Permanent(err) || got != 0 || requests.Load() != 1 {
			t.Fatalf("got %d events, %d requests, error %#v", got, requests.Load(), err)
		}
		if want := "server (HTTP 400): service: bad trials -1"; !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("error reads %q, want %q…", err, want)
		}
		if len(srv.Jobs()) != 0 {
			t.Fatalf("a refused request admitted a job: %+v", srv.Jobs())
		}
	})

	t.Run("draining is a 503, not permanent", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{PoolSize: 1})
		srv.BeginDrain()
		err := (Client{}).Query(ctx, ts.URL, QueryRequest{Query: smallQuery}, nothing)
		var se *StatusError
		if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable || Permanent(err) {
			t.Fatalf("draining daemon answered %#v", err)
		}
	})

	t.Run("an unknown job's stream is a 404", func(t *testing.T) {
		_, ts := newTestServer(t, Config{PoolSize: 1})
		err := (Client{}).Stream(ctx, ts.URL, "job-999", 0, nothing)
		var se *StatusError
		if !errors.As(err, &se) || se.Status != http.StatusNotFound || se.Message != ErrUnknownJob.Error() {
			t.Fatalf("unknown job answered %#v", err)
		}
	})

	t.Run("an error event is a JobError, permanent", func(t *testing.T) {
		_, ts := newTestServer(t, Config{PoolSize: 1})
		s := Session{Request: QueryRequest{Query: poisonQuery}}
		got, err := (Client{}).Attempt(ctx, ts.URL, &s, nothing)
		var je *JobError
		if !errors.As(err, &je) || !strings.Contains(je.Message, `unknown placement policy "nope"`) || !Permanent(err) {
			t.Fatalf("poison query ended with %#v", err)
		}
		if got != 1 || s.Job == "" || err.Error() != "server: "+je.Message {
			t.Fatalf("%d events, job %q, error %q", got, s.Job, err)
		}
	})

	t.Run("a clean end before the result is ErrTorn", func(t *testing.T) {
		// A drop comes within nine lines; bigQuery's stream has fourteen.
		_, ts := newFaultyServer(t, Config{PoolSize: 2}, &faults{drop: 1})
		err := (Client{}).Query(ctx, ts.URL, QueryRequest{Query: bigQuery}, nothing)
		if !errors.Is(err, ErrTorn) || Permanent(err) {
			t.Fatalf("dropped stream ended with %#v", err)
		}
	})

	t.Run("a body that is not the daemon's is quoted, not parsed", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "<html>bad gateway</html>", http.StatusBadGateway)
		}))
		defer ts.Close()
		err := (Client{}).Query(ctx, ts.URL, QueryRequest{Query: smallQuery}, nothing)
		if err == nil || err.Error() != "server (HTTP 502): <html>bad gateway</html>" {
			t.Fatalf("proxy error page reads %q", err)
		}
	})

	t.Run("a 200 that is not an event stream is an error, blank lines are not", func(t *testing.T) {
		body := "<html>It works!</html>\n"
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(body)) }))
		defer ts.Close()
		err := (Client{}).Query(ctx, ts.URL, QueryRequest{Query: smallQuery}, nothing)
		if err == nil || !strings.Contains(err.Error(), `bad stream line "<html>It works!</html>\n"`) || Permanent(err) {
			t.Fatalf("a web page read as a stream: %v", err)
		}
		body = "\n" + `{"type":"job","id":"j"}` + "\n \n" + `{"type":"result","id":"j","table":"t"}` + "\n"
		var rec recorder
		if err := (Client{}).Query(ctx, ts.URL, QueryRequest{Query: smallQuery}, rec.on); err != nil || len(rec.lines) != 2 || rec.result.Table != "t" {
			t.Fatalf("blank lines between events: %v, %d events", err, len(rec.lines))
		}
	})

	t.Run("the callback's error ends the stream", func(t *testing.T) {
		_, ts := newTestServer(t, Config{PoolSize: 1})
		stop := errors.New("enough")
		err := (Client{}).Query(ctx, ts.URL, QueryRequest{Query: smallQuery}, func(*Event) error { return stop })
		if err != stop {
			t.Fatalf("Query returned %v, want the callback's error", err)
		}
	})
}

// TestClientBoundedReads: a peer that never stops sending cannot make a
// reader allocate without bound or wait without bound — a one-shot reply
// is refused past its limit, a coordinator merging that peer's spans
// into a job's trace still answers, with its own, and a sweep sharded to
// that peer, whose stream is one endless line, fails the shard at the
// line bound and ends with a single daemon's table.
func TestClientBoundedReads(t *testing.T) {
	chunk := bytes.Repeat([]byte(`{"span_id":"x"},`), 4096)
	endless := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"trace_id":"t","spans":[`))
		for r.Context().Err() == nil {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer endless.Close()

	t.Run("GetJSON refuses past its limit", func(t *testing.T) {
		const limit = 64 << 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var tr TraceResponse
		err := (Client{}).GetJSON(context.Background(), endless.URL+"/v1/trace/t", limit, &tr)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "reply exceeds 65536 bytes") {
			t.Fatalf("endless reply: %v", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*limit {
			t.Fatalf("reading at most %d bytes allocated %d", limit, grew)
		}
	})

	t.Run("a scrape refuses within twice its bound", func(t *testing.T) {
		// Client.Get reads into pieces that never grow past the bound, so
		// refusing the endless /metrics costs about the bound, not the
		// regrowths of one buffer. The least of three tries: TotalAlloc
		// counts every goroutine of the process.
		const bound = 1 << 20
		h := NewHealth([]string{endless.URL})
		h.maxScrape = bound
		least := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := h.fetchMetrics(context.Background(), endless.URL)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "reply exceeds 1048576 bytes") {
				t.Fatalf("endless /metrics: %v", err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("refusing a reply at %d bytes allocated %d", bound, least)
		if least >= 2*bound {
			t.Fatalf("refusing a reply at %d bytes allocated %d, want under %d", bound, least, 2*bound)
		}
	})

	t.Run("a coordinator's merged trace still answers", func(t *testing.T) {
		coord, cts := newTestServer(t, Config{Coordinator: true, Peers: []string{endless.URL}})
		// A shard request runs on the coordinator itself: a finished job
		// with local spans, whatever the peer is.
		var rec recorder
		if err := (Client{}).Query(context.Background(), cts.URL, QueryRequest{Query: smallQuery, Points: []int{0, 1}}, rec.on); err != nil {
			t.Fatal(err)
		}
		info, _ := coord.Job(rec.jobs[0])
		local, _ := coord.tel.tracer.Spans(info.TraceID)

		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		var tr TraceResponse
		if err := (Client{}).GetJSON(ctx, cts.URL+"/v1/jobs/"+info.ID+"/trace", MaxReply, &tr); err != nil {
			t.Fatalf("trace of %s behind an endless peer: %v", info.ID, err)
		}
		if len(local) == 0 || len(tr.Spans) != len(local) {
			t.Fatalf("merged trace has %d spans, the coordinator recorded %d", len(tr.Spans), len(local))
		}
	})

	t.Run("a sweep sharded to it ends with a single daemon's table", func(t *testing.T) {
		// The line bound is lowered so that the shard's stream reads a
		// megabyte, not maxEventLine, before it fails; with no other
		// member to fail over to, its points then run on the coordinator.
		const bound = 1 << 20
		_, single := newTestServer(t, Config{PoolSize: 2})
		want := lastEvent(t, postQuery(t, single, monotoneQuery))
		coord, cts := newTunedServer(t, Config{Coordinator: true, Peers: []string{endless.URL}, HistoryInterval: time.Hour}, nil,
			func(s *Server) { s.fleet.client.maxLine = bound })
		// The start-up telemetry round scrapes the peer's /metrics up to
		// its own 8 MB bound, outside what is measured: it ends by firing
		// worker_down, and the next round is an hour away.
		for deadline := time.Now().Add(10 * time.Second); coord.alerts.FiringCount() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the start-up round fired no alert for the endless peer")
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		final := lastEvent(t, postQuery(t, cts, monotoneQuery))
		runtime.ReadMemStats(&after)
		for _, field := range []string{"type", "table", "executed", "pruned", "screened"} {
			if final[field] != want[field] {
				t.Fatalf("%s = %v, a single daemon's is %v\n%v", field, final[field], want[field], final)
			}
		}
		if f := coord.tel.workerFailures.Value(); f == 0 || final["degraded"] != true {
			t.Fatalf("%v worker failures, degraded %v: the sweep never went to the endless peer", f, final["degraded"])
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*bound {
			t.Fatalf("the sweep allocated %d bytes, want at most %d (16 line bounds)", grew, 16*bound)
		}
	})
}

// FuzzClientEvents: whatever bytes a daemon's reply body holds, served
// through httptest to Client.Query with a line bound from 1 byte to 8 KB,
// the reader never panics and ends as the NDJSON framing says it must.
// Every event it hands on is a whole line of the body, in order, under
// the bound. It returns nil right after the first result line, a
// *JobError at an error line, errLineTooLong at a line over the bound
// (torn or whole), ErrTorn at an unterminated tail, and a "bad stream
// line" error at a line that is not a JSON object; a blank line is
// skipped. Seeded with a parent daemon's stream and its variants.
func FuzzClientEvents(f *testing.F) {
	stream, err := os.ReadFile(filepath.Join("testdata", "parent_be31c54", "job-1.stream"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stream, uint16(8191))
	f.Add(stream, uint16(200))
	f.Add(stream[:len(stream)-1], uint16(8191))
	f.Add(append(bytes.Clone(stream), "trailing bytes after the result\n"...), uint16(8191))
	f.Add([]byte("\n  \n{\"type\":\"job\",\"id\":\"job-1\"}\n{\"type\":\"error\",\"error\":\"boom\"}\n"), uint16(64))
	f.Add([]byte("{\"type\":\"point\"}\nnot json\n"), uint16(64))
	f.Add(bytes.Repeat([]byte("x"), 10000), uint16(100))

	var (
		mu    sync.Mutex
		reply []byte
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		body := reply
		mu.Unlock()
		w.Write(body)
	}))
	defer ts.Close()

	f.Fuzz(func(t *testing.T, body []byte, bound uint16) {
		limit := int(bound)%8192 + 1
		mu.Lock()
		reply = body
		mu.Unlock()
		var got [][]byte
		err := (Client{maxLine: limit}).Query(context.Background(), ts.URL, QueryRequest{Query: "q"}, func(ev *Event) error {
			got = append(got, bytes.Clone(ev.line))
			return nil
		})

		// What the framing says: walk the body's lines.
		var want [][]byte
		var wantErr func(error) bool
		rest := body
		for wantErr == nil {
			line := rest
			if i := bytes.IndexByte(rest, '\n'); i >= 0 {
				line = rest[:i+1]
			}
			rest = rest[len(line):]
			var head struct {
				Type  string `json:"type"`
				Error string `json:"error"`
			}
			switch {
			case len(line) > limit:
				wantErr = func(err error) bool { return errors.Is(err, errLineTooLong) }
			case len(line) == 0 || line[len(line)-1] != '\n':
				wantErr = func(err error) bool { return errors.Is(err, ErrTorn) }
			case len(bytes.TrimSpace(line)) == 0:
			case json.Unmarshal(line, &head) != nil:
				wantErr = func(err error) bool { return err != nil && strings.HasPrefix(err.Error(), "bad stream line") }
			case head.Type == "error":
				wantErr = func(err error) bool {
					var je *JobError
					return errors.As(err, &je) && je.Message == head.Error
				}
			default:
				want = append(want, line)
				if head.Type == "result" {
					wantErr = func(err error) bool { return err == nil }
				}
			}
		}
		if !wantErr(err) {
			t.Fatalf("bound %d: the stream ended with %v", limit, err)
		}
		if len(got) != len(want) {
			t.Fatalf("bound %d: %d events handed on, the framing has %d", limit, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) || len(got[i]) > limit {
				t.Fatalf("bound %d: event %d is %q, the framing's is %q", limit, i, got[i], want[i])
			}
		}
	})
}

// TestReplyBodiesPinned: the three replies that used to be written from
// anonymous structs read, byte for byte, as 22669ca wrote them (the
// literals are that commit's output for the same requests), and decode
// into the named types the commands now share with the handlers.
func TestReplyBodiesPinned(t *testing.T) {
	ctx := context.Background()
	_, ts := newTestServer(t, Config{PoolSize: 2})
	postQuery(t, ts, smallQuery)
	postQuery(t, ts, smallQuery)
	coord, cts, _, urls := startFleet(t, 2, false)
	coord.health.Probe(ctx) // every member probed: both timestamps set

	ts3339 := `"\d{4}-\d\d-\d\dT[0-9:.]+(Z|[+-]\d\d:\d\d)"`
	member := func(u string) string {
		return `\{"url":"` + regexp.QuoteMeta(u) + `","state":"up","last_probe":` + ts3339 + `,"last_ok":` + ts3339 + `\}`
	}
	sort.Strings(urls)
	for _, tc := range []struct {
		url, want string
	}{
		{ts.URL + "/v1/healthz", `\{"status":"ok","alerts_firing":0,"version":"0\.9\.0","go":"` + regexp.QuoteMeta(runtime.Version()) +
			`",("revision":"[^"]+",)?"uptime_seconds":[0-9.e+-]+\}`},
		{ts.URL + "/v1/fleet", regexp.QuoteMeta(`{"mode":"single","members":[]}`)},
		{cts.URL + "/v1/fleet", `\{"mode":"coordinator","members":\[` + member(urls[0]) + `,` + member(urls[1]) + `\]\}`},
		{ts.URL + "/v1/cache", regexp.QuoteMeta(`{"entries":4,"capacity":512,"hits":4,"disk_hits":0,"peer_hits":0,"misses":4,"puts":4,` +
			`"evictions":0,"peer_retries":0,"peer_skips":0,"hit_rate":0.5,"pool_capacity":2,"pool_in_use":0}`)},
	} {
		body, err := (Client{}).Get(ctx, tc.url, MaxReply)
		if err != nil {
			t.Fatal(err)
		}
		if !regexp.MustCompile(`^` + tc.want + `\n$`).Match(body) {
			t.Errorf("GET %s\n got %s\nwant %s", tc.url, body, tc.want)
		}
	}

	var hz HealthzResponse
	var fr FleetResponse
	var cr CacheResponse
	for url, into := range map[string]any{ts.URL + "/v1/healthz": &hz, cts.URL + "/v1/fleet": &fr, ts.URL + "/v1/cache": &cr} {
		if err := (Client{}).GetJSON(ctx, url, MaxReply, into); err != nil {
			t.Fatal(err)
		}
	}
	if hz.Status != "ok" || hz.Version != Version || hz.GoVersion != runtime.Version() {
		t.Errorf("healthz decoded as %+v", hz)
	}
	if fr.Mode != "coordinator" || len(fr.Members) != 2 || fr.Members[0].State != StateUp {
		t.Errorf("fleet decoded as %+v", fr)
	}
	if cr.Hits != 4 || cr.Misses != 4 || cr.HitRate != 0.5 || cr.PoolCap != 2 {
		t.Errorf("cache decoded as %+v", cr)
	}
}
