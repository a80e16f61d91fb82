package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

type pipelineMode struct {
	name    string
	journal bool
}

// pipelineModes are the two daemons a client can submit to: with a
// journal behind each job's log and without.
var pipelineModes = []pipelineMode{{"journal", true}, {"no journal", false}}

func (m pipelineMode) config(t *testing.T) Config {
	cfg := Config{PoolSize: 1}
	if m.journal {
		cfg.JournalDir = t.TempDir()
	}
	return cfg
}

// readEvent reads one NDJSON line off a live stream.
func readEvent(t *testing.T, rd *bufio.Reader) (ev struct {
	Type  string `json:"type"`
	ID    string `json:"id"`
	Index int    `json:"index"`
}) {
	t.Helper()
	line, err := rd.ReadBytes('\n')
	if err != nil {
		t.Fatalf("stream ended early: %v", err)
	}
	if err := json.Unmarshal(line, &ev); err != nil {
		t.Fatalf("bad line %q: %v", line, err)
	}
	return ev
}

// TestFollowerLiveness: a follower parked on a running job is handed each
// committed point without waiting for the next one. The job may not
// commit point i+1 (nor its terminal line) until the client has read
// point i off the wire, so a flush that waited for more lines would stop
// the sweep dead.
func TestFollowerLiveness(t *testing.T) {
	for _, mode := range pipelineModes {
		t.Run(mode.name, func(t *testing.T) {
			srv, ts := newTestServer(t, mode.config(t))
			read := make(chan int, 8) // point indices the client has read; a 4-point sweep
			srv.pointGate = func(index int) {
				if index == 0 {
					return
				}
				select {
				case got := <-read:
					if got != index-1 {
						t.Errorf("client read point %d while the job waited for %d", got, index-1)
					}
				case <-time.After(30 * time.Second):
					t.Errorf("point %d was committed and never reached the client", index-1)
				}
			}
			resp, err := http.Post(ts.URL+"/v1/query", "text/plain", strings.NewReader(smallQuery))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			rd := bufio.NewReader(resp.Body)
			if ev := readEvent(t, rd); ev.Type != "job" {
				t.Fatalf("first line is %+v", ev)
			}
			for i := 0; i < 4; i++ {
				ev := readEvent(t, rd)
				if ev.Type != "point" || ev.Index != i {
					t.Fatalf("line %d is %+v", i+1, ev)
				}
				read <- i
			}
			if ev := readEvent(t, rd); ev.Type != "result" {
				t.Fatalf("last line is %+v", ev)
			}
		})
	}
}

// TestSubmitterDisconnect: what keeps a job alive. Without a journal
// nothing could bring the job back, so it is cancelled — and its pool slot
// released, its stream withdrawn — when the client that submitted it goes
// away mid-stream; with one it runs on to done and replays in full.
func TestSubmitterDisconnect(t *testing.T) {
	for _, mode := range pipelineModes {
		t.Run(mode.name, func(t *testing.T) {
			noLeakedCommitters(t)
			srv, err := New(mode.config(t))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			handled := make(chan struct{}) // the POST's handler has returned
			inner := srv.Handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				inner.ServeHTTP(w, r)
				if r.Method == "POST" {
					close(handled)
				}
			}))
			t.Cleanup(ts.Close)
			// The job stops before its second point until the client is gone.
			release := make(chan struct{})
			srv.pointGate = func(index int) {
				if index == 1 {
					<-release
				}
			}

			ctx, hangUp := context.WithCancel(context.Background())
			defer hangUp()
			req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/query", strings.NewReader(smallQuery))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			rd := bufio.NewReader(resp.Body)
			id := readEvent(t, rd).ID
			if ev := readEvent(t, rd); ev.Type != "point" || ev.Index != 0 {
				t.Fatalf("second line is %+v", ev)
			}
			hangUp()
			select {
			case <-handled:
			case <-time.After(30 * time.Second):
				t.Fatal("the handler never noticed its client leave")
			}
			close(release)

			wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if !srv.WaitJobs(wctx) {
				t.Fatal("job never settled")
			}
			info, _ := srv.Job(id)
			stream, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
			if err != nil {
				t.Fatal(err)
			}
			defer stream.Body.Close()
			if mode.journal {
				if info.State != JobDone || info.Done != 4 {
					t.Fatalf("journaled job did not outlive its client: %+v", info)
				}
				if lines := collectJob(t, srv, id, 0); len(lines) != 6 {
					t.Fatalf("journaled job replays %d lines, want 6", len(lines))
				}
				return
			}
			if info.State != JobCancelled {
				t.Fatalf("job without a journal outlived its client: %+v", info)
			}
			if n := srv.Pool().InUse(); n != 0 {
				t.Fatalf("cancelled job still holds %d pool slot(s)", n)
			}
			if stream.StatusCode != http.StatusNotFound {
				t.Fatalf("abandoned job's stream answers %d, want 404 (the client's cue to re-POST with from=)", stream.StatusCode)
			}
		})
	}
}

// TestParseAndPlanOncePerJob counts the stages of a job on the path that
// used to repeat them: a journaled coordinator, which parsed twice, and
// for a MONOTONE sweep (not shardable, so run on the coordinator itself)
// planned twice.
func TestParseAndPlanOncePerJob(t *testing.T) {
	urls := make([]string, 2)
	for i := range urls {
		_, ts := newTestServer(t, Config{PoolSize: 2})
		urls[i] = ts.URL
	}
	for _, c := range []struct{ name, query string }{
		{"sharded", smallQuery},
		{"monotone", `SIMULATE availability VARY storage.replication IN (1, 2, 3) MONOTONE
WITH users = 20, object_mb = 10, trials = 2, horizon_hours = 200 WHERE sla.availability >= 0.2`},
		{"set", "SET runner.crn = on"}, // not a statement: a parse error
		{"parse error", "SIMULATE"},
	} {
		t.Run(c.name, func(t *testing.T) {
			coord, cts := newTestServer(t, Config{Coordinator: true, Peers: urls, JournalDir: t.TempDir()})
			var mu sync.Mutex
			stages := map[string]int{}
			coord.stage = func(name string) {
				mu.Lock()
				stages[name]++
				mu.Unlock()
			}
			final := lastEvent(t, postQuery(t, cts, c.query))
			plans := 1
			want := "result"
			if c.name == "set" || c.name == "parse error" {
				plans, want = 0, "error"
			}
			if final["type"] != want {
				t.Fatalf("ended with %v", final)
			}
			mu.Lock()
			defer mu.Unlock()
			if stages["parse"] != 1 || stages["plan"] != plans {
				t.Fatalf("stages ran %v, want one parse and %d plan(s)", stages, plans)
			}
		})
	}
}

// countingWriter counts the writes and flushes a handler makes.
type countingWriter struct {
	*httptest.ResponseRecorder
	writes, flushes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.ResponseRecorder.Write(p)
}

func (c *countingWriter) Flush() { c.flushes++ }

// TestReplyWritesAndFlushes: a reply is one write per event line — what
// the tests' cut after N writes counts — and at most one flush per line, fewer whenever
// lines were queued together: a finished job's whole stream goes out
// behind one. It logs the flushes of a warm 8-point reply (E23's count;
// the handler that flushed per line made 10).
func TestReplyWritesAndFlushes(t *testing.T) {
	for _, mode := range pipelineModes {
		t.Run(mode.name, func(t *testing.T) {
			srv, _ := newTestServer(t, mode.config(t))
			h := srv.Handler()
			serve := func(method, target, body string) *countingWriter {
				w := &countingWriter{ResponseRecorder: httptest.NewRecorder()}
				h.ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
				if w.Code != http.StatusOK {
					t.Fatalf("%s %s: status %d", method, target, w.Code)
				}
				return w
			}
			const replies = 200
			var id string
			flushes := 0
			for i := 0; i <= replies; i++ {
				w := serve("POST", "/v1/query", serveWarmQuery)
				if w.writes != 10 || w.flushes < 1 || w.flushes > w.writes {
					t.Fatalf("8-point reply took %d writes and %d flushes, want 10 writes and 1..10 flushes", w.writes, w.flushes)
				}
				if i > 0 { // the first one simulates
					flushes += w.flushes
				}
				var first JobEvent
				if err := json.Unmarshal(w.Body.Bytes()[:bytes.IndexByte(w.Body.Bytes(), '\n')+1], &first); err != nil {
					t.Fatal(err)
				}
				id = first.ID
			}
			t.Logf("%.2f flushes per warm 8-point reply over %d replies", float64(flushes)/replies, replies)
			if w := serve("GET", "/v1/jobs/"+id+"/stream", ""); w.writes != 10 || w.flushes != 1 {
				t.Fatalf("replaying a finished job took %d writes and %d flushes, want 10 and 1", w.writes, w.flushes)
			}
		})
	}
}

// FuzzDecodeQueryRequest: whatever arrives as a POST /v1/query body, and
// whatever ?from= a stream request carries, is decoded or refused —
// never a panic — and nothing malformed gets as far as a job: an
// oversized body, an empty query, a negative cursor or trial count, a
// shard that is not strictly ascending non-negative indices.
func FuzzDecodeQueryRequest(f *testing.F) {
	seed := func(contentType string, body any, from string) {
		var data []byte
		switch b := body.(type) {
		case string:
			data = []byte(b)
		default:
			data, _ = json.Marshal(b)
		}
		f.Add(data, contentType, from)
	}
	seed("application/json", QueryRequest{Query: smallQuery}, "")
	seed("application/json", QueryRequest{Query: smallQuery, From: 2}, "2")
	seed("application/json", QueryRequest{Query: smallQuery, Trials: 3, Points: []int{1, 3}}, "0")
	seed("application/json", QueryRequest{Query: smallQuery, Points: []int{3, 1}}, "-1")
	seed("application/json", QueryRequest{Query: smallQuery, Points: []int{0, 0}}, "wat")
	seed("application/json", QueryRequest{Query: smallQuery, Points: []int{-1}}, "+3")
	seed("application/json; charset=utf-8", `{"query":"SET trials = 3","from":-1}`, "99999999999999999999")
	seed("application/json", `{"query":"x","trials":-2}`, " 1")
	seed("application/json", `{"query":"   \n\t"}`, "1e3")
	seed("application/json", `{"query":`, "0x10")
	seed("application/json", `[]`, "")
	seed("text/plain", smallQuery, "3")
	seed("text/plain", "SIMULATE availability\nVARY cluster.nodes (5)", "")
	seed("text/plain", " \n", "")
	seed("", "", "")
	seed("text/plain", strings.Repeat("x", maxQueryBody+1), "")
	seed("application/json", `{"query":"`+strings.Repeat("x", maxQueryBody)+`"}`, "")

	f.Fuzz(func(t *testing.T, body []byte, contentType, from string) {
		if n, err := parseFrom(from); n < 0 || (err != nil && n != 0) || (from == "" && err != nil) {
			t.Fatalf("parseFrom(%q) = %d, %v", from, n, err)
		}

		r := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body))
		r.Header.Set("Content-Type", contentType)
		req, err := decodeQueryRequest(r)
		if len(body) > maxQueryBody {
			if err != errBodyTooLarge {
				t.Fatalf("%d-byte body: %v, want errBodyTooLarge", len(body), err)
			}
			return
		}
		if err != nil {
			return
		}
		if strings.TrimSpace(req.Query) == "" || req.From < 0 || req.Trials < 0 {
			t.Fatalf("accepted %+v", req)
		}
		for i, p := range req.Points {
			if p < 0 || (i > 0 && p <= req.Points[i-1]) {
				t.Fatalf("accepted shard %v", req.Points)
			}
		}
	})
}

// TestBadRequestAdmitsNoJob: a request decodeQueryRequest refuses is
// answered 400 before any job exists.
func TestBadRequestAdmitsNoJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{PoolSize: 1})
	for _, body := range []string{
		`{"query":"SET trials = 3","from":-1}`,
		`{"query":"SET trials = 3","trials":-1}`,
		`{"query":"SET trials = 3","points":[2,1]}`,
		`{"query":"SET trials = 3","points":[-1]}`,
		`{"query":" "}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s answered %d, want 400", body, resp.StatusCode)
		}
	}
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused requests admitted jobs: %+v", jobs)
	}
}
