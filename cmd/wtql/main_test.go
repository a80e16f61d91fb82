package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/wtql"
)

// sweep is a fast 4-point query; its stream is six lines long.
const sweep = `SIMULATE availability
VARY cluster.nodes IN (5, 6, 7, 8)
WITH users = 20, object_mb = 10, trials = 2, horizon_hours = 200
WHERE sla.availability >= 0.2`

// localTable is what `wtql -q sweep` prints without a server.
func localTable(t *testing.T) string {
	t.Helper()
	rs, err := (&wtql.Engine{Trials: 5}).ExecuteContext(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	return rs.Render()
}

// TestQueryTextNamesOneQuery: wtql runs the query it was given or none.
// An empty -f file used to fall through to whatever stdin held, and -q
// beside -f ignored the file, missing or not; both ran and exited 0.
func TestQueryTextNamesOneQuery(t *testing.T) {
	dir := t.TempDir()
	empty, file := filepath.Join(dir, "empty.wtq"), filepath.Join(dir, "sweep.wtq")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, []byte(sweep), 0o644); err != nil {
		t.Fatal(err)
	}
	const piped = "SIMULATE availability VARY seed IN (1)"
	for _, c := range []struct {
		name, q, f, stdin string
		want, err         string // one of them
	}{
		{"-q", sweep, "", piped, sweep, ""},
		{"-f", "", file, piped, sweep, ""},
		{"stdin", "", "", piped, piped, ""},
		{"empty -f", "", empty, piped, "", "holds no query"},
		{"-q and -f", sweep, file, "", "", "-q and -f"},
		{"-q and a missing -f", sweep, filepath.Join(dir, "missing.wtq"), "", "", "-q and -f"},
		{"nothing", "", "", "", "", "no query given"},
	} {
		got, err := queryText(c.q, c.f, strings.NewReader(c.stdin))
		switch {
		case c.err == "" && (err != nil || got != c.want):
			t.Errorf("%s: got %q, %v; want %q", c.name, got, err, c.want)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: got %q, %v; want an error naming %q", c.name, got, err, c.err)
		}
	}
}

// swapHandler serves whatever handler was stored last: a daemon
// restarting at the same address.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// daemon starts a real windtunneld behind addr.
func daemon(t *testing.T, addr *swapHandler, cfg service.Config) *service.Server {
	t.Helper()
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	addr.set(srv.Handler())
	return srv
}

// listen opens an address with a daemon behind it.
func listen(t *testing.T, cfg service.Config) (*service.Server, *swapHandler, string) {
	t.Helper()
	addr := new(swapHandler)
	srv := daemon(t, addr, cfg)
	ts := httptest.NewServer(addr)
	t.Cleanup(ts.Close)
	return srv, addr, ts.URL
}

// captureStreams runs fn with stdout and stderr redirected to buffers.
func captureStreams(t *testing.T, fn func()) (stdout, stderr string) {
	t.Helper()
	capture := func(f **os.File) func() string {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		orig := *f
		*f = w
		done := make(chan string, 1)
		go func() {
			var b bytes.Buffer
			b.ReadFrom(r)
			done <- b.String()
		}()
		return func() string {
			w.Close()
			*f = orig
			return <-done
		}
	}
	outDone := capture(&os.Stdout)
	errDone := capture(&os.Stderr)
	fn()
	return outDone(), errDone()
}

// remote runs the daemon-mode client the way main does.
func remote(t *testing.T, ctx context.Context, servers []string, query string, progress bool, reconnect time.Duration, trace bool) (stdout, stderr string, err error) {
	t.Helper()
	stdout, stderr = captureStreams(t, func() {
		err = runRemote(ctx, servers, query, 0, progress, reconnect, trace)
	})
	return stdout, stderr, err
}

// TestRemoteSurvivesStreamCuts: a daemon that resets every stream after
// three lines. The client reconnects until it has the table — the local
// run's, byte for byte — having shown each point once: a journaled daemon
// resumes the job's stream, a journal-less one has dropped the job its
// client left and is sent the query again with the cursor.
func TestRemoteSurvivesStreamCuts(t *testing.T) {
	want := localTable(t)
	for _, journal := range []bool{true, false} {
		cfg := service.Config{PoolSize: 2}
		if journal {
			cfg.JournalDir = t.TempDir()
		}
		srv, addr, url := listen(t, cfg)
		h := srv.Handler()
		addr.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(&cutWriter{ResponseWriter: w, after: 3, then: func() {}}, r)
		}))
		stdout, stderr, err := remote(t, context.Background(), []string{url}, sweep, true, 10*time.Second, false)
		if err != nil {
			t.Fatalf("journal=%v: %v\n%s", journal, err, stderr)
		}
		if stdout != want {
			t.Fatalf("journal=%v: stdout differs from the local table:\n%s\nvs\n%s", journal, stdout, want)
		}
		if n := strings.Count(stderr, "connection lost"); n != 2 {
			t.Fatalf("journal=%v: %d reconnects, want 2:\n%s", journal, n, stderr)
		}
		for _, line := range []string{"[1/4] ", "[2/4] ", "[3/4] ", "[4/4] ", "4 executed, "} {
			if strings.Count(stderr, line) != 1 {
				t.Fatalf("journal=%v: progress line %q not printed exactly once:\n%s", journal, line, stderr)
			}
		}
		if jobs := len(srv.Jobs()); journal && jobs != 1 {
			t.Fatalf("the journaled daemon ran %d jobs for one query", jobs)
		}
	}
}

// TestRemoteSurvivesRestart: the daemon dies mid-sweep and another comes
// up at the same address with the same cache directory and no journal. It
// does not know the job (404), is sent the query with the cursor, and the
// client prints the local run's table having shown each point once.
func TestRemoteSurvivesRestart(t *testing.T) {
	want := localTable(t)
	cacheDir := t.TempDir()
	addr := new(swapHandler)
	first := daemon(t, addr, service.Config{PoolSize: 2, CacheDir: cacheDir})
	// The first daemon's reply is cut after the job line and two points,
	// and what answers the next request is its successor.
	var cut atomic.Bool
	addr.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if cut.CompareAndSwap(false, true) {
			w = &cutWriter{ResponseWriter: w, after: 3, then: func() {
				daemon(t, addr, service.Config{PoolSize: 2, CacheDir: cacheDir})
			}}
		}
		first.Handler().ServeHTTP(w, r)
	}))
	ts := httptest.NewServer(addr)
	defer ts.Close()

	stdout, stderr, err := remote(t, context.Background(), []string{ts.URL}, sweep, true, 10*time.Second, false)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	if stdout != want {
		t.Fatalf("stdout differs from the local table:\n%s\nvs\n%s", stdout, want)
	}
	if strings.Count(stderr, "connection lost") != 1 || strings.Count(stderr, "job job-1 accepted") != 2 {
		t.Fatalf("want one reconnect and job-1 admitted by both daemons:\n%s", stderr)
	}
	for _, line := range []string{"[1/4] ", "[2/4] ", "[3/4] ", "[4/4] "} {
		if strings.Count(stderr, line) != 1 {
			t.Fatalf("progress line %q not printed exactly once:\n%s", line, stderr)
		}
	}
}

// cutWriter aborts the connection at the write after `after`, having run
// then.
type cutWriter struct {
	http.ResponseWriter
	after int
	then  func()
}

func (c *cutWriter) Write(p []byte) (int, error) {
	if c.after == 0 {
		c.Flush()
		c.then()
		panic(http.ErrAbortHandler)
	}
	c.after--
	return c.ResponseWriter.Write(p)
}

func (c *cutWriter) Flush() { c.ResponseWriter.(http.Flusher).Flush() }

// TestRemoteFailsOverToNextServer: the first server on the list refuses
// connections; the client says so and gets its table from the second.
func TestRemoteFailsOverToNextServer(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	_, _, live := listen(t, service.Config{PoolSize: 2})
	stdout, stderr, err := remote(t, context.Background(), []string{dead.URL, live}, sweep, false, 10*time.Second, false)
	if err != nil || stdout != localTable(t) {
		t.Fatalf("err=%v stdout=%q\n%s", err, stdout, stderr)
	}
	if !strings.Contains(stderr, "connection lost") || !strings.Contains(stderr, "retrying "+live) {
		t.Fatalf("stderr should name the server failed over to:\n%s", stderr)
	}
}

// TestRemoteProgressNamesCacheHits: the repeat of a sweep is served from
// the daemon's trial cache, and -progress says so per point and in total.
func TestRemoteProgressNamesCacheHits(t *testing.T) {
	_, _, url := listen(t, service.Config{PoolSize: 2})
	for _, want := range []string{"4 executed, 0 cache hits, ", "4 executed, 4 cache hits, "} {
		stdout, stderr, err := remote(t, context.Background(), []string{url}, sweep, true, 0, false)
		if err != nil || stdout != localTable(t) {
			t.Fatalf("err=%v stdout=%q\n%s", err, stdout, stderr)
		}
		cached := strings.Contains(want, "4 cache hits")
		if !strings.Contains(stderr, want) || (strings.Count(stderr, " (cached)") == 4) != cached {
			t.Fatalf("want %q and cached=%v on every point:\n%s", want, cached, stderr)
		}
	}
}

// TestRemoteGivesUp: what no reconnect can fix is not retried, and what
// one could is retried only within the window and the context.
func TestRemoteGivesUp(t *testing.T) {
	srv, _, url := listen(t, service.Config{PoolSize: 2})
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	long := strings.Replace(sweep, "trials = 2, horizon_hours = 200", "trials = 400, horizon_hours = 20000", 1)

	for _, tc := range []struct {
		name      string
		servers   []string
		query     string
		timeout   time.Duration
		reconnect time.Duration
		wantErr   string
	}{
		{"refused request", []string{url}, " ", time.Minute, time.Minute, "server (HTTP 400): service: empty query"},
		{"failed job", []string{url}, strings.Replace(sweep, "WHERE", ", storage.placement = 'nope' WHERE", 1), time.Minute, time.Minute,
			`server: core: running point cluster.nodes=5: storage: unknown placement policy "nope"`},
		{"no reconnect window", []string{dead.URL}, sweep, time.Minute, 0, "stream lost and not recovered within 0s: "},
		{"cancelled mid-stream", []string{url}, long, 50 * time.Millisecond, time.Minute, "context deadline exceeded"},
		{"cancelled between attempts", []string{dead.URL}, sweep, 50 * time.Millisecond, time.Minute, "context deadline exceeded"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), tc.timeout)
		stdout, stderr, err := remote(t, ctx, tc.servers, tc.query, false, tc.reconnect, false)
		cancel()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) || stdout != "" {
			t.Fatalf("%s: err=%v (want …%s…), stdout=%q", tc.name, err, tc.wantErr, stdout)
		}
		if permanent := tc.reconnect == time.Minute && tc.timeout == time.Minute; permanent && stderr != "" {
			t.Fatalf("%s: a permanent failure was retried:\n%s", tc.name, stderr)
		}
	}
	// The cancelled client's job, on a daemon without a journal, goes with it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if !srv.WaitJobs(ctx) {
		t.Fatal("the abandoned job is still running")
	}
}

// TestRemoteRefusesForeignEvents: a stream whose events do not have the
// daemon's shapes — something else answering on that port, a wire format
// that moved on — fails the run instead of printing what it can.
func TestRemoteRefusesForeignEvents(t *testing.T) {
	for _, line := range []string{
		`{"type":"job","id":1}`,
		`{"type":"point","done":"three"}`,
		`{"type":"result","table":["not","text"]}`,
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(line + "\n"))
		}))
		stdout, _, err := remote(t, context.Background(), []string{ts.URL}, sweep, true, 0, false)
		ts.Close()
		if err == nil || !strings.Contains(err.Error(), "cannot unmarshal") || stdout != "" {
			t.Fatalf("%s: err=%v stdout=%q", line, err, stdout)
		}
	}
}

// TestRemoteWarnsWhenDegraded: a coordinator whose only worker is gone
// serves the sweep itself; the table is exact and stderr says so.
func TestRemoteWarnsWhenDegraded(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	_, _, url := listen(t, service.Config{Coordinator: true, Peers: []string{dead.URL}, MaxShardRetries: 1})
	stdout, stderr, err := remote(t, context.Background(), []string{url}, sweep, true, 0, false)
	if err != nil || stdout != localTable(t) {
		t.Fatalf("err=%v stdout=%q\n%s", err, stdout, stderr)
	}
	if !strings.Contains(stderr, "wtql: warning: job ran degraded") || !strings.Contains(stderr, " @coordinator") {
		t.Fatalf("stderr should carry the degraded warning and name the coordinator per point:\n%s", stderr)
	}
}

// TestTraceRendersWhenPresent: -trace draws the finished job's waterfall
// on stderr and leaves stdout to the table.
func TestTraceRendersWhenPresent(t *testing.T) {
	_, _, url := listen(t, service.Config{PoolSize: 2})
	stdout, stderr, err := remote(t, context.Background(), []string{url}, sweep, false, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != localTable(t) {
		t.Fatalf("result table missing: %q", stdout)
	}
	if !regexp.MustCompile(`(?m)^trace [0-9a-f]{32} for job-1: \d+ spans, `).MatchString(stderr) ||
		!strings.Contains(stderr, "slowest spans:") || !strings.Contains(stderr, "per worker:") {
		t.Fatalf("waterfall missing from stderr: %q", stderr)
	}
}

// TestTraceEvictedNotice: when the daemon reports the job's trace was
// evicted from its bounded ring, wtql -trace prints the table, notes
// the eviction on stderr, and still succeeds — the query result is
// complete even though the waterfall is gone.
func TestTraceEvictedNotice(t *testing.T) {
	srv, addr, url := listen(t, service.Config{PoolSize: 2})
	// Before the trace request is answered, enough other jobs run to push
	// this one's spans out of the tracer.
	addr.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/trace") {
			for i := 0; i <= obs.DefaultMaxTraces; i++ {
				if _, err := srv.Submit(service.QueryRequest{Query: sweep}); err != nil {
					t.Error(err)
				}
			}
			srv.WaitJobs(r.Context())
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	stdout, stderr, err := remote(t, context.Background(), []string{url}, sweep, false, 0, true)
	if err != nil {
		t.Fatalf("evicted trace must not fail the run: %v", err)
	}
	if stdout != localTable(t) {
		t.Fatalf("result table missing from stdout: %q", stdout)
	}
	if !strings.Contains(stderr, "trace evicted") {
		t.Fatalf("stderr should carry the eviction notice: %q", stderr)
	}
	if strings.Contains(stderr, "trace unavailable") {
		t.Fatalf("eviction should not read as a generic failure: %q", stderr)
	}
}

// TestTraceOtherErrorsStayGeneric: a non-eviction trace failure (here the
// daemon restarted without the job) reports as unavailable but still does
// not fail the run.
func TestTraceOtherErrorsStayGeneric(t *testing.T) {
	first, addr, url := listen(t, service.Config{PoolSize: 2})
	addr.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/trace") {
			daemon(t, addr, service.Config{PoolSize: 2}).Handler().ServeHTTP(w, r)
			return
		}
		first.Handler().ServeHTTP(w, r)
	}))
	_, stderr, err := remote(t, context.Background(), []string{url}, sweep, false, 0, true)
	if err != nil {
		t.Fatalf("trace failure must not fail the run: %v", err)
	}
	if !strings.Contains(stderr, "trace unavailable") || !strings.Contains(stderr, "no such job") {
		t.Fatalf("generic trace failure should say why: %q", stderr)
	}
}
