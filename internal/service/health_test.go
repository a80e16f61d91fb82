package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestHealthStateMachine drives the up/suspect/down transitions with
// passive observations: suspectAfter failures suspend new assignments,
// downAfter failures cut the member off, and a down member needs
// upAfter straight successes back (hysteresis against flapping).
func TestHealthStateMachine(t *testing.T) {
	const u = "http://w1"
	h := NewHealth([]string{u})

	if h.State(u) != StateUp || !h.Assignable(u) || !h.Reachable(u) {
		t.Fatal("fresh member must start up (optimistic)")
	}

	h.ReportFailure(u, fmt.Errorf("boom"))
	if h.State(u) != StateSuspect {
		t.Fatalf("1 failure → %v, want suspect", h.State(u))
	}
	if h.Assignable(u) {
		t.Fatal("suspect member still assignable")
	}
	if !h.Reachable(u) {
		t.Fatal("suspect member unreachable — peering should still try it")
	}

	h.ReportFailure(u, fmt.Errorf("boom"))
	h.ReportFailure(u, fmt.Errorf("boom"))
	if h.State(u) != StateDown {
		t.Fatalf("3 failures → %v, want down", h.State(u))
	}
	if h.Reachable(u) {
		t.Fatal("down member still reachable")
	}

	// Hysteresis: one success is not enough to leave down.
	h.ReportSuccess(u)
	if h.State(u) != StateDown {
		t.Fatalf("1 success recovered a down member to %v", h.State(u))
	}
	h.ReportSuccess(u)
	if h.State(u) != StateUp || !h.Assignable(u) {
		t.Fatalf("2 successes → %v, want up", h.State(u))
	}

	// A suspect member recovers on the first success.
	h.ReportFailure(u, fmt.Errorf("blip"))
	h.ReportSuccess(u)
	if h.State(u) != StateUp {
		t.Fatalf("suspect did not recover on first success: %v", h.State(u))
	}

	// Interleaved success resets the failure streak: down needs
	// *consecutive* failures.
	h.ReportFailure(u, nil)
	h.ReportFailure(u, nil)
	h.ReportSuccess(u)
	h.ReportFailure(u, nil)
	h.ReportFailure(u, nil)
	if h.State(u) == StateDown {
		t.Fatal("non-consecutive failures took the member down")
	}

	// Unknown members are up and assignable — health never vetoes
	// traffic to an address it was not asked to watch.
	if h.State("http://stranger") != StateUp || !h.Assignable("http://stranger") {
		t.Fatal("unknown member not treated as up")
	}
}

// TestHealthProbe runs one synchronous probe round against a live
// server and a dead one, then checks recovery probes bring a revived
// member back.
func TestHealthProbe(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	t.Cleanup(live.Close)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	ctx := context.Background()
	h := NewHealth([]string{live.URL, deadURL})
	h.Probe(ctx)
	if st := h.State(live.URL); st != StateUp {
		t.Fatalf("live member probed as %v", st)
	}
	if st := h.State(deadURL); st != StateSuspect {
		t.Fatalf("dead member probed as %v after one round, want suspect", st)
	}
	// A passive failure between rounds brings the streak to downAfter.
	h.ReportFailure(deadURL, fmt.Errorf("refused"))
	h.Probe(ctx)
	if st := h.State(deadURL); st != StateDown {
		t.Fatalf("dead member probed as %v after two rounds and a reported failure, want down", st)
	}

	// Recovery: down members keep receiving probes — that is the
	// recovery path — so a revived member comes back on its own.
	revived := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	t.Cleanup(revived.Close)
	h2 := NewHealth([]string{revived.URL})
	for range downAfter {
		h2.ReportFailure(revived.URL, fmt.Errorf("was down"))
	}
	if h2.State(revived.URL) != StateDown {
		t.Fatal("setup: member not down")
	}
	for range upAfter {
		h2.Probe(ctx)
	}
	if st := h2.State(revived.URL); st != StateUp {
		t.Fatalf("revived member probed as %v, want up", st)
	}

	snap := h.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d members, want 2", len(snap))
	}
	if snap[0].URL > snap[1].URL {
		t.Fatal("snapshot not sorted by URL")
	}
	for _, m := range snap {
		if m.URL == deadURL && m.LastError == "" {
			t.Fatal("down member's snapshot carries no last error")
		}
	}
}

// TestCloseDoesNotWaitForHungMember: Close cancels the poller's
// requests in flight instead of waiting out their timeouts — on a worker
// the 1 s healthz probe, on a coordinator also the 2 s /metrics scrape —
// against a member that accepts connections and never answers.
func TestCloseDoesNotWaitForHungMember(t *testing.T) {
	hung := hungMember(t)
	const self = "http://self.invalid"
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"worker", Config{PoolSize: 1, Peers: []string{self, hung}, Self: self}},
		{"coordinator", Config{PoolSize: 1, Coordinator: true, Peers: []string{hung}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(100 * time.Millisecond) // the first round is in flight
			start := time.Now()
			srv.Close()
			if d := time.Since(start); d > 200*time.Millisecond {
				t.Fatalf("Close took %v with a hung member, want < 200ms", d)
			}
		})
	}
}

// TestOnePollerPerMember: one loop polls each member, one request of a
// kind per member per round — healthz always, and /metrics only on a
// coordinator with telemetry. A worker polls only its peers.
func TestOnePollerPerMember(t *testing.T) {
	type counts struct{ healthz, metrics atomic.Int64 }
	fake := func() (string, *counts) {
		c := &counts{}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/healthz":
				c.healthz.Add(1)
			case "/metrics":
				c.metrics.Add(1)
			}
			fakeMember(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts.URL, c
	}
	const self = "http://self.invalid"
	const rounds = 3 // beyond the loop's own first round
	for _, tc := range []struct {
		name    string
		cfg     func(members []string) Config
		scrapes bool
	}{
		{"coordinator", func(m []string) Config { return Config{Coordinator: true, Peers: m} }, true},
		{"worker", func(m []string) Config { return Config{Peers: append(m, self), Self: self} }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var members []string
			var seen []*counts
			for range 2 {
				u, c := fake()
				members, seen = append(members, u), append(seen, c)
			}
			cfg := tc.cfg(members)
			cfg.PoolSize, cfg.HistoryInterval = 1, time.Hour // one loop round, then ours
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			waitFor(t, 5*time.Second, "the loop's first round", func() bool {
				for _, c := range seen {
					if c.healthz.Load() == 0 {
						return false
					}
				}
				return true
			})
			for range rounds {
				srv.round(context.Background(), time.Now())
			}
			want := int64(rounds + 1)
			wantMetrics := int64(0)
			if tc.scrapes {
				wantMetrics = want
			}
			exact := func() bool {
				for _, c := range seen {
					if c.healthz.Load() != want || c.metrics.Load() != wantMetrics {
						return false
					}
				}
				return true
			}
			waitFor(t, 5*time.Second, "every round's requests", exact)
			time.Sleep(50 * time.Millisecond)
			if !exact() {
				for i, c := range seen {
					t.Errorf("member %d: %d healthz, %d /metrics; want %d, %d",
						i, c.healthz.Load(), c.metrics.Load(), want, wantMetrics)
				}
			}
		})
	}
}

// fakeMember answers healthz ok and a /metrics of one counter.
var fakeMember = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/healthz":
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	case "/metrics":
		w.Header().Set("Content-Type", expositionContentType)
		io.WriteString(w, "# HELP wt_fake_total A fake counter.\n# TYPE wt_fake_total counter\nwt_fake_total 1\n")
	default:
		http.NotFound(w, r)
	}
})

// TestOneTelemetryRound: one round at a fixed now, on a coordinator with
// one live member and one that died after the loop's first round, stores
// the server's own samples, the live member's scrape and
// wt_fleet_member_up{instance=<dead>} 0, all at now — and worker_down
// fires in that same round, the one whose scrape failed.
func TestOneTelemetryRound(t *testing.T) {
	live := httptest.NewServer(fakeMember)
	t.Cleanup(live.Close)
	dead := httptest.NewServer(fakeMember)
	t.Cleanup(dead.Close)
	srv, err := New(Config{PoolSize: 1, Coordinator: true, Peers: []string{live.URL, dead.URL}, HistoryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	waitFor(t, 5*time.Second, "the loop's first round", func() bool {
		return len(srv.history.Latest(memberUpFamily)) == 2
	})
	dead.Close()

	now := time.Now().Add(time.Hour).Round(time.Second)
	srv.round(context.Background(), now)

	latest := func(name, instance string) float64 {
		t.Helper()
		for _, v := range srv.history.Latest(name) {
			if strings.Contains(v.Labels, fmt.Sprintf("instance=%q", instance)) {
				if !v.T.Equal(now) {
					t.Errorf("%s{instance=%q} stored at %v, want the round's %v", name, instance, v.T, now)
				}
				return v.V
			}
		}
		t.Fatalf("no %s{instance=%q} in history", name, instance)
		return 0
	}
	latest("wt_uptime_seconds", "coordinator")
	if v := latest("wt_fake_total", live.URL); v != 1 {
		t.Errorf("live member's scraped counter = %v, want 1", v)
	}
	if v := latest(memberUpFamily, live.URL); v != 1 {
		t.Errorf("%s for the live member = %v, want 1", memberUpFamily, v)
	}
	if v := latest(memberUpFamily, dead.URL); v != 0 {
		t.Errorf("%s for the dead member = %v, want 0", memberUpFamily, v)
	}
	var fired []Alert
	for _, a := range srv.alerts.Snapshot().Alerts {
		if a.Rule == "worker_down" && a.State == AlertFiring {
			fired = append(fired, a)
		}
	}
	if len(fired) != 1 || !strings.Contains(fired[0].Labels, dead.URL) || !fired[0].Since.Equal(now) {
		t.Fatalf("firing worker_down alerts after the round: %+v, want one for %s since %v", fired, dead.URL, now)
	}
}
