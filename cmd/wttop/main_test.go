package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// TestSnapshotAgainstLiveFleet drives the dashboard's fetch+render path
// against a real coordinator+worker fleet — the same path `wttop -once`
// takes in the CI smoke test.
func TestSnapshotAgainstLiveFleet(t *testing.T) {
	wts := httptest.NewServer(http.NotFoundHandler())
	defer wts.Close()
	worker, err := service.New(service.Config{PoolSize: 2, Self: wts.URL, HistoryInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	wts.Config.Handler = worker.Handler()

	coord, err := service.New(service.Config{Coordinator: true, Peers: []string{wts.URL}, HistoryInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	// One finished job so the JOBS table has a row.
	body := strings.NewReader(`{"query": "SIMULATE availability VARY cluster.nodes IN (5,6) WITH users = 10, object_mb = 10, trials = 1, horizon_hours = 100 WHERE sla.availability >= 0.2"}`)
	resp, err := http.Post(cts.URL+"/v1/query", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(stream), `"result"`) {
		t.Fatalf("query did not complete: %v\n%s", err, stream)
	}

	deadline := time.Now().Add(5 * time.Second)
	var snap snapshot
	for {
		snap = fetch(context.Background(), service.Client{}, cts.URL, time.Minute)
		if snap.err == nil && snap.fleet != nil && len(snap.queue) > 1 && len(snap.jobs) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no full snapshot before deadline: err=%v fleet=%v queue=%d jobs=%d",
				snap.err, snap.fleet, len(snap.queue), len(snap.jobs))
		}
		time.Sleep(20 * time.Millisecond)
	}

	var out bytes.Buffer
	render(&out, snap)
	text := out.String()

	if !strings.Contains(text, "FLEET  1 members") || !strings.Contains(text, wts.URL) {
		t.Fatalf("fleet table missing the worker row:\n%s", text)
	}
	if !strings.Contains(text, "up") {
		t.Fatalf("worker not shown up:\n%s", text)
	}
	if !strings.Contains(text, "queue depth") || !strings.Contains(text, "points/sec") || !strings.Contains(text, "cache hit") {
		t.Fatalf("sparkline rows missing:\n%s", text)
	}
	if !strings.Contains(text, "JOBS  ") || !strings.Contains(text, "SIMULATE availability") {
		t.Fatalf("jobs table missing the submitted job:\n%s", text)
	}
	if !strings.Contains(text, "ALERTS  0 firing, 0 pending") {
		t.Fatalf("healthy fleet should report no alerts:\n%s", text)
	}
	if strings.Contains(text, "!!") {
		t.Fatalf("healthy snapshot rendered an error banner:\n%s", text)
	}
}

// TestSnapshotUnreachableServer: fetch records the failure and render
// degrades to the error banner instead of crashing — `-once` turns that
// into a non-zero exit.
func TestSnapshotUnreachableServer(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close() // now refuses connections
	c := service.Client{HTTP: &http.Client{Timeout: 200 * time.Millisecond}}
	snap := fetch(context.Background(), c, ts.URL, time.Minute)
	if snap.err == nil {
		t.Fatal("unreachable server produced no error")
	}
	var out bytes.Buffer
	render(&out, snap)
	if !strings.Contains(out.String(), "!!") || !strings.Contains(out.String(), "FLEET unavailable") {
		t.Fatalf("error snapshot should render degraded sections:\n%s", out.String())
	}
}

// at is a history sample of value v at second i.
func at(i int, v float64) obs.HistPoint {
	return obs.HistPoint{T: time.Unix(int64(i), 0), V: v}
}

func TestMergeGaugeAlignsFromTail(t *testing.T) {
	got := mergeGauge([]obs.SeriesRange{
		{Points: []obs.HistPoint{at(1, 1), at(2, 2), at(3, 3)}},
		{Points: []obs.HistPoint{at(2, 10), at(3, 20)}},
	})
	want := []float64{1, 12, 23}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestPerSecondHandlesResets(t *testing.T) {
	got := perSecond([]obs.HistPoint{at(0, 10), at(2, 14), at(4, 2)})
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("rates %v, want [2 1] (reset contributes post-reset value)", got)
	}
	if perSecond([]obs.HistPoint{at(0, 1)}) != nil {
		t.Fatal("single point has no rate")
	}
}

// TestCacheHitRatioAgrees: a restarted daemon serves 2 lookups from its
// disk tier and misses 22. A disk hit is a hit, counted once: the
// dashboard's percentage for that step, the default
// cache_hit_ratio_collapse rule's evaluated value and /v1/cache's hit_rate
// must all read 2/24 — which is under the rule's 0.1, so it fires.
func TestCacheHitRatioAgrees(t *testing.T) {
	dir := t.TempDir()
	before, err := service.NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := []string{strings.Repeat("a", 64), strings.Repeat("b", 64)}
	for _, key := range warm {
		before.Put(key, &core.RunResult{Trials: 2, Metrics: map[string]float64{"availability": 1}})
	}

	const step = 100 * time.Millisecond
	srv, err := service.New(service.Config{PoolSize: 1, CacheDir: dir, HistoryInterval: step})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var c service.Client
	ctx := context.Background()

	// samples reports how many history samples of the miss counter exist.
	samples := func() int {
		var hr service.HistoryResponse
		if err := c.GetJSON(ctx, ts.URL+"/v1/metrics/history?name=wt_cache_misses_total&window=1m", service.MaxReply, &hr); err != nil {
			t.Fatal(err)
		}
		if len(hr.Series) == 0 {
			return 0
		}
		return len(hr.Series[0].Points)
	}
	await := func(n int) {
		for deadline := time.Now().Add(5 * time.Second); samples() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("history never reached %d samples", n)
			}
		}
	}
	// All 24 lookups right after a sample lands, so they share one step.
	n := samples() + 1
	await(n)
	for _, key := range warm {
		if _, ok := srv.Cache().Get(key); !ok {
			t.Fatalf("restarted cache lost %s", key)
		}
	}
	for i := 0; i < 22; i++ {
		srv.Cache().Get(strings.Repeat("c", 62) + string(rune('a'+i/10)) + string(rune('0'+i%10)))
	}
	await(n + 1)

	var cr service.CacheResponse
	if err := c.GetJSON(ctx, ts.URL+"/v1/cache", service.MaxReply, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Hits != 2 || cr.DiskHits != 2 || cr.Misses != 22 {
		t.Fatalf("cache counted %+v, want 2 hits (both disk) and 22 misses", cr.Stats)
	}
	want := 2.0 / 24
	near := func(got float64) bool { return got > want-1e-9 && got < want+1e-9 }
	if !near(cr.HitRate) {
		t.Errorf("/v1/cache hit_rate %v, want %v", cr.HitRate, want)
	}

	var snap snapshot
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(step / 4) {
		snap = fetch(ctx, c, ts.URL, time.Minute)
		if snap.err != nil {
			t.Fatal(snap.err)
		}
		if snap.alerts.Firing > 0 || time.Now().After(deadline) {
			break
		}
	}
	if pct, ok := last(snap.hitPct); !ok || !near(pct/100) {
		t.Errorf("wttop shows a %.1f%% hit ratio (steps %v), want %.1f%%", pct, snap.hitPct, 100*want)
	}
	var fired *service.Alert
	for i, a := range snap.alerts.Alerts {
		if a.Rule == "cache_hit_ratio_collapse" && a.State == service.AlertFiring {
			fired = &snap.alerts.Alerts[i]
		}
	}
	if fired == nil {
		t.Fatalf("cache_hit_ratio_collapse is not firing at a %.3f hit ratio over 24 lookups: %+v", want, snap.alerts)
	}
	if !near(fired.Value) {
		t.Errorf("the rule evaluated the ratio as %v, want %v", fired.Value, want)
	}
}

func TestHitRatioNoTraffic(t *testing.T) {
	pct := hitRatio([][]float64{{0, 3}}, [][]float64{{0, 1}})
	if pct[0] != -1 {
		t.Fatalf("idle step should be marked no-data, got %v", pct[0])
	}
	if pct[1] != 75 {
		t.Fatalf("hit ratio %v, want 75", pct[1])
	}
}

func TestSparkline(t *testing.T) {
	s := sparkline([]float64{0, 1, 2, 4}, 6)
	runes := []rune(s)
	if len(runes) != 6 {
		t.Fatalf("sparkline %q not padded to width", s)
	}
	if runes[0] != ' ' || runes[1] != ' ' {
		t.Fatalf("sparkline %q should left-pad short histories", s)
	}
	if runes[5] != '█' || runes[2] != '▁' {
		t.Fatalf("sparkline %q should scale 0..max", s)
	}
	// No-data steps draw blank, flat series draw the floor glyph.
	if got := sparkline([]float64{-1, 5, 5}, 3); []rune(got)[0] != ' ' {
		t.Fatalf("no-data step should be blank: %q", got)
	}
	if got := sparkline([]float64{0, 0}, 2); got != "▁▁" {
		t.Fatalf("flat zero series should draw the floor: %q", got)
	}
}
