package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func at(sec int) time.Time {
	return time.Unix(1700000000+int64(sec), 0)
}

func TestSnapshotShapes(t *testing.T) {
	r := NewRegistry()
	r.Counter("wt_jobs_total", "Jobs.", "status", "done").Add(3)
	r.Gauge("wt_depth", "Depth.").Set(7)
	r.GaugeFunc("wt_fn", "Fn-backed.", func() float64 { return 2.5 })
	h := r.Histogram("wt_lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	snap := r.Snapshot()
	byName := map[string]FamilySnapshot{}
	for _, f := range snap {
		byName[f.Name] = f
	}
	if f := byName["wt_jobs_total"]; len(f.Samples) != 1 || f.Samples[0].Value != 3 || f.Type != "counter" {
		t.Fatalf("counter snapshot wrong: %+v", f)
	}
	if got := byName["wt_jobs_total"].Samples[0].Labels; len(got) != 1 || got[0] != [2]string{"status", "done"} {
		t.Fatalf("label pairs wrong: %v", got)
	}
	if f := byName["wt_fn"]; len(f.Samples) != 1 || f.Samples[0].Value != 2.5 {
		t.Fatalf("fn snapshot wrong: %+v", f)
	}
	hist := byName["wt_lat_seconds"]
	// 2 finite buckets + +Inf + _sum + _count.
	if len(hist.Samples) != 5 {
		t.Fatalf("histogram expansion: got %d samples: %+v", len(hist.Samples), hist.Samples)
	}
	var inf, count float64
	for _, s := range hist.Samples {
		if s.Suffix == "_bucket" {
			if le, _ := labelValue(s.Labels, "le"); le == "+Inf" {
				inf = s.Value
			}
		}
		if s.Suffix == "_count" {
			count = s.Value
		}
	}
	if inf != 3 || count != 3 {
		t.Fatalf("histogram +Inf=%v _count=%v, want 3/3", inf, count)
	}
}

func TestHistoryRingWraparound(t *testing.T) {
	h := NewHistory(4)
	for i := 0; i < 10; i++ {
		h.Ingest([]FamilySnapshot{{
			Name: "wt_x", Type: "gauge",
			Samples: []SeriesSample{{Value: float64(i)}},
		}}, "", at(i))
	}
	rs := h.Range("wt_x", time.Hour, at(10))
	if len(rs) != 1 {
		t.Fatalf("want 1 series, got %d", len(rs))
	}
	pts := rs[0].Points
	if len(pts) != 4 {
		t.Fatalf("ring should retain 4 samples, got %d", len(pts))
	}
	// Oldest samples evicted: only 6..9 remain, oldest first.
	for i, p := range pts {
		if want := float64(6 + i); p.V != want || !p.T.Equal(at(6+i)) {
			t.Fatalf("point %d = %+v, want value %v at %v", i, p, want, at(6+i))
		}
	}
	lat := h.Latest("wt_x")
	if len(lat) != 1 || lat[0].V != 9 {
		t.Fatalf("latest = %+v, want 9", lat)
	}
}

func TestIncreaseAcrossWrapAndReset(t *testing.T) {
	h := NewHistory(5)
	// A counter that grows by 2 per tick, then resets to 1 (process
	// restart), then grows again — and the ring wraps along the way.
	vals := []float64{0, 2, 4, 6, 8, 1, 3}
	for i, v := range vals {
		h.Ingest([]FamilySnapshot{{
			Name: "wt_c_total", Type: "counter",
			Samples: []SeriesSample{{Value: v}},
		}}, "", at(i))
	}
	// Ring holds the last 5: 4,6,8,1,3. Increase = (6-4)+(8-6)+1+(3-1) = 7.
	inc := h.Increase("wt_c_total", time.Hour, at(7))
	if len(inc) != 1 {
		t.Fatalf("want 1 series, got %d", len(inc))
	}
	if inc[0].Delta != 7 {
		t.Fatalf("increase = %v, want 7 (reset-aware across wrap)", inc[0].Delta)
	}
	if inc[0].Samples != 5 {
		t.Fatalf("samples = %d, want 5", inc[0].Samples)
	}
	if inc[0].Elapsed != 4*time.Second {
		t.Fatalf("elapsed = %v, want 4s", inc[0].Elapsed)
	}
	// A window clipping to the last 3 samples (8,1,3) sees 1+(3-1)=3.
	inc = h.Increase("wt_c_total", 2*time.Second+time.Millisecond, at(6))
	if len(inc) != 1 || inc[0].Delta != 3 {
		t.Fatalf("clipped increase = %+v, want delta 3", inc)
	}
}

func TestHistoryInstanceLabel(t *testing.T) {
	h := NewHistory(8)
	snap := []FamilySnapshot{{Name: "wt_up", Type: "gauge", Samples: []SeriesSample{{Value: 1}}}}
	h.Ingest(snap, "http://a", at(0))
	h.Ingest(snap, "http://b", at(0))
	lat := h.Latest("wt_up")
	if len(lat) != 2 {
		t.Fatalf("want 2 instance series, got %+v", lat)
	}
	want := map[string]bool{`{instance="http://a"}`: true, `{instance="http://b"}`: true}
	for _, v := range lat {
		if !want[v.Labels] {
			t.Fatalf("unexpected series %q", v.Labels)
		}
	}
	// An already-present instance label is preserved, not overridden.
	h.Ingest([]FamilySnapshot{{Name: "wt_up", Type: "gauge",
		Samples: []SeriesSample{{Labels: [][2]string{{"instance", "keep"}}, Value: 0}}}}, "http://c", at(1))
	found := false
	for _, v := range h.Latest("wt_up") {
		if v.Labels == `{instance="keep"}` {
			found = true
		}
	}
	if !found {
		t.Fatal("explicit instance label was not preserved")
	}
}

func TestQuantileOver(t *testing.T) {
	h := NewHistory(16)
	r := NewRegistry()
	hist := r.Histogram("wt_lat_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.Ingest(r.Snapshot(), "w1", at(0))
	// 90 observations land in (0.01, 0.1], 10 in (0.1, 1].
	for i := 0; i < 90; i++ {
		hist.Observe(0.05)
	}
	for i := 0; i < 10; i++ {
		hist.Observe(0.5)
	}
	h.Ingest(r.Snapshot(), "w1", at(2))
	qs := h.QuantileOver("wt_lat_seconds", 0.5, time.Hour, at(3))
	if len(qs) != 1 {
		t.Fatalf("want 1 series, got %+v", qs)
	}
	// Median rank 50 of 100 falls in the (0.01, 0.1] bucket: interpolate
	// 0.01 + (0.1-0.01)*50/90 = 0.06.
	if got := qs[0].V; got < 0.059 || got > 0.061 {
		t.Fatalf("p50 = %v, want ~0.06", got)
	}
	qs = h.QuantileOver("wt_lat_seconds", 0.99, time.Hour, at(3))
	// Rank 99 falls in (0.1, 1]: 0.1 + 0.9*(99-90)/10 = 0.91.
	if got := qs[0].V; got < 0.90 || got > 0.92 {
		t.Fatalf("p99 = %v, want ~0.91", got)
	}
	// No observations in the window -> no series.
	if qs := h.QuantileOver("wt_lat_seconds", 0.5, time.Millisecond, at(100)); qs != nil {
		t.Fatalf("empty window should yield nil, got %+v", qs)
	}
}

func TestHistogramExpansionQueriesByName(t *testing.T) {
	h := NewHistory(8)
	r := NewRegistry()
	hist := r.Histogram("wt_lat_seconds", "Latency.", []float64{1})
	hist.Observe(0.5)
	h.Ingest(r.Snapshot(), "", at(0))
	hist.Observe(0.5)
	h.Ingest(r.Snapshot(), "", at(1))
	inc := h.Increase("wt_lat_seconds_count", time.Hour, at(2))
	if len(inc) != 1 || inc[0].Delta != 1 {
		t.Fatalf("count increase = %+v, want 1", inc)
	}
	if lat := h.Latest("wt_lat_seconds_sum"); len(lat) != 1 || lat[0].V != 1 {
		t.Fatalf("sum latest = %+v, want 1", lat)
	}
	if got := h.Latest("wt_nope"); got != nil {
		t.Fatalf("unknown name should yield nil, got %+v", got)
	}
}

func TestWriteLatestPrometheusLintsAndRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("wt_jobs_total", "Jobs.").Add(5)
	hist := r.Histogram("wt_lat_seconds", "Latency.", []float64{0.1, 1})
	hist.Observe(0.05)
	hist.Observe(2)

	h := NewHistory(8)
	h.Ingest(r.Snapshot(), "http://w1", at(0))
	h.Ingest(r.Snapshot(), "http://w2", at(0))

	var b strings.Builder
	if err := h.WriteLatestPrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if problems := Lint([]byte(text)); len(problems) != 0 {
		t.Fatalf("federated exposition does not lint:\n%s\n%v", text, problems)
	}
	if !strings.Contains(text, `instance="http://w1"`) || !strings.Contains(text, `instance="http://w2"`) {
		t.Fatalf("missing instance labels:\n%s", text)
	}

	// Round-trip: parse the rendered text back and re-ingest.
	fams, err := ParseExposition([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	h2 := NewHistory(8)
	h2.Ingest(fams, "", at(1))
	var b2 strings.Builder
	if err := h2.WriteLatestPrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != text {
		t.Fatalf("round trip changed output:\n--- first\n%s\n--- second\n%s", text, b2.String())
	}
}

// parseFixture is a lenient scrape: a counter, a histogram whose
// expansions fold back into it, and an untyped family named like a
// histogram count.
const parseFixture = `# HELP wt_jobs_total Jobs completed.
# TYPE wt_jobs_total counter
wt_jobs_total{status="done"} 4
# HELP wt_lat_seconds Latency.
# TYPE wt_lat_seconds histogram
wt_lat_seconds_bucket{le="0.1"} 2
wt_lat_seconds_bucket{le="+Inf"} 3
wt_lat_seconds_sum 1.5
wt_lat_seconds_count 3
plain_count 7
`

func TestParseExposition(t *testing.T) {
	fams, err := ParseExposition([]byte(parseFixture))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]FamilySnapshot{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["wt_jobs_total"]; f.Type != "counter" || len(f.Samples) != 1 || f.Samples[0].Value != 4 {
		t.Fatalf("counter family wrong: %+v", f)
	}
	hist := byName["wt_lat_seconds"]
	if hist.Type != "histogram" || len(hist.Samples) != 4 {
		t.Fatalf("histogram family should fold its expansions: %+v", hist)
	}
	suffixes := map[string]int{}
	for _, s := range hist.Samples {
		suffixes[s.Suffix]++
	}
	if suffixes["_bucket"] != 2 || suffixes["_sum"] != 1 || suffixes["_count"] != 1 {
		t.Fatalf("suffix spread wrong: %v", suffixes)
	}
	// plain_count has no histogram base family: a family of its own.
	if f := byName["plain_count"]; f.Type != "untyped" || len(f.Samples) != 1 || f.Samples[0].Value != 7 {
		t.Fatalf("plain_count family wrong: %+v", f)
	}

	if _, err := ParseExposition([]byte("wt_bad{oops} 1\n")); err == nil {
		t.Fatal("malformed labels should be an error")
	}
	if _, err := ParseExposition([]byte("wt_bad notafloat\n")); err == nil {
		t.Fatal("bad value should be an error")
	}
}

func TestHistoryConcurrentSampleQueryScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wt_ops_total", "Ops.")
	hist := r.Histogram("wt_lat_seconds", "Latency.", DurationBuckets)
	h := NewHistory(32)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the telemetry round's ingest
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			h.Ingest(r.Snapshot(), "local", time.Now())
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				hist.Observe(0.001)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.Range("wt_ops_total", time.Minute, time.Now())
			h.Increase("wt_ops_total", time.Minute, time.Now())
			h.QuantileOver("wt_lat_seconds", 0.99, time.Minute, time.Now())
			var b strings.Builder
			if err := h.WriteLatestPrometheus(&b); err != nil {
				panic(fmt.Sprintf("write: %v", err))
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	if lat := h.Latest("wt_ops_total"); len(lat) != 1 || lat[0].V == 0 {
		t.Fatalf("ingest never captured counter growth: %+v", lat)
	}
	var b strings.Builder
	if err := h.WriteLatestPrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if problems := Lint([]byte(b.String())); len(problems) != 0 {
		t.Fatalf("exposition after concurrent load does not lint: %v", problems)
	}
}

func TestNilHistorySafe(t *testing.T) {
	var h *History
	h.Ingest(nil, "x", at(0))
	if h.Range("a", time.Hour, at(0)) != nil || h.Latest("a") != nil ||
		h.Increase("a", time.Hour, at(0)) != nil || h.QuantileOver("a", 0.5, time.Hour, at(0)) != nil {
		t.Fatal("nil history should answer empty")
	}
	var b strings.Builder
	if err := h.WriteLatestPrometheus(&b); err != nil || b.Len() != 0 {
		t.Fatal("nil history should write nothing")
	}
}
