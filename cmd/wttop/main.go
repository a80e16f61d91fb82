// Command wttop is a live terminal dashboard over a windtunneld
// coordinator — `top` for the wind tunnel fleet. It polls the
// observability API (/v1/fleet, /v1/alerts, /v1/jobs and the
// /v1/metrics/history ranges the telemetry history records) and redraws
// an ANSI screen each interval: fleet membership with health state,
// queue-depth / points-per-second / cache-hit-ratio sparklines, the
// most recent jobs, and any firing or pending alerts.
//
// Usage:
//
//	wttop -server http://localhost:8866
//	wttop -server http://localhost:8866 -interval 1s -window 10m
//	wttop -once          # one plain snapshot to stdout (CI smoke tests)
//
// -once renders a single frame without ANSI control sequences and exits
// non-zero if the coordinator is unreachable, so a smoke test can both
// grep the output and trust the exit code.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	server := flag.String("server", "http://127.0.0.1:8866", "windtunneld coordinator base URL")
	interval := flag.Duration("interval", 2*time.Second, "refresh interval")
	window := flag.Duration("window", 5*time.Minute, "history window behind the sparklines")
	once := flag.Bool("once", false, "render one plain snapshot and exit (no ANSI)")
	flag.Parse()

	c := service.Client{HTTP: &http.Client{Timeout: 5 * time.Second}}
	base := strings.TrimRight(*server, "/")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *once {
		snap := fetch(ctx, c, base, *window)
		render(os.Stdout, snap)
		if snap.err != nil {
			fmt.Fprintln(os.Stderr, "wttop:", snap.err)
			os.Exit(1)
		}
		return
	}

	// Live mode: alternate-screen + hidden cursor, restored on exit so a
	// ^C leaves the terminal usable.
	fmt.Print("\x1b[?1049h\x1b[?25l")
	defer fmt.Print("\x1b[?25h\x1b[?1049l")
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		snap := fetch(ctx, c, base, *window)
		var b strings.Builder
		b.WriteString("\x1b[H\x1b[2J")
		render(&b, snap)
		os.Stdout.WriteString(b.String())
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// snapshot is one fetched frame; partial failures leave sections nil
// and the first error recorded, so the dashboard degrades instead of
// blanking when one endpoint hiccups.
type snapshot struct {
	at     time.Time
	server string
	window time.Duration

	fleet   *service.FleetResponse
	alerts  *service.AlertsResponse
	jobs    []service.JobInfo
	queue   []float64 // merged wt_pool_queue_depth over the window
	pointsS []float64 // fleet points/sec derived from wt_points_committed_total
	hitPct  []float64 // cache hit % per history step
	err     error
}

// fetch reads one frame's worth of the observability API at base.
func fetch(ctx context.Context, c service.Client, base string, window time.Duration) snapshot {
	snap := snapshot{at: time.Now(), server: base, window: window}
	get := func(path string, into any) bool {
		err := c.GetJSON(ctx, base+path, service.MaxReply, into)
		if err != nil && snap.err == nil {
			snap.err = err
		}
		return err == nil
	}
	history := func(name string) ([]obs.SeriesRange, bool) {
		var hr service.HistoryResponse
		ok := get("/v1/metrics/history?name="+url.QueryEscape(name)+"&window="+url.QueryEscape(window.String()), &hr)
		return hr.Series, ok
	}

	var fleet service.FleetResponse
	if get("/v1/fleet", &fleet) {
		snap.fleet = &fleet
	}
	var alerts service.AlertsResponse
	if get("/v1/alerts", &alerts) {
		snap.alerts = &alerts
	}
	get("/v1/jobs", &snap.jobs)

	if qs, ok := history("wt_pool_queue_depth"); ok {
		snap.queue = mergeGauge(qs)
	}
	if ps, ok := history("wt_points_committed_total"); ok {
		snap.pointsS = mergeRate(ps)
	}
	// wt_cache_hits_total counts a hit in any tier (the disk and peer
	// counters are subsets of it), so hits over hits + misses is the ratio.
	hits, ok1 := history("wt_cache_hits_total")
	miss, ok2 := history("wt_cache_misses_total")
	if ok1 && ok2 {
		snap.hitPct = hitRatio(mergeRateSeries(hits), mergeRateSeries(miss))
	}
	return snap
}

// mergeGauge sums a metric's series point-by-point, aligning from the
// newest sample backwards — instances sample on the same cadence, so
// index alignment from the tail is a faithful fleet total.
func mergeGauge(series []obs.SeriesRange) []float64 {
	depth := 0
	for _, s := range series {
		if len(s.Points) > depth {
			depth = len(s.Points)
		}
	}
	out := make([]float64, depth)
	for _, s := range series {
		off := depth - len(s.Points)
		for i, p := range s.Points {
			out[off+i] += p.V
		}
	}
	return out
}

// perSecond turns one counter series into per-second rates between
// consecutive samples; a counter reset contributes the post-reset value.
func perSecond(points []obs.HistPoint) []float64 {
	if len(points) < 2 {
		return nil
	}
	out := make([]float64, 0, len(points)-1)
	for i := 1; i < len(points); i++ {
		d := points[i].V - points[i-1].V
		if d < 0 {
			d = points[i].V
		}
		dt := points[i].T.Sub(points[i-1].T).Seconds()
		if dt <= 0 {
			dt = 1
		}
		out = append(out, d/dt)
	}
	return out
}

// mergeRateSeries converts every series to per-second rates, keeping
// them separate (for ratio math); mergeRate also sums across series.
func mergeRateSeries(series []obs.SeriesRange) [][]float64 {
	out := make([][]float64, 0, len(series))
	for _, s := range series {
		if r := perSecond(s.Points); r != nil {
			out = append(out, r)
		}
	}
	return out
}

func mergeRate(series []obs.SeriesRange) []float64 {
	return sumAligned(mergeRateSeries(series))
}

func sumAligned(rates [][]float64) []float64 {
	depth := 0
	for _, r := range rates {
		if len(r) > depth {
			depth = len(r)
		}
	}
	out := make([]float64, depth)
	for _, r := range rates {
		off := depth - len(r)
		for i, v := range r {
			out[off+i] += v
		}
	}
	return out
}

// hitRatio computes per-step cache hit percentages from the hit-rate
// and miss-rate series; steps with no traffic carry NaN and draw blank.
func hitRatio(hitRates, missRates [][]float64) []float64 {
	hits, misses := sumAligned(hitRates), sumAligned(missRates)
	depth := len(hits)
	if len(misses) > depth {
		depth = len(misses)
	}
	out := make([]float64, depth)
	for i := range out {
		var h, m float64
		if j := i - (depth - len(hits)); j >= 0 && j < len(hits) {
			h = hits[j]
		}
		if j := i - (depth - len(misses)); j >= 0 && j < len(misses) {
			m = misses[j]
		}
		if h+m <= 0 {
			out[i] = -1 // no traffic this step
			continue
		}
		out[i] = 100 * h / (h + m)
	}
	return out
}

// sparkTicks are the eight block glyphs a sparkline draws with.
var sparkTicks = []rune("▁▂▃▄▅▆▇█")

const sparkWidth = 40

// sparkline renders vals scaled 0..max into block glyphs, newest at the
// right edge; negative values (no-data steps) draw as spaces.
func sparkline(vals []float64, width int) string {
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for i := 0; i < width-len(vals); i++ {
		b.WriteByte(' ')
	}
	for _, v := range vals {
		switch {
		case v < 0:
			b.WriteByte(' ')
		case max <= 0:
			b.WriteRune(sparkTicks[0])
		default:
			idx := int(v / max * float64(len(sparkTicks)-1))
			b.WriteRune(sparkTicks[idx])
		}
	}
	return b.String()
}

// last returns the newest value of a merged series, skipping no-data
// steps; ok is false when the series is empty.
func last(vals []float64) (float64, bool) {
	for i := len(vals) - 1; i >= 0; i-- {
		if vals[i] >= 0 {
			return vals[i], true
		}
	}
	return 0, false
}

// maxVisibleJobs bounds the jobs table to roughly one screen.
const maxVisibleJobs = 8

func render(w io.Writer, snap snapshot) {
	fmt.Fprintf(w, "wttop — %s — %s", snap.server, snap.at.Format(time.RFC3339))
	if snap.fleet != nil {
		fmt.Fprintf(w, "  (mode: %s)", snap.fleet.Mode)
	}
	fmt.Fprintln(w)
	if snap.err != nil {
		fmt.Fprintf(w, "!! %v\n", snap.err)
	}
	fmt.Fprintln(w)

	renderFleet(w, snap.fleet)
	renderSparks(w, snap)
	renderJobs(w, snap.jobs)
	renderAlerts(w, snap.alerts)
}

func renderFleet(w io.Writer, fleet *service.FleetResponse) {
	if fleet == nil {
		fmt.Fprintln(w, "FLEET unavailable")
		fmt.Fprintln(w)
		return
	}
	members := fleet.Members
	if len(members) == 0 && fleet.Self != "" {
		// A single-node daemon monitors no one; show it as itself.
		members = []service.MemberHealth{{URL: fleet.Self, State: service.StateUp}}
	}
	fmt.Fprintf(w, "FLEET  %d members\n", len(members))
	fmt.Fprintf(w, "  %-36s %-8s %s\n", "MEMBER", "STATE", "NOTE")
	sort.Slice(members, func(i, j int) bool { return members[i].URL < members[j].URL })
	for _, m := range members {
		note := ""
		switch {
		case m.Draining:
			note = "draining"
		case m.LastError != "":
			note = fmt.Sprintf("%d failures: %s", m.Failures, m.LastError)
		}
		fmt.Fprintf(w, "  %-36s %-8s %s\n", clip(m.URL, 36), m.State, clip(note, 48))
	}
	fmt.Fprintln(w)
}

func renderSparks(w io.Writer, snap snapshot) {
	row := func(name string, vals []float64, unit string) {
		cur := "–"
		if v, ok := last(vals); ok {
			cur = fmt.Sprintf("%.1f%s", v, unit)
		}
		fmt.Fprintf(w, "  %-14s %s %s\n", name, sparkline(vals, sparkWidth), cur)
	}
	fmt.Fprintf(w, "METRICS  (last %s)\n", snap.window)
	row("queue depth", snap.queue, "")
	row("points/sec", snap.pointsS, "")
	row("cache hit", snap.hitPct, "%")
	fmt.Fprintln(w)
}

func renderJobs(w io.Writer, jobs []service.JobInfo) {
	active := 0
	for _, j := range jobs {
		if j.State == "running" || j.State == "queued" {
			active++
		}
	}
	fmt.Fprintf(w, "JOBS  %d active / %d known\n", active, len(jobs))
	if len(jobs) == 0 {
		fmt.Fprintln(w)
		return
	}
	fmt.Fprintf(w, "  %-10s %-9s %-14s %-6s %s\n", "ID", "STATE", "PROGRESS", "CACHED", "QUERY")
	shown := jobs
	if len(shown) > maxVisibleJobs {
		shown = shown[:maxVisibleJobs]
	}
	for _, j := range shown {
		progress := fmt.Sprintf("%d/%d", j.Done, j.Total)
		if j.Total > 0 {
			progress += fmt.Sprintf(" (%d%%)", 100*j.Done/j.Total)
		}
		state := j.State
		if j.Degraded {
			state += "!"
		}
		fmt.Fprintf(w, "  %-10s %-9s %-14s %-6d %s\n",
			clip(j.ID, 10), state, progress, j.CacheHits, clip(oneLine(j.Query), 60))
	}
	if len(jobs) > maxVisibleJobs {
		fmt.Fprintf(w, "  … %d more\n", len(jobs)-maxVisibleJobs)
	}
	fmt.Fprintln(w)
}

func renderAlerts(w io.Writer, alerts *service.AlertsResponse) {
	if alerts == nil {
		fmt.Fprintln(w, "ALERTS unavailable")
		return
	}
	fmt.Fprintf(w, "ALERTS  %d firing, %d pending\n", alerts.Firing, alerts.Pending)
	for _, a := range alerts.Alerts {
		if a.State == "resolved" {
			continue
		}
		age := time.Since(a.Since).Round(time.Second)
		fmt.Fprintf(w, "  %-8s %-24s %-8s %s  value=%.3g  for %s\n",
			strings.ToUpper(string(a.State)), a.Rule, a.Severity, a.Labels, a.Value, age)
	}
}

// oneLine collapses a query's internal whitespace for the jobs table.
func oneLine(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// clip truncates a label to n runes with an ellipsis.
func clip(s string, n int) string {
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n-1]) + "…"
}
