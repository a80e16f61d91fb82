package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// This file renders wtql's -trace waterfall: after a daemon-mode query
// finishes, the job's distributed trace (GET /v1/jobs/{id}/trace — on a
// coordinator, merged across every worker) is drawn as an indented
// waterfall, followed by the slowest spans and a per-worker breakdown.
// Everything prints to stderr so the table bytes on stdout stay
// byte-identical with and without -trace.

// printTrace fetches the finished job's merged trace tree from the server
// that ran it and draws it. Failing to is a notice, never the run's
// failure: the table has printed.
func printTrace(ctx context.Context, c service.Client, s *service.Session) {
	var tr service.TraceResponse
	err := c.GetJSON(ctx, strings.TrimRight(s.Owner, "/")+"/v1/jobs/"+s.Job+"/trace", service.MaxReply, &tr)
	var se *service.StatusError
	switch {
	case errors.As(err, &se) && se.Status == http.StatusNotFound && se.Message == "trace evicted":
		// The job finished but its spans aged out of the daemon's bounded
		// trace ring before we asked: the waterfall is simply gone.
		fmt.Fprintln(os.Stderr, "wtql: trace evicted: the daemon's trace buffer dropped this job's spans (raise its retention or fetch the trace sooner); the result table above is complete")
	case err != nil:
		fmt.Fprintf(os.Stderr, "wtql: trace unavailable: %v\n", err)
	default:
		renderTrace(os.Stderr, &tr)
	}
}

// maxWaterfallRows bounds the waterfall print: a big sweep has one span
// per design point, and past a screenful the summary sections carry the
// signal better than a thousand bars.
const maxWaterfallRows = 48

// renderTrace draws the waterfall plus the slowest-spans and per-worker
// summaries.
func renderTrace(w io.Writer, tr *service.TraceResponse) {
	if len(tr.Spans) == 0 {
		fmt.Fprintf(w, "trace %s: no spans recorded\n", tr.TraceID)
		return
	}
	// The trace window: earliest start to latest end across all spans.
	t0 := tr.Spans[0].Start
	var t1 time.Time
	for _, sp := range tr.Spans {
		if sp.Start.Before(t0) {
			t0 = sp.Start
		}
		if end := sp.Start.Add(sp.Duration); end.After(t1) {
			t1 = end
		}
	}
	window := t1.Sub(t0)
	if window <= 0 {
		window = time.Nanosecond
	}

	fmt.Fprintf(w, "trace %s for %s: %d spans, %s total\n",
		tr.TraceID, tr.Job, len(tr.Spans), window.Round(time.Microsecond))
	if tr.Dropped > 0 {
		fmt.Fprintf(w, "  (%d spans dropped to the per-trace ring bound)\n", tr.Dropped)
	}

	// Tree assembly: children under their parent, roots = spans whose
	// parent was not recorded (or absent). Siblings draw in start order.
	byID := make(map[string]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		byID[sp.SpanID] = true
	}
	children := make(map[string][]obs.Span)
	var roots []obs.Span
	for _, sp := range tr.Spans {
		if sp.Parent != "" && byID[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	byStart := func(spans []obs.Span) {
		sort.SliceStable(spans, func(i, j int) bool {
			if !spans[i].Start.Equal(spans[j].Start) {
				return spans[i].Start.Before(spans[j].Start)
			}
			return spans[i].SpanID < spans[j].SpanID
		})
	}
	byStart(roots)
	for _, c := range children {
		byStart(c)
	}

	rows := 0
	var draw func(sp obs.Span, depth int)
	draw = func(sp obs.Span, depth int) {
		if rows < maxWaterfallRows {
			label := strings.Repeat("  ", depth) + sp.Name
			if wk := sp.Worker; wk != "" {
				label += " @" + wk
			}
			if idx, ok := sp.Attrs["index"]; ok {
				label += " #" + idx
			}
			if n, ok := sp.Attrs["batch"]; ok {
				label += " batch=" + n // records that shared this journal fsync
			}
			fmt.Fprintf(w, "  %9s %-44s %10s %s\n",
				sp.Start.Sub(t0).Round(time.Microsecond), clip(label, 44),
				sp.Duration.Round(time.Microsecond), bar(sp, t0, window))
		}
		rows++
		for _, c := range children[sp.SpanID] {
			draw(c, depth+1)
		}
	}
	for _, r := range roots {
		draw(r, 0)
	}
	if rows > maxWaterfallRows {
		fmt.Fprintf(w, "  … %d more spans (showing first %d)\n", rows-maxWaterfallRows, maxWaterfallRows)
	}

	// Slowest spans: where the wall-clock actually went.
	slow := make([]obs.Span, len(tr.Spans))
	copy(slow, tr.Spans)
	sort.SliceStable(slow, func(i, j int) bool { return slow[i].Duration > slow[j].Duration })
	n := len(slow)
	if n > 5 {
		n = 5
	}
	fmt.Fprintln(w, "slowest spans:")
	for _, sp := range slow[:n] {
		name := sp.Name
		if idx, ok := sp.Attrs["index"]; ok {
			name += " #" + idx
		}
		fmt.Fprintf(w, "  %10s  %-28s @%s\n", sp.Duration.Round(time.Microsecond), clip(name, 28), sp.Worker)
	}

	// Per-worker breakdown over the point-level spans — the fleet's load
	// split, and how much of each worker's share the cache absorbed.
	type load struct {
		points, cached int
		busy           time.Duration
	}
	perWorker := make(map[string]*load)
	var workers []string
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "simulate", "cache_hit", "screened", "pruned":
		default:
			continue
		}
		l := perWorker[sp.Worker]
		if l == nil {
			l = &load{}
			perWorker[sp.Worker] = l
			workers = append(workers, sp.Worker)
		}
		l.points++
		if sp.Name == "cache_hit" {
			l.cached++
		}
		l.busy += sp.Duration
	}
	if len(workers) > 0 {
		sort.Strings(workers)
		fmt.Fprintln(w, "per worker:")
		for _, wk := range workers {
			l := perWorker[wk]
			fmt.Fprintf(w, "  %-28s %4d points (%d cached)  %10s busy\n",
				clip(wk, 28), l.points, l.cached, l.busy.Round(time.Microsecond))
		}
	}
}

// bar draws a span's position within the trace window on a fixed scale.
func bar(sp obs.Span, t0 time.Time, window time.Duration) string {
	const width = 30
	lead := int(float64(sp.Start.Sub(t0)) / float64(window) * width)
	span := int(float64(sp.Duration) / float64(window) * width)
	if span < 1 {
		span = 1
	}
	if lead > width-1 {
		lead = width - 1
	}
	if lead+span > width {
		span = width - lead
	}
	return strings.Repeat(" ", lead) + strings.Repeat("▇", span)
}

// clip truncates a label to n runes with an ellipsis.
func clip(s string, n int) string {
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n-1]) + "…"
}
