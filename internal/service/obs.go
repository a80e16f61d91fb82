package service

import (
	"context"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Version identifies the daemon build. It is exposed on /v1/healthz and
// /v1/stats (and printed by wtload), so an operator can tell which
// binary answered — essential once a fleet rolls upgrades member by
// member.
const Version = "0.9.0"

// traceCtx is a job's position in a distributed trace: the trace id and
// the parent span a remote coordinator propagated in the X-WT-Trace
// header (empty parent = this process is the trace root).
type traceCtx struct {
	id     string
	parent string
}

// traceHeader is the coordinator→worker trace propagation header:
// "<trace_id>:<parent_span_id>".
const traceHeader = "X-WT-Trace"

func parseTraceHeader(r *http.Request) traceCtx {
	v := r.Header.Get(traceHeader)
	if v == "" {
		return traceCtx{}
	}
	id, parent, _ := strings.Cut(v, ":")
	return traceCtx{id: id, parent: parent}
}

// telemetry owns the server's observability state: the metrics registry,
// the distributed tracer, and every pre-registered instrument the
// serving paths update. Telemetry is always on: it never touches the
// data plane, so it changes no byte of a table or an NDJSON stream.
type telemetry struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	// instance labels this process's own history samples, as worker
	// labels its spans.
	instance string

	// Point commit path.
	pointsCommitted *obs.Counter
	pointsSimulated *obs.Counter
	pointsCached    *obs.Counter
	pointsScreened  *obs.Counter
	pointsPruned    *obs.Counter
	pointRun        *obs.Histogram
	simEvents       *obs.Counter
	simTrials       *obs.Counter

	// Journal.
	journalAppends *obs.Counter
	journalFsync   *obs.Histogram

	// Fleet coordinator.
	shardsLaunched *obs.Counter
	shardRetries   *obs.Counter
	workerFailures *obs.Counter
	degradedJobs   *obs.Counter
	streamResumes  *obs.Counter

	// Jobs.
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	jobsCancelled *obs.Counter

	// HTTP layer: per-route latency histograms are registered at route
	// setup; per-(route, status) counters lazily at first response.
	httpMu   sync.Mutex
	httpReqs map[string]*obs.Counter
}

// newTelemetry builds the registry, the tracer and the static
// instruments. worker labels this process's spans ("coordinator", the
// worker's own URL, or "local").
func newTelemetry(worker string) *telemetry {
	reg := obs.NewRegistry()
	t := &telemetry{
		reg:      reg,
		tracer:   obs.NewTracer(worker, 0, 0),
		instance: worker,

		pointsCommitted: reg.Counter("wt_points_committed_total",
			"Design points committed by this process's jobs (workers count their shards, a coordinator its merged jobs)."),
		pointsSimulated: reg.Counter("wt_point_outcomes_total",
			"Committed design points by outcome.", "outcome", "simulated"),
		pointsCached: reg.Counter("wt_point_outcomes_total",
			"Committed design points by outcome.", "outcome", "cached"),
		pointsScreened: reg.Counter("wt_point_outcomes_total",
			"Committed design points by outcome.", "outcome", "screened"),
		pointsPruned: reg.Counter("wt_point_outcomes_total",
			"Committed design points by outcome.", "outcome", "pruned"),
		pointRun: reg.Histogram("wt_point_run_seconds",
			"Wall-clock per simulated design point (build + gate wait + simulation).", obs.DurationBuckets),
		simEvents: reg.Counter("wt_sim_events_total",
			"Simulation events executed, flushed at point commit."),
		simTrials: reg.Counter("wt_sim_trials_total",
			"Simulation trials executed, flushed at point commit."),

		journalAppends: reg.Counter("wt_journal_appends_total",
			"Records made durable in the job journal."),
		journalFsync: reg.Histogram("wt_journal_fsync_seconds",
			"Journal flush latency: the write + fsync of one batch of records.", obs.DurationBuckets),

		shardsLaunched: reg.Counter("wt_fleet_shards_launched_total",
			"Shard streams launched at workers (including failover relaunches)."),
		shardRetries: reg.Counter("wt_fleet_shard_retries_total",
			"Shard failover re-plans after a worker stream failed or stalled."),
		workerFailures: reg.Counter("wt_fleet_worker_failures_total",
			"Worker shard streams that ended in failure."),
		degradedJobs: reg.Counter("wt_fleet_degraded_jobs_total",
			"Jobs that degraded to coordinator-local execution."),
		streamResumes: reg.Counter("wt_stream_resumes_total",
			"Durable job streams resumed with a from>0 cursor."),

		jobsDone: reg.Counter("wt_jobs_total",
			"Jobs finished, by terminal state.", "state", "done"),
		jobsFailed: reg.Counter("wt_jobs_total",
			"Jobs finished, by terminal state.", "state", "failed"),
		jobsCancelled: reg.Counter("wt_jobs_total",
			"Jobs finished, by terminal state.", "state", "cancelled"),

		httpReqs: make(map[string]*obs.Counter),
	}
	reg.GaugeFunc("wt_build_info",
		"Always 1, with the build identity as labels.",
		func() float64 { return 1 },
		"version", Version, "go", obs.ReadRuntime().GoVersion)
	return t
}

// bind registers the scrape-time bridges that read live server state —
// cache stats, pool depth, job registry, Go runtime. Called once all of
// the server's subsystems exist.
func (t *telemetry) bind(s *Server) {
	r := t.reg
	r.GaugeFunc("wt_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })

	// Pool: the live wait histogram and queue gauge are wired into the
	// Pool itself; capacity and in-use are bridges.
	r.GaugeFunc("wt_pool_capacity", "Simulation pool slot count.",
		func() float64 { return float64(s.pool.Cap()) })
	r.GaugeFunc("wt_pool_in_use", "Simulation pool slots currently held.",
		func() float64 { return float64(s.pool.InUse()) })

	// Trial cache, per tier. The bridges read Cache.Stats() — the same
	// counters /v1/cache reports — so the scrape can never disagree with
	// the cache's own accounting.
	cs := func(read func(Stats) float64) func() float64 {
		return func() float64 { return read(s.cache.Stats()) }
	}
	r.GaugeFunc("wt_cache_entries", "Trial cache memory-tier entries.",
		cs(func(st Stats) float64 { return float64(st.Entries) }))
	r.CounterFunc("wt_cache_hits_total", "Trial cache hits in any tier (the disk- and peer-tier counters are subsets).",
		cs(func(st Stats) float64 { return float64(st.Hits) }))
	r.CounterFunc("wt_cache_disk_hits_total", "Trial cache disk-tier hits.",
		cs(func(st Stats) float64 { return float64(st.DiskHits) }))
	r.CounterFunc("wt_cache_peer_hits_total", "Trial cache peer-tier hits.",
		cs(func(st Stats) float64 { return float64(st.PeerHits) }))
	r.CounterFunc("wt_cache_misses_total", "Trial cache misses (all tiers).",
		cs(func(st Stats) float64 { return float64(st.Misses) }))
	r.CounterFunc("wt_cache_puts_total", "Trial cache inserts.",
		cs(func(st Stats) float64 { return float64(st.Puts) }))
	r.CounterFunc("wt_cache_evictions_total", "Trial cache memory-tier evictions.",
		cs(func(st Stats) float64 { return float64(st.Evictions) }))
	r.CounterFunc("wt_cache_peer_retries_total", "Transient-status peer fetch retries.",
		cs(func(st Stats) float64 { return float64(st.PeerRetries) }))
	r.CounterFunc("wt_cache_peer_skips_total", "Peer fetches skipped because the owner was down.",
		cs(func(st Stats) float64 { return float64(st.PeerSkips) }))

	r.GaugeFunc("wt_jobs_running", "Jobs currently running.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, j := range s.jobs {
				if j.info.State == JobRunning {
					n++
				}
			}
			return float64(n)
		})

	// Go runtime. Cheap reads only — no ReadMemStats per scrape; heap
	// numbers come from /v1/stats where a stop-the-world is acceptable.
	r.GaugeFunc("wt_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
}

// observeHTTP records one served request.
func (t *telemetry) observeHTTP(route string, status int) {
	key := route + " " + strconv.Itoa(status)
	t.httpMu.Lock()
	c := t.httpReqs[key]
	if c == nil {
		c = t.reg.Counter("wt_http_requests_total",
			"HTTP requests served, by route pattern and status.",
			"route", route, "code", strconv.Itoa(status))
		t.httpReqs[key] = c
	}
	t.httpMu.Unlock()
	c.Inc()
}

// startSpan opens a span under a job's trace; an untraced job's span is
// nil, and the obs package's nil-receiver contract makes it a no-op.
func (t *telemetry) startSpan(trace traceCtx, parent, name string) *obs.SpanHandle {
	if trace.id == "" {
		return nil
	}
	return t.tracer.StartSpan(trace.id, parent, name)
}

// observePoint records one committed point's counters plus its span
// under the job's trace. The span reuses the outcome's measured
// Started/Elapsed, so tracing adds no clock reads to the commit path.
func (t *telemetry) observePoint(trace traceCtx, parent string, out core.PointOutcome) {
	name := "simulate"
	switch {
	case out.Pruned:
		name = "pruned"
		t.pointsPruned.Inc()
	case out.Screened:
		name = "screened"
		t.pointsScreened.Inc()
	case out.FromCache:
		name = "cache_hit"
		t.pointsCached.Inc()
	default:
		t.pointsSimulated.Inc()
		t.pointRun.Observe(out.Elapsed.Seconds())
		if out.Result != nil {
			t.simEvents.Add(out.Result.EventsTotal)
			t.simTrials.Add(uint64(out.Result.Trials))
		}
	}
	if trace.id == "" {
		return
	}
	sp := obs.Span{
		TraceID: trace.id, SpanID: t.tracer.NewSpanID(), Parent: parent,
		Name: name, Start: out.Started, Duration: out.Elapsed,
		Attrs: map[string]string{"index": strconv.Itoa(out.Index)},
	}
	if sp.Start.IsZero() {
		// Pruned points carry no local timing.
		sp.Start = time.Now()
	}
	if out.Waited > 0 {
		sp.Attrs["gate_wait"] = out.Waited.String()
	}
	t.tracer.Add(sp)
}

// statusWriter captures the response status for per-route metrics while
// passing Flush through — the NDJSON streaming contract.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// route registers a handler on mux, instrumented with the per-route
// latency histogram and request counter. pattern is the ServeMux pattern
// ("POST /v1/query"); the route label is the pattern without its method.
func (s *Server) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	label := pattern
	if _, p, ok := strings.Cut(pattern, " "); ok {
		label = p
	}
	lat := s.tel.reg.Histogram("wt_http_request_seconds",
		"HTTP request latency by route pattern (streams count until the last byte).",
		obs.DurationBuckets, "route", label)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		// Record in a defer so aborted streams (a handler that panics with
		// http.ErrAbortHandler) are still counted on their way up.
		defer func() {
			lat.Observe(time.Since(t0).Seconds())
			s.tel.observeHTTP(label, sw.status)
		}()
		h(sw, r)
	})
}

// DebugHandler returns the diagnostics mux the -pprof flag serves on a
// separate listener: net/http/pprof plus /metrics and /v1/stats, kept
// off the serving port so profiling a wedged daemon never competes with
// (or leaks onto) the query surface.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// expositionContentType is the Prometheus text format version header
// every text telemetry endpoint serves.
const expositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// noStore marks a telemetry response uncacheable. Every observability
// endpoint sets it: a scrape, a stats snapshot or an alert list served
// stale by an intermediary is worse than no answer — it reports a fleet
// state that no longer exists.
func noStore(w http.ResponseWriter) {
	w.Header().Set("Cache-Control", "no-store")
}

// handleMetrics renders the Prometheus exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	noStore(w)
	w.Header().Set("Content-Type", expositionContentType)
	s.tel.reg.WritePrometheus(w)
}

// partialHeader flags a federated fleet view that is missing at least
// one member (its last scrape failed). The body still serves everything
// known — absence is visible both here and as wt_fleet_member_up 0.
const partialHeader = "X-WT-Partial"

// handleFleetMetrics renders the merged telemetry history's latest
// samples — on a coordinator, the whole fleet per instance; elsewhere,
// this process's own sampled series. Exposition format, obs.Lint-clean.
func (s *Server) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	noStore(w)
	if s.health.Partial() {
		w.Header().Set(partialHeader, "true")
	}
	w.Header().Set("Content-Type", expositionContentType)
	s.history.WriteLatestPrometheus(w)
}

// HistoryResponse is the GET /v1/metrics/history payload: one metric's
// retained samples per series over the requested window.
type HistoryResponse struct {
	Name   string            `json:"name"`
	Window string            `json:"window"`
	Series []obs.SeriesRange `json:"series"`
}

// handleMetricsHistory answers JSON range queries over the telemetry
// history: GET /v1/metrics/history?name=wt_pool_queue_depth&window=5m.
// name may be a family or a histogram expansion (_bucket/_sum/_count);
// window defaults to 5m and is capped only by the ring depth.
func (s *Server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	noStore(w)
	name := r.URL.Query().Get("name")
	if name == "" {
		writeJSON(w, http.StatusBadRequest, ErrorEvent{Type: "error", Error: "missing name parameter"})
		return
	}
	window := 5 * time.Minute
	if v := r.URL.Query().Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeJSON(w, http.StatusBadRequest, ErrorEvent{Type: "error", Error: "bad window: want a positive Go duration like 30s"})
			return
		}
		window = d
	}
	series := s.history.Range(name, window, time.Now())
	if series == nil {
		series = []obs.SeriesRange{}
	}
	writeJSON(w, http.StatusOK, HistoryResponse{Name: name, Window: window.String(), Series: series})
}

// handleAlerts serves the alert engine's current instance set.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	noStore(w)
	writeJSON(w, http.StatusOK, s.alerts.Snapshot())
}

// buildIdentity is the version block shared by /v1/healthz and
// /v1/stats.
type buildIdentity struct {
	Version       string  `json:"version"`
	GoVersion     string  `json:"go"`
	Revision      string  `json:"revision,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) buildIdentity() buildIdentity {
	rt := obs.ReadRuntime()
	return buildIdentity{
		Version:       Version,
		GoVersion:     rt.GoVersion,
		Revision:      rt.Revision,
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
}

// ServerStats is the GET /v1/stats payload: a one-shot operational
// snapshot (build, runtime, pool, cache, jobs).
type ServerStats struct {
	Status string `json:"status"`
	buildIdentity
	Runtime obs.RuntimeStats `json:"runtime"`
	Pool    struct {
		Capacity int `json:"capacity"`
		InUse    int `json:"in_use"`
	} `json:"pool"`
	Cache Stats `json:"cache"`
	Jobs  struct {
		Running int `json:"running"`
		Total   int `json:"total"`
	} `json:"jobs"`
}

// handleStats answers GET /v1/stats. Unlike /metrics it reads live
// state, not the registry.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	noStore(w)
	var st ServerStats
	st.buildIdentity = s.buildIdentity()
	st.Runtime = obs.ReadRuntime()
	st.Pool.Capacity, st.Pool.InUse = s.pool.Cap(), s.pool.InUse()
	st.Cache = s.cache.Stats()
	s.mu.Lock()
	st.Status = "ok"
	if s.draining {
		st.Status = "draining"
	}
	st.Jobs.Total = len(s.jobs)
	for _, j := range s.jobs {
		if j.info.State == JobRunning {
			st.Jobs.Running++
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// TraceResponse is the GET /v1/jobs/{id}/trace (and /v1/trace/{id})
// payload.
type TraceResponse struct {
	Job     string     `json:"job,omitempty"`
	TraceID string     `json:"trace_id"`
	Dropped uint64     `json:"dropped_spans,omitempty"`
	Spans   []obs.Span `json:"spans"`
}

// handleTrace serves this process's local spans for a trace id — the
// peer endpoint a coordinator merges worker spans from.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans, dropped := s.tel.tracer.Spans(id)
	if spans == nil {
		writeJSON(w, http.StatusNotFound, ErrorEvent{Type: "error", Error: "no such trace"})
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{TraceID: id, Dropped: dropped, Spans: spans})
}

// handleJobTrace assembles a job's full trace tree. On a coordinator it
// merges every worker's spans for the job's trace id (best-effort: an
// unreachable worker just contributes nothing), so a fleet job answers
// with one connected tree spanning coordinator and workers.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	info, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorEvent{Type: "error", Error: "no such job"})
		return
	}
	if info.TraceID == "" {
		writeJSON(w, http.StatusNotFound, ErrorEvent{Type: "error", Error: "job has no trace"})
		return
	}
	spans, dropped := s.tel.tracer.Spans(info.TraceID)
	if s.fleet != nil {
		spans, dropped = s.mergePeerSpans(r.Context(), info.TraceID, spans, dropped)
	}
	if spans == nil {
		// The job is known but its trace is gone: the tracer's LRU evicted
		// it to admit newer jobs' traces. Distinct from "no such job" so a
		// client can report the table as fine and only the trace as lost.
		writeJSON(w, http.StatusNotFound, ErrorEvent{Type: "error", Error: "trace evicted"})
		return
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].SpanID < spans[j].SpanID
	})
	writeJSON(w, http.StatusOK, TraceResponse{
		Job: info.ID, TraceID: info.TraceID, Dropped: dropped, Spans: spans,
	})
}

// mergePeerSpans fetches every fleet worker's spans for a trace and
// appends them, de-duplicated by span id.
func (s *Server) mergePeerSpans(ctx context.Context, traceID string, spans []obs.Span, dropped uint64) ([]obs.Span, uint64) {
	seen := make(map[string]bool, len(spans))
	for _, sp := range spans {
		seen[sp.SpanID] = true
	}
	ctx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	for _, peer := range s.cfg.Peers {
		var tr TraceResponse
		if s.fleet.client.GetJSON(ctx, strings.TrimRight(peer, "/")+"/v1/trace/"+traceID, MaxReply, &tr) != nil {
			continue // best effort: this worker contributes nothing
		}
		for _, sp := range tr.Spans {
			if !seen[sp.SpanID] {
				seen[sp.SpanID] = true
				spans = append(spans, sp)
			}
		}
		dropped += tr.Dropped
	}
	return spans, dropped
}
