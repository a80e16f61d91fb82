package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/wtql"
)

// QueryRequest is the POST /v1/query body (application/json). A
// text/plain body is accepted too and treated as the bare query text.
type QueryRequest struct {
	Query string `json:"query"`
	// Trials overrides the server's default per-configuration trial
	// count (a WITH trials = n clause in the query still wins).
	Trials int `json:"trials,omitempty"`
	// Points, when non-empty, restricts execution to these global
	// design-point indices (strictly ascending, or the request is
	// refused) — the shard a fleet coordinator assigns this worker.
	// Streamed point events carry the global index so the coordinator
	// can merge shards back into full point order.
	Points []int `json:"points,omitempty"`
	// From is the client's resume cursor on a re-submitted query: the
	// number of point events it already received from a previous
	// (crashed) server, which this server must not replay. The sweep
	// still executes in full — completed points are trial-cache (or
	// journal) hits — so the final table is byte-identical; only the
	// stream starts at point From+1. Every daemon honours it: wtql
	// re-submits with from=<received> to a restarted daemon that kept no
	// journal, or to the next -peers coordinator after a takeover.
	From int `json:"from,omitempty"`
}

// Stream event types, one JSON object per NDJSON line:
//
//	{"type":"job", ...JobEvent}     first line: the job was admitted
//	{"type":"point", ...PointEvent} one per committed design point
//	{"type":"result", ...ResultEvent} last line on success
//	{"type":"error","error":"..."}  last line on failure
//
// encode.go writes them; Client (client.go) is the one reader, for the
// commands and the coordinator alike.
type JobEvent struct {
	Type string `json:"type"`
	ID   string `json:"id"`
}

// PointEvent reports one committed design point. Index is the point's
// global position in the sweep's point order (== Done-1 on a full
// sweep, the coordinator's merge key on a sharded one); Trials and
// Events carry enough of the point's result over the wire for a
// coordinator to re-assemble the exact single-daemon table. Worker is
// set only on coordinator-merged streams: the URL of the worker that
// served the point.
type PointEvent struct {
	Type     string             `json:"type"`
	Done     int                `json:"done"`
	Total    int                `json:"total"`
	Index    int                `json:"index"`
	Config   map[string]string  `json:"config"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Trials   int                `json:"trials,omitempty"`
	Events   uint64             `json:"events,omitempty"`
	Pruned   bool               `json:"pruned,omitempty"`
	Screened bool               `json:"screened,omitempty"`
	Cached   bool               `json:"cached,omitempty"`
	AllMet   bool               `json:"all_met"`
	Worker   string             `json:"worker,omitempty"`
	// Degraded marks a point the coordinator executed locally after
	// exhausting the owning shard's retry budget.
	Degraded bool `json:"degraded,omitempty"`
}

// ResultEvent carries the final result set. Table is the same aligned
// text table the CLI renders, so a client can print byte-identical
// output to a local run.
type ResultEvent struct {
	Type      string     `json:"type"`
	ID        string     `json:"id"`
	Columns   []string   `json:"columns"`
	Rows      []wtql.Row `json:"rows"`
	Executed  int        `json:"executed"`
	Pruned    int        `json:"pruned"`
	Screened  int        `json:"screened"`
	CacheHits int        `json:"cache_hits"`
	Table     string     `json:"table"`
	// Degraded reports whether any part of the sweep ran
	// coordinator-local after shard failover was exhausted. Always
	// serialized (not omitempty) so clients and smoke tests can assert
	// on it either way.
	Degraded bool `json:"degraded"`
}

// ErrorEvent terminates a stream on failure.
type ErrorEvent struct {
	Type  string `json:"type"`
	Error string `json:"error"`
}

// HealthzResponse is the GET /v1/healthz payload.
type HealthzResponse struct {
	Status       string `json:"status"` // "ok" or "draining"
	AlertsFiring int    `json:"alerts_firing"`
	buildIdentity
}

// FleetResponse is the GET /v1/fleet payload.
type FleetResponse struct {
	Mode    string         `json:"mode"` // "single", "worker" or "coordinator"
	Self    string         `json:"self,omitempty"`
	Members []MemberHealth `json:"members"`
}

// CacheResponse is the GET /v1/cache payload.
type CacheResponse struct {
	Stats
	HitRate float64 `json:"hit_rate"`
	PoolCap int     `json:"pool_capacity"`
	PoolUse int     `json:"pool_in_use"`
}

// Handler returns the daemon's HTTP interface. Serving routes are
// registered through route() for per-route metrics; the observability
// endpoints themselves (/v1/healthz, /v1/stats, /metrics, the
// federated/history views and /v1/alerts) stay un-instrumented so
// health probes and scrapes do not feed back into the request metrics
// they read.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "POST /v1/query", s.handleQuery)
	s.route(mux, "GET /v1/jobs", s.handleJobs)
	s.route(mux, "GET /v1/jobs/{id}", s.handleJob)
	s.route(mux, "GET /v1/jobs/{id}/stream", s.handleStream)
	s.route(mux, "GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.route(mux, "DELETE /v1/jobs/{id}", s.handleCancel)
	s.route(mux, "GET /v1/cache", s.handleCache)
	s.route(mux, "GET /v1/cache/{key}", s.handleCacheEntry)
	s.route(mux, "GET /v1/fleet", s.handleFleet)
	s.route(mux, "GET /v1/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/metrics/fleet", s.handleFleetMetrics)
	mux.HandleFunc("GET /v1/metrics/history", s.handleMetricsHistory)
	mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	return mux
}

// handleHealthz answers liveness probes. A draining server still
// answers 200 — it is alive and finishing work — but says so, and the
// fleet health monitor maps "draining" to suspect: no new shards, no
// hard failure. The body also carries the build identity so an operator
// (or wtload) can tell which binary answered during a rolling upgrade,
// and the firing-alert count so readiness tooling can see SLO state
// without a second request. Status stays "ok"/"draining" regardless —
// the fleet health monitor treats any other status as a probe failure,
// and a firing alert must not cascade into shard failover.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	noStore(w)
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, HealthzResponse{status, s.alerts.FiringCount(), s.buildIdentity()})
}

// handleFleet exposes fleet membership and per-member health state.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	mode := "single"
	switch {
	case s.cfg.Coordinator:
		mode = "coordinator"
	case len(s.cfg.Peers) > 0:
		mode = "worker"
	}
	var members []MemberHealth
	if s.health != nil {
		members = s.health.Snapshot()
	}
	if members == nil {
		members = []MemberHealth{}
	}
	writeJSON(w, http.StatusOK, FleetResponse{mode, s.cfg.Self, members})
}

// handleQuery admits the posted query as a job and follows it, as any
// later GET /v1/jobs/{id}/stream would: the handler writes nothing of its
// own. req.From leaves out the point events a previous server already
// delivered to this client.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := decodeQueryRequest(r)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errBodyTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, ErrorEvent{Type: "error", Error: err.Error()})
		return
	}
	j, err := s.submit(req, parseTraceHeader(r))
	if err != nil {
		// Draining: refuse before anything streams.
		writeJSON(w, http.StatusServiceUnavailable, ErrorEvent{Type: "error", Error: err.Error()})
		return
	}
	defer s.abandon(j) // if this client leaves and no journal vouches for the job
	s.streamJob(w, r, j, req.From)
}

// handleStream follows a job's NDJSON stream again:
// GET /v1/jobs/{id}/stream?from=N replays the committed prefix from
// point event N+1 byte-identically, then tails live until the terminal
// line. from=0 (or omitted) replays the whole stream. A job the daemon
// does not hold — never admitted, evicted, abandoned by its client, or
// lost with a previous process that kept no journal — answers 404: the
// client's cue to re-POST the query with its cursor.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	from, err := parseFrom(r.URL.Query().Get("from"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorEvent{Type: "error", Error: err.Error()})
		return
	}
	j := s.followable(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, ErrorEvent{Type: "error", Error: ErrUnknownJob.Error()})
		return
	}
	s.streamJob(w, r, j, from)
}

// parseFrom reads a stream cursor: a count of point events already
// received. Empty means none.
func parseFrom(v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, errors.New("bad from: want a non-negative integer")
	}
	return n, nil
}

// streamJob follows a job's log onto the response — the only code that
// writes a stream. One Write per event line: an abort (or a test's cut)
// lands between events, never inside one, and a cut after N writes
// assumes one write == one delivered event. One Flush per batch of lines
// the log had queued: progress stays live, and a reply whose lines were
// all there costs one.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *job, from int) {
	if from > 0 {
		s.tel.streamResumes.Inc()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flush := func() {}
	if flusher, ok := w.(http.Flusher); ok {
		flush = flusher.Flush
	}
	// The follower's error is the client's departure: nobody to tell.
	_ = j.log.follow(r.Context(), from, func(line []byte) error {
		_, err := w.Write(line)
		return err
	}, flush)
}

// pointEvent describes a committed point on the wire. config is the
// point's formatted assignments — wtql.Plan.Config, the map its table row
// shares.
func pointEvent(config map[string]string, done, total int, out core.PointOutcome) PointEvent {
	ev := PointEvent{
		Type: "point", Done: done, Total: total,
		Index:    out.Index,
		Config:   config,
		Pruned:   out.Pruned,
		Screened: out.Screened,
		Cached:   out.FromCache,
		AllMet:   out.AllMet,
	}
	if out.Result != nil {
		ev.Metrics = out.Result.Metrics
		ev.Trials = out.Result.Trials
		ev.Events = out.Result.EventsTotal
	}
	return ev
}

// maxQueryBody bounds a POST /v1/query body. Oversized bodies are
// rejected with 413, not silently truncated: the old io.LimitReader cut
// a too-large JSON body at the limit, which then failed to parse as a
// confusing 400 — or, for a text/plain query, executed a prefix of what
// the client sent.
const maxQueryBody = 1 << 20

var errBodyTooLarge = fmt.Errorf("service: request body exceeds %d bytes", maxQueryBody)

func decodeQueryRequest(r *http.Request) (QueryRequest, error) {
	defer r.Body.Close()
	// Read one byte past the limit so over-limit bodies are detected
	// rather than truncated.
	body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBody+1))
	if err != nil {
		return QueryRequest{}, fmt.Errorf("service: reading request: %w", err)
	}
	if len(body) > maxQueryBody {
		return QueryRequest{}, errBodyTooLarge
	}
	var req QueryRequest
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		if err := json.Unmarshal(body, &req); err != nil {
			return QueryRequest{}, fmt.Errorf("service: bad request JSON: %w", err)
		}
	} else {
		req.Query = string(body)
	}
	switch {
	case strings.TrimSpace(req.Query) == "":
		return QueryRequest{}, fmt.Errorf("service: empty query")
	case req.Trials < 0:
		return QueryRequest{}, fmt.Errorf("service: bad trials %d: want a positive count, or 0 for the default", req.Trials)
	case req.From < 0:
		return QueryRequest{}, fmt.Errorf("service: bad from %d: want a non-negative count of point events", req.From)
	}
	for i, p := range req.Points {
		if p < 0 || (i > 0 && p <= req.Points[i-1]) {
			return QueryRequest{}, fmt.Errorf("service: bad points %v: want strictly ascending non-negative indices", req.Points)
		}
	}
	return req, nil
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	info, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorEvent{Type: "error", Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	info, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorEvent{Type: "error", Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	writeJSON(w, http.StatusOK, CacheResponse{st, st.HitRate(), s.pool.Cap(), s.pool.InUse()})
}

// handleCacheEntry serves one cached trial result by key — the peering
// endpoint workers fetch from on a local miss. It answers from the
// local memory+disk tiers only (Peek), so mutually-peered workers never
// chain fetches.
func (s *Server) handleCacheEntry(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validCacheKey(key) {
		writeJSON(w, http.StatusNotFound, ErrorEvent{Type: "error", Error: "no such cache entry"})
		return
	}
	res, ok := s.cache.Peek(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorEvent{Type: "error", Error: "no such cache entry"})
		return
	}
	writeJSON(w, http.StatusOK, recordFrom(res))
}

// validCacheKey accepts exactly the hex SHA-256 fingerprints
// core.CacheKey produces; anything else (in particular path-traversal
// attempts against the disk tier) is a 404.
func validCacheKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
