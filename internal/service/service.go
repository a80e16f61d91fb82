// Package service is the wind tunnel's serving layer: windtunneld. The
// paper pitches the tunnel as a tool designers query repeatedly —
// iterating over designs, SLAs and what-if scenarios — so instead of
// cold one-shot CLI runs, this package keeps a long-running process that
//
//   - accepts WTQL queries over HTTP (POST /v1/query) and streams
//     per-design-point progress and results back as NDJSON,
//   - schedules every query as a job on one shared bounded worker pool
//     (Pool), so concurrent sweeps share a single simulation budget,
//   - answers job listing and cancellation (GET /v1/jobs,
//     DELETE /v1/jobs/{id}), and
//   - reuses completed trial statistics across queries and sessions via
//     the content-addressed trial cache (Cache): any (design point,
//     scenario distributions, seed, trials, engine knobs) tuple already
//     simulated — by any job, ever — is served from memory or disk,
//     byte-identical to a fresh run.
//
// Every query takes one path (durable.go): submit admits it as a job, run
// executes it on the job's own goroutine, each event line is committed to
// the job's log, and every HTTP response — the submitting client's
// included — follows that log. The journal (Config.JournalDir) is the
// log's optional write-ahead backing: with it a job survives its client
// and a crash; without it a job dies with the connection that submitted
// it, and its stream can be replayed only for the life of the process.
//
// What the daemon writes has one reader, Client (client.go): the
// commands and a coordinator talking to its workers decode replies and
// streams into the types the handlers encode.
package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wtql"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// JobInfo is the externally-visible snapshot of one query job.
type JobInfo struct {
	ID       string    `json:"id"`
	Query    string    `json:"query"`
	State    JobState  `json:"state"`
	Created  time.Time `json:"created"`
	Finished time.Time `json:"finished,omitzero"`
	// Done/Total track committed design points of the sweep.
	Done  int `json:"done"`
	Total int `json:"total"`
	// CacheHits counts points served from the trial cache so far.
	CacheHits int    `json:"cache_hits"`
	Error     string `json:"error,omitempty"`
	// Resumed marks a job resurrected from the journal after a daemon
	// restart: its committed prefix was served from the journal, only
	// undelivered points were (re-)executed.
	Resumed bool `json:"resumed,omitempty"`
	// TraceID is the job's distributed trace id (empty for a job that
	// had finished before a restart replayed it from the journal).
	// GET /v1/jobs/{id}/trace resolves it to the span tree.
	TraceID string `json:"trace_id,omitempty"`
	// Degraded is set when a coordinator exhausted a shard's retry
	// budget (or had no assignable worker) and executed part of the
	// sweep locally. The results are still correct and byte-identical —
	// degraded flags that the fleet didn't deliver them.
	Degraded bool `json:"degraded,omitempty"`
}

// logLine is one NDJSON line of a job's event stream, newline included,
// kept in memory so late (or reconnecting) clients can replay the
// committed prefix byte-identically and then tail live.
type logLine struct {
	kind byte // 'j' job, 'p' point, 't' terminal (result or error)
	data []byte
}

// jobLog is one job's event stream: the job line, one line per committed
// point, the terminal line. It is append-only and a line is immutable
// once appended, so a follower reads the lines it was handed without the
// lock; an append wakes this job's followers and nobody else's.
type jobLog struct {
	mu     sync.Mutex
	cond   sync.Cond // on mu: broadcast on every append
	lines  []logLine
	closed bool // the terminal line has landed
}

// append makes lines visible to the job's followers. For a journaled job
// only its committer calls this, after the batch carrying the lines'
// records is fsync'd. The terminal line is the last a job commits.
func (l *jobLog) append(lines ...logLine) {
	l.mu.Lock()
	l.lines = append(l.lines, lines...)
	if lines[len(lines)-1].kind == 't' {
		l.closed = true
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// follow hands emit every line of the log from the start, leaving out
// the first `from` point lines (a resuming client's cursor), until the
// terminal line has been delivered (nil), emit fails (its error) or ctx
// ends (ctx.Err). Each look takes everything queued under one lock hold;
// flush runs when that batch has been emitted and nothing more was
// queued, so a line is never held back waiting for the next one.
func (l *jobLog) follow(ctx context.Context, from int, emit func(line []byte) error, flush func()) error {
	// Wake the cond wait below when the follower's context dies; the
	// empty critical section orders the broadcast after Wait's re-lock.
	stop := context.AfterFunc(ctx, func() {
		l.mu.Lock()
		//lint:ignore SA2001 pairing the broadcast with the waiters' lock
		l.mu.Unlock()
		l.cond.Broadcast()
	})
	defer stop()

	idx, pts := 0, 0
	for {
		l.mu.Lock()
		for idx == len(l.lines) && !l.closed && ctx.Err() == nil {
			l.cond.Wait()
		}
		batch, closed := l.lines[idx:], l.closed
		l.mu.Unlock()
		if len(batch) == 0 && !closed {
			return ctx.Err()
		}
		idx += len(batch)
		for _, ln := range batch {
			if ln.kind == 'p' {
				if pts++; pts <= from {
					continue
				}
			}
			if err := emit(ln.data); err != nil {
				return err
			}
		}
		flush()
		if closed {
			return nil
		}
	}
}

// job is the internal job record.
type job struct {
	info   JobInfo // guarded by Server.mu
	cancel context.CancelFunc
	log    jobLog

	// jj is the job's journal, set once (under Server.mu) before the job
	// runs: lines reach the log through its committer, after their records
	// are fsync'd. nil means nothing backs the log — journaling is off, or
	// the job is a fleet shard (the coordinator owns client-facing
	// durability): lines are appended directly and the job is abandoned
	// (under Server.mu) — cancelled, its stream withdrawn — if its
	// submitting client leaves before it finishes.
	jj        *JobJournal
	abandoned bool

	// trace/root are the job's distributed-trace identity: set once in
	// newJob (before any worker goroutine exists) and read-only after,
	// so commit paths read them without the registry lock.
	trace traceCtx
	root  *obs.SpanHandle
}

// Config configures a Server.
type Config struct {
	// Trials is the default per-configuration trial count (a query's
	// WITH trials = n overrides it). <= 0 means 5, matching the CLI.
	Trials int
	// PoolSize bounds concurrently-simulating design points across all
	// jobs (<= 0 = GOMAXPROCS).
	PoolSize int
	// CacheEntries bounds the trial cache's memory tier
	// (<= 0 = DefaultCacheEntries).
	CacheEntries int
	// CacheDir, when non-empty, enables the cache's disk tier.
	CacheDir string
	// Peers is the fleet member list (worker URLs). Every fleet member —
	// workers and coordinator — is configured with the same list, so the
	// whole fleet agrees on the consistent-hash owner of every cache
	// key. On a worker it enables cache peering; on a coordinator it is
	// the set of workers queries shard across.
	Peers []string
	// Self is this worker's own URL within Peers. Required for a worker
	// with Peers set (it anchors ring ownership and stops a worker from
	// peer-fetching from itself); ignored in coordinator mode.
	Self string
	// Coordinator switches the server into fleet-coordinator mode:
	// POST /v1/query shards the sweep's design points across Peers by
	// consistent-hashing each point's core.CacheKey, streams the merged
	// per-point events in global point order, and assembles the same
	// table a single daemon would have produced, byte for byte. MONOTONE
	// (pruned) sweeps fall back to local execution — pruning decisions
	// depend on the whole committed prefix, so they are not shardable.
	Coordinator bool
	// StreamIdleTimeout is the coordinator's per-stream liveness
	// deadline: a worker stream delivering no NDJSON event for this
	// long is failed over (<= 0 = 2m).
	StreamIdleTimeout time.Duration
	// MaxShardRetries bounds how many workers a shard may fail over
	// across before its remainder degrades to coordinator-local
	// execution (<= 0 = 3).
	MaxShardRetries int
	// HistoryInterval is the telemetry round period (<= 0 = 2s). Each
	// round snapshots the registry into the in-process time-series store
	// (obs.DefaultHistoryDepth samples per series), polls the fleet
	// members (healthz, and on a coordinator their /metrics), and
	// evaluates the alert rules.
	HistoryInterval time.Duration
	// JournalDir, when non-empty, makes jobs crash-durable: every
	// client-facing query is write-ahead journaled (query, one record per
	// committed point with its cache key, terminal record — group
	// committed, each fsync'd before its event is visible) and outlives
	// its client connection; after a crash, Recover replays the directory
	// and resumes incomplete jobs. Empty means no journal: the same
	// pipeline and the same bytes on the wire, but a job is cancelled when
	// its submitting client leaves and is forgotten when the process
	// exits. Either way a retained job's stream can be followed again via
	// GET /v1/jobs/{id}/stream?from=N.
	JournalDir string
}

// Server owns the shared pool, the trial cache and the job registry. Its
// HTTP interface is exposed via Handler.
type Server struct {
	cfg     Config
	pool    *Pool
	cache   *Cache
	plans   *planMemo // the kept plans of repeated queries (plans.go)
	fleet   *fleet    // non-nil in coordinator mode
	health  *Health   // the member poller, non-nil whenever Peers is configured
	journal *Journal  // non-nil when Config.JournalDir is set
	tel     *telemetry
	history *obs.History // telemetry history store
	alerts  *alertEngine // rule evaluation over history
	// stopRounds cancels the telemetry round loop; roundsDone closes when
	// it exits.
	stopRounds context.CancelFunc
	roundsDone chan struct{}
	started    time.Time
	now        func() time.Time
	// pointGate, when set (tests only), is called before each point is
	// committed, with its index, and before the terminal line, with the
	// number of points committed — the hook crash tests use to freeze a
	// job at an exact committed-point count before simulating kill -9.
	pointGate func(index int)
	// stage, when set (tests only), is told as a job enters "parse" and
	// "plan", so a test can count that each happens at most once per job,
	// and not at all for a job whose plan was kept.
	stage func(name string)

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // insertion order, for stable listings
	nextID   int
	draining bool
}

// New builds a Server.
func New(cfg Config) (*Server, error) {
	if err := mkdirs(cfg.CacheDir, cfg.JournalDir); err != nil {
		return nil, err
	}
	return newServer(cfg, osDisk)
}

// newServer builds a Server whose durable logs live on d.
func newServer(cfg Config, d disk) (*Server, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 5
	}
	cache, err := newCache(cfg.CacheEntries, cfg.CacheDir, d)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		pool:    NewPool(cfg.PoolSize),
		cache:   cache,
		plans:   newPlanMemo(cache.maxEntries),
		started: time.Now(),
		now:     time.Now,
		jobs:    make(map[string]*job),
	}
	worker := "local"
	switch {
	case cfg.Coordinator:
		worker = "coordinator"
	case cfg.Self != "":
		worker = cfg.Self
	}
	s.tel = newTelemetry(worker)
	s.pool.instrument(
		s.tel.reg.Histogram("wt_pool_wait_seconds",
			"Time a design point waited for a free pool slot (contended acquires only).",
			obs.DurationBuckets),
		s.tel.reg.Gauge("wt_pool_queue_depth",
			"Design points currently waiting for a pool slot."))
	if cfg.JournalDir != "" {
		s.journal, err = openJournal(d, cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		s.journal.instrument(s.tel.journalAppends, s.tel.journalFsync)
		// Continue job numbering past every journaled job so a restarted
		// daemon never reuses a journaled id.
		s.nextID = s.journal.maxSeq
	}
	switch {
	case cfg.Coordinator:
		if len(cfg.Peers) == 0 {
			return nil, fmt.Errorf("service: coordinator mode needs at least one worker in Peers")
		}
		s.health = NewHealth(cfg.Peers)
		s.fleet = newFleet(cfg.Peers, s.health, cfg.StreamIdleTimeout, cfg.MaxShardRetries)
	case len(cfg.Peers) > 0:
		if cfg.Self == "" {
			return nil, fmt.Errorf("service: cache peering needs Self, this worker's URL within Peers")
		}
		found := false
		var others []string
		for _, p := range cfg.Peers {
			if p == cfg.Self {
				found = true
			} else {
				others = append(others, p)
			}
		}
		if !found {
			return nil, fmt.Errorf("service: Self %q is not in Peers %v", cfg.Self, cfg.Peers)
		}
		// A worker health-checks the peers it may fetch from (everyone
		// but itself) so a down peer is skipped immediately on a cache
		// miss instead of eating a connect timeout per key.
		s.health = NewHealth(others)
		cache.EnablePeering(cfg.Peers, cfg.Self, nil)
		cache.SetHealth(s.health)
	}
	s.tel.bind(s)
	s.history = obs.NewHistory(obs.DefaultHistoryDepth)
	s.alerts = newAlertEngine(s.history)
	if cfg.Coordinator {
		s.health.scrape = true
	}
	interval := cfg.HistoryInterval
	if interval <= 0 {
		interval = obs.DefaultSampleInterval
	}
	var ctx context.Context
	ctx, s.stopRounds = context.WithCancel(context.Background())
	s.roundsDone = make(chan struct{})
	go s.runRounds(ctx, interval)
	return s, nil
}

// runRounds is the server's one background telemetry loop: a round now,
// then one per interval, until ctx is cancelled.
func (s *Server) runRounds(ctx context.Context, interval time.Duration) {
	defer close(s.roundsDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	s.round(ctx, time.Now())
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-ticker.C:
			s.round(ctx, now)
		}
	}
}

// round is one telemetry round at now: ingest this server's own
// registry (labelled the way its spans are), poll the members — healthz,
// plus /metrics and wt_fleet_member_up on a coordinator — storing every
// sample at now, then evaluate the alert rules over the result. A round
// cut short by ctx stops after the poll.
func (s *Server) round(ctx context.Context, now time.Time) {
	s.history.Ingest(s.tel.reg.Snapshot(), s.tel.instance, now)
	if s.health != nil {
		scrapes := s.health.Probe(ctx)
		if ctx.Err() != nil {
			return
		}
		if s.health.scrape {
			s.health.ingest(s.history, scrapes, now)
		}
	}
	s.alerts.evaluate(now)
}

// Close stops the telemetry round loop, cancelling any member request
// in flight, and waits for the journal and the disk tier to flush what
// is queued, so no batch is left in flight. It does not wait for running
// jobs — that is BeginDrain plus WaitJobs' business.
func (s *Server) Close() {
	s.stopRounds()
	<-s.roundsDone
	if s.journal != nil {
		s.journal.log.sync()
	}
	s.cache.disk.sync()
}

// markDegraded flags a job as partially coordinator-served.
func (s *Server) markDegraded(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !j.info.Degraded {
		s.tel.degradedJobs.Inc()
	}
	j.info.Degraded = true
}

// Cache exposes the trial cache (for stats and tests).
func (s *Server) Cache() *Cache { return s.cache }

// Pool exposes the shared worker pool.
func (s *Server) Pool() *Pool { return s.pool }

// BeginDrain stops admission: subsequent queries are rejected with 503
// while already-running jobs stream to completion (http.Server.Shutdown
// provides the actual wait).
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// CancelAll force-cancels every running job (used when the drain window
// expires).
func (s *Server) CancelAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if j.info.State == JobRunning {
			j.cancel()
		}
	}
}

// unsettled reports whether a job's terminal line is still to come: it
// is running, or its terminal record is on the way to the disk.
func (j *job) unsettled() bool {
	j.log.mu.Lock()
	defer j.log.mu.Unlock()
	return !j.log.closed
}

// WaitJobs blocks until every job's log has its terminal line — for a
// journaled job, the terminal record flushed and its line released — or
// ctx expires, reporting whether the registry drained. Journaled jobs
// outlive their client connections, so http.Server.Shutdown (which only
// waits for open connections) does not imply the work is done — the
// drain path must wait on the jobs themselves.
func (s *Server) WaitJobs(ctx context.Context) bool {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	// Waiting for a job is following its log to the end.
	for _, j := range jobs {
		if j.log.follow(ctx, 0, func([]byte) error { return nil }, func() {}) != nil {
			return false
		}
	}
	return true
}

// maxRetainedJobs bounds the job registry: finished jobs beyond this
// count are evicted oldest-first, so a long-running daemon's memory
// does not grow with total queries served — an evicted job's log goes
// with it. Running jobs — and journaled ones whose terminal record is
// still being flushed — are never evicted.
const maxRetainedJobs = 1024

// newJob registers a running job and returns it with the context its
// sweep must run under. tr is the job's position in a distributed trace:
// zero for a locally-originated job (a fresh trace id is minted),
// carrying a parent span when a remote coordinator propagated one via
// X-WT-Trace.
func (s *Server) newJob(query string, tr traceCtx) (*job, context.Context, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		cancel()
		return nil, nil, fmt.Errorf("service: draining, not accepting new queries")
	}
	s.nextID++
	id := "job-" + strconv.Itoa(s.nextID)
	j := &job{
		info: JobInfo{
			ID: id, Query: query, State: JobRunning, Created: s.now(),
		},
		cancel: cancel,
	}
	s.registerLocked(j, tr)
	return j, ctx, nil
}

// registerLocked enters j in the registry at position tr of a trace: a
// running job gets its trace id and root span. Caller holds s.mu.
func (s *Server) registerLocked(j *job, tr traceCtx) {
	if j.info.State == JobRunning {
		rootName := "job"
		if tr.id == "" {
			tr.id = s.tel.tracer.NewTraceID()
		} else if tr.parent != "" {
			// A coordinator opened this trace; our root is the worker-side
			// subtree under the coordinator's shard span.
			rootName = "worker"
		}
		j.trace = tr
		j.root = s.tel.startSpan(tr, tr.parent, rootName).Attr("job", j.info.ID)
		j.info.TraceID = tr.id
	}
	j.log.cond.L = &j.log.mu
	s.jobs[j.info.ID] = j
	s.order = append(s.order, j.info.ID)
	s.evictFinishedLocked()
}

// evictFinishedLocked trims the registry to maxRetainedJobs by dropping
// the oldest finished jobs. Caller holds s.mu.
func (s *Server) evictFinishedLocked() {
	for len(s.order) > maxRetainedJobs {
		evicted := false
		for i, id := range s.order {
			if !s.jobs[id].unsettled() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				if s.journal != nil {
					s.journal.log.drop(id)
				}
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything retained is still running
		}
	}
}

// progress updates a job's per-point counters. It is the single choke
// point every committed point passes through — wherever the point ran —
// which makes it the one true home of the committed-points counter.
func (s *Server) progress(j *job, done, total int, fromCache bool) {
	s.tel.pointsCommitted.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	j.info.Done, j.info.Total = done, total
	if fromCache {
		j.info.CacheHits++
	}
}

// finish records a job's terminal state and returns the job as it ended.
func (s *Server) finish(j *job, err error) JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel() // release the context either way
	j.info.Finished = s.now()
	switch {
	case err == nil:
		j.info.State = JobDone
		s.tel.jobsDone.Inc()
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.info.State = JobCancelled
		j.info.Error = err.Error()
		s.tel.jobsCancelled.Inc()
	default:
		j.info.State = JobFailed
		j.info.Error = err.Error()
		s.tel.jobsFailed.Inc()
	}
	j.root.Attr("state", string(j.info.State)).End()
	return j.info
}

// Cancel cancels a running job. It reports whether the id was known.
func (s *Server) Cancel(id string) (JobInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	if j.info.State == JobRunning {
		j.cancel()
	}
	return j.info, true
}

// Job returns a job snapshot.
func (s *Server) Job(id string) (JobInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	return j.info, true
}

// Jobs returns all job snapshots, newest first. s.order is admission
// order, so newest-first is exactly its reverse — sorting on Created
// was not only wasted work but wrong: SliceStable kept same-tick jobs
// (Created values are wall-clock, equal within a tick) in forward
// order, listing the oldest of a burst first.
func (s *Server) Jobs() []JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobInfo, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		out = append(out, s.jobs[s.order[i]].info)
	}
	return out
}

// engine builds a WTQL engine wired to the shared pool and cache. Every
// engine a server builds is the same but for the trials default a request
// may override, which is why a plan can be kept per (query, trials).
func (s *Server) engine() *wtql.Engine {
	return &wtql.Engine{
		Trials: s.cfg.Trials,
		// One gate slot ~ one simulating design point: within a point,
		// trials run sequentially so the pool is the only parallelism
		// knob and the daemon never oversubscribes the host.
		TrialWorkers: 1,
		Workers:      s.pool.Cap(),
		Cache:        s.cache,
		Gate:         s.pool,
	}
}
