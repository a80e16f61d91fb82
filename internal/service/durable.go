package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wtql"
)

// This file is the job pipeline. Every query — a client's, a fleet shard
// on a worker, a coordinator's sharded sweep, a job resurrected from the
// journal — is admitted by submit (or restoreJob), executed by run on the
// job's own goroutine, and written line by line to the job's log through
// commit; every reader of a job, the submitting HTTP client included,
// follows that log. Where a point runs — this server's engine or the
// fleet (fleet.go) — is the only thing that differs, and core.Explorer
// asks it point by point: answer resumes, commits, re-sends and assembles
// the same way for both.
//
// A line is built once per answer, not once per job. A whole run of a
// kept plan (plans.go) commits its plan's kept point lines while its
// outcomes match the ones they were built from, and when all match it
// re-sends the kept result line under its own id: the rows are assembled
// and the table rendered only for outcomes that differ, and that answer is
// kept in turn. Every line, kept or fresh, passes through commit the same
// way: the journal record, the span, the test gate.
//
// A job never waits for the disk. When a journal backs the log, commit
// queues each line behind its journal record and carries on; the
// journal's committer (log.go) fsyncs whatever every job has queued as
// one batch and only then appends each job's lines, in order, to its
// log. That is the write-ahead discipline: a client that has seen N point
// events can always resume with from=N after a crash — the daemon cannot
// have forgotten an event it delivered. If the journal breaks mid-job
// (disk full, file gone) the committer keeps releasing lines in order,
// non-durably: the job finishes normally and recovery sees a clean
// prefix. Without a journal a line is visible the moment it is committed,
// and lost with the process.

// ErrUnknownJob reports a Follow on an id the registry does not hold (or
// no longer holds).
var ErrUnknownJob = errors.New("service: no such job")

// Submit admits a query as a job: it starts executing immediately on its
// own goroutine, independent of any connection, journaled when the
// journal is enabled and this is not a fleet-shard request. The returned
// id can be streamed — repeatedly, concurrently, resumably — via Follow.
func (s *Server) Submit(req QueryRequest) (string, error) {
	j, err := s.submit(req, traceCtx{})
	if err != nil {
		return "", err
	}
	return j.info.ID, nil
}

// submit is Submit plus the trace position a remote coordinator
// propagated (zero for client-originated jobs).
func (s *Server) submit(req QueryRequest, tr traceCtx) (*job, error) {
	j, ctx, err := s.newJob(req.Query, tr)
	if err != nil {
		return nil, err
	}
	id := j.info.ID // immutable once registered
	if s.journal != nil && req.Points == nil {
		jj, _ := s.journal.Begin(id, req.Query, req.Trials, j.info.Created)
		s.attachJournal(j, jj)
	}
	// The job line rides behind the begin record: the id is not announced
	// before the journal can resurrect it.
	s.commit(j, journalRecord{}, logLine{'j', jobLine(id)}, nil)
	go s.run(ctx, j, req, nil)
	return j, nil
}

// attachJournal makes jj the job's journal: every line queued on it is
// appended to the job's log once its batch is durable.
func (s *Server) attachJournal(j *job, jj *JobJournal) {
	jj.releaseTo(func(lines []logLine) { j.log.append(lines...) })
	s.mu.Lock()
	j.jj = jj
	s.mu.Unlock()
}

// commit adds one line to a job's stream: queued behind rec on the job's
// journal, to become visible once rec is durable, or appended to the log
// directly when no (open) journal backs it. span, when non-nil, ends with
// the fsync that covers rec.
func (s *Server) commit(j *job, rec journalRecord, line logLine, span *obs.SpanHandle) {
	if _, ok := j.jj.enqueue(rec, line, span); !ok {
		j.log.append(line)
	}
}

// followable returns the job whose stream id names, or nil: unknown,
// evicted, or abandoned by the only client that could have wanted it.
func (s *Server) followable(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok && !j.abandoned {
		return j
	}
	return nil
}

// Follow streams a job's NDJSON lines (without their newlines) to emit:
// the committed prefix is replayed byte-identically (skipping the first
// `from` point events — the client's resume cursor), then the live tail
// until the terminal line. It returns nil once the terminal line has been
// delivered, emit's error if emit fails, or ctx.Err on cancellation.
func (s *Server) Follow(ctx context.Context, id string, from int, emit func(line []byte) error) error {
	j := s.followable(id)
	if j == nil {
		return ErrUnknownJob
	}
	return j.log.follow(ctx, from, func(line []byte) error { return emit(line[:len(line)-1]) }, func() {})
}

// abandon is called when a job's submitting client is done with it. A
// job still running then has lost its client; with no journal nothing
// would bring it back after a crash, so nothing keeps it running now: it
// is cancelled and its stream withdrawn — the client that comes back is
// told 404, as for any job the daemon no longer has, and re-submits the
// query with its cursor.
func (s *Server) abandon(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.jj == nil && j.info.State == JobRunning {
		j.cancel()
		j.abandoned = true
	}
}

// jobLine is the first line of job id's stream.
func jobLine(id string) []byte {
	var enc eventEncoder
	return enc.encodeJob(JobEvent{Type: "job", ID: id})
}

// run executes a job to completion on its own goroutine: the query's
// points are committed to the job's log as they finish, the job's
// terminal state is recorded, and the terminal line closes the log.
// resume, when non-empty, is the committed prefix a recovered job's
// journal already holds.
func (s *Server) run(ctx context.Context, j *job, req QueryRequest, resume []RecoveredPoint) {
	// One encoder for the job's events, each copied out of its buffer at
	// its exact size, newline included: the copy is what the journal
	// record, the log and every follower share.
	enc := encoders.Get().(*eventEncoder)
	defer encoders.Put(enc)
	rs, rr, err := s.answer(ctx, j, req, resume, enc)
	info := s.finish(j, err)

	var encoded []byte
	var failure error
	if tail := rr.keptResult(); tail != nil {
		encoded = enc.encodeResent(info.ID, tail)
	} else {
		encoded, failure = enc.encodeTerminal(info.ID, rs, info.Degraded, err)
	}
	line := bytes.Clone(encoded)
	if failure == nil {
		rr.keep(info.ID, line)
	}
	status, errMsg := "done", ""
	if failure != nil {
		status, errMsg = "failed", failure.Error()
		if info.State == JobCancelled {
			status = "cancelled"
		}
	}
	if gate := s.pointGate.Load(); gate != nil {
		(*gate)(info.Done)
	}
	s.commit(j, endRecord(status, errMsg, line), logLine{'t', line}, nil)
}

// emitPoint encodes ev with enc and commits the line, which it returns. A
// point whose metrics cannot be encoded (NaN, ±Inf) is left out of the
// stream and the journal, and emitPoint returns nil.
func (s *Server) emitPoint(j *job, enc *eventEncoder, ev PointEvent, key string) []byte {
	encoded, err := enc.encodePoint(&ev)
	if err != nil {
		return nil
	}
	line := bytes.Clone(encoded)
	s.commitPoint(j, ev.Index, key, line)
	return line
}

// commitPoint commits the line of the point at index, whose cache key is
// key when the job is journaled.
func (s *Server) commitPoint(j *job, index int, key string, line []byte) {
	if gate := s.pointGate.Load(); gate != nil {
		(*gate)(index)
	}
	// The journal_append span runs from here to the fsync that covers the
	// record.
	var sp *obs.SpanHandle
	if j.jj != nil {
		sp = s.tel.startSpan(j.trace, j.root.ID(), "journal_append").
			Attr("index", strconv.Itoa(index))
	}
	s.commit(j, pointRecord(index, key, line), logLine{'p', line}, sp)
}

// answer is the query itself: plan (plans.go), then run the points —
// wherever executor says, the fleet's workers on a coordinator — and
// commit each outcome as it arrives, in point order, with its cache key,
// except the first len(resume), which the journal already holds. A whole
// run also returns its resend: when that re-sends the kept answer whole,
// the result set is nil, for the kept result line stands in for it.
func (s *Server) answer(ctx context.Context, j *job, req QueryRequest, resume []RecoveredPoint,
	enc *eventEncoder) (*wtql.ResultSet, *resend, error) {
	kp, err := s.plan(j, req)
	if err != nil {
		return nil, nil, err
	}
	plan := kp.plan
	prefix, err := journaledPrefix(plan, resume)
	if err != nil {
		return nil, nil, err
	}
	// Only a journal record needs a point's cache key.
	var keys []string
	if j.jj != nil {
		if keys, err = plan.PointKeys(); err != nil {
			return nil, nil, err
		}
	}
	// done and total count the points this job commits: the plan's, or
	// its shard's.
	k := len(prefix)
	subset, total := req.Points, plan.NumPoints()
	if subset != nil {
		total = len(subset)
	}
	outcomes := make([]core.PointOutcome, 0, total)
	var rr *resend
	if k == 0 && subset == nil {
		rr = newResend(kp)
	}
	// commit takes the job's next outcome.
	commit := func(out core.PointOutcome) {
		// A point is observed where it runs: a worker observes its shard's.
		if out.Worker == "" || out.Worker == localWorker {
			s.tel.observePoint(j.trace, j.root.ID(), out)
		}
		outcomes = append(outcomes, out)
		done := len(outcomes)
		s.progress(j, done, total, out.FromCache)
		if done <= k {
			return
		}
		key := ""
		if keys != nil {
			key = keys[out.Index]
		}
		if line := rr.keptLine(done-1, &out); line != nil {
			s.commitPoint(j, out.Index, key, line)
			return
		}
		ev := pointEvent(plan.Config(out.Index), done, total, out)
		rr.add(&out, s.emitPoint(j, enc, ev, key))
	}
	if k > 0 && !plan.Pruned() {
		// Resuming a plain sweep: the journaled prefix is final. Execute
		// only the undelivered tail and assemble the table over prefix +
		// tail.
		outcomes = append(outcomes, prefix...)
		subset = make([]int, 0, total-k)
		for i := k; i < total; i++ {
			subset = append(subset, i)
		}
	}
	// Otherwise the whole sweep, or the shard. Resuming a MONOTONE sweep
	// re-runs it in full — dominance decisions depend on the whole
	// committed prefix, it is deterministic, and every previously-simulated
	// point is a trial-cache hit — without emitting again the k events the
	// journal already holds.
	if err := plan.RunSubsetOn(ctx, subset, s.executor(j, req, plan), commit); err != nil {
		return nil, nil, err
	}
	if rr.resendsAll(len(outcomes)) {
		j.root.Attr("reused", "true")
		return nil, rr, nil
	}
	rs, err := plan.Assemble(outcomes)
	return rs, rr, err
}

// journaledPrefix reconstructs the committed outcomes a journal's point
// records describe. The outcomes are marked FromCache — they are served
// from the journal, not re-simulated — so the result's cache_hits counts
// them.
func journaledPrefix(plan *wtql.Plan, resume []RecoveredPoint) ([]core.PointOutcome, error) {
	if len(resume) == 0 {
		return nil, nil
	}
	points := plan.Points()
	if len(resume) > len(points) {
		return nil, fmt.Errorf("service: journal holds %d points but the plan has %d — query or catalog changed under the journal", len(resume), len(points))
	}
	out := make([]core.PointOutcome, 0, len(resume))
	for i, rp := range resume {
		var ev PointEvent
		if err := json.Unmarshal(rp.Line, &ev); err != nil {
			return nil, fmt.Errorf("service: journaled point %d: %w", i, err)
		}
		o := eventOutcome(points[i], ev)
		o.FromCache = true
		out = append(out, o)
	}
	return out, nil
}

// Recover replays the journal directory: completed jobs come back as
// replayable history, incomplete jobs are resurrected under their
// original ids and resume execution of only their undelivered points.
// It returns how many jobs resumed plus human-readable warnings for
// anything the journal scan repaired or refused. Call it once, after
// New and before serving traffic.
func (s *Server) Recover() (resumed int, warnings []string, err error) {
	if s.journal == nil {
		return 0, nil, nil
	}
	jobs, warnings := s.journal.Recover()
	for _, rec := range jobs {
		if rec.ID == "" {
			warnings = append(warnings, "journal: record with empty job id: skipping")
			continue
		}
		if s.restoreJob(rec) {
			resumed++
			warnings = append(warnings, fmt.Sprintf("journal: resuming %s at %d committed point(s)", rec.ID, len(rec.Points)))
		}
	}
	return resumed, warnings, nil
}

// restoreJob registers one recovered job, its log holding what its
// journal does. Incomplete jobs resume running; completed ones are
// restored finished, streams replayable. Reports whether the job resumed
// execution.
func (s *Server) restoreJob(rec *RecoveredJob) bool {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		info:   JobInfo{ID: rec.ID, Query: rec.Query, State: JobRunning, Created: rec.Created},
		cancel: cancel,
	}
	// Journal records hold bare lines; the log's carry their newline.
	restore := func(kind byte, bare []byte) {
		j.log.lines = append(j.log.lines, logLine{kind, append(bare[:len(bare):len(bare)], '\n')})
	}
	j.log.lines = append(j.log.lines, logLine{'j', jobLine(rec.ID)})
	for _, p := range rec.Points {
		restore('p', p.Line)
	}
	if n := len(rec.Points); n > 0 {
		var last PointEvent
		if json.Unmarshal(rec.Points[n-1].Line, &last) == nil {
			j.info.Done, j.info.Total = last.Done, last.Total
		}
	}
	resumed := rec.Status == ""
	j.info.Resumed = resumed
	if !resumed {
		// Finished before the restart: keep it streamable, not runnable.
		if len(rec.EndLine) > 0 {
			restore('t', rec.EndLine)
		}
		j.log.closed = true
		j.info.Finished = s.now()
		j.info.Error = rec.Error
		switch rec.Status {
		case "done":
			j.info.State = JobDone
		case "cancelled":
			j.info.State = JobCancelled
		default:
			j.info.State = JobFailed
		}
	}

	s.mu.Lock()
	if _, exists := s.jobs[rec.ID]; exists {
		s.mu.Unlock()
		cancel()
		return false
	}
	// A resumed job starts a fresh trace: the pre-crash process's spans
	// died with it.
	s.registerLocked(j, traceCtx{})
	s.mu.Unlock()
	if !resumed {
		cancel()
		return false
	}
	j.root.Attr("resumed", "true")
	s.attachJournal(j, s.journal.Reopen(rec.ID))
	go s.run(ctx, j, QueryRequest{Query: rec.Query, Trials: rec.Trials}, rec.Points)
	return true
}

// crashForTest simulates kill -9 for in-process tests: every job's
// journal is abandoned in place — what was queued is flushed, then no
// terminal record, exactly the state a hard kill between two batches
// leaves on disk — and running contexts are cancelled so the doomed
// executions stop burning the pool.
func (s *Server) crashForTest() {
	for _, jj := range s.journals() {
		jj.abandon()
	}
	s.CancelAll()
}

// journals snapshots every job's journal, for waiting on them outside
// s.mu.
func (s *Server) journals() []*JobJournal {
	s.mu.Lock()
	defer s.mu.Unlock()
	var jjs []*JobJournal
	for _, j := range s.jobs {
		if j.jj != nil {
			jjs = append(jjs, j.jj)
		}
	}
	return jjs
}
