package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/obs"
	"repro/internal/wtql"
)

// This file is the durable job layer: journaled jobs run detached from
// their client connections, their event streams are kept in memory (and
// on disk, in the write-ahead journal) for byte-identical replay, and a
// restarted daemon resurrects incomplete jobs and resumes only their
// undelivered points.
//
// A journaled job never waits for the disk. submit, appendPoint and
// runDetached queue each stream line behind its journal record and carry
// on; the job's committer (journal.go) fsyncs whatever has accumulated
// as one batch and only then appends the batch's lines, in order, to the
// in-memory log that followers read — so the job computes its next
// points while the previous ones sync.
//
// The write-ahead discipline is unchanged by the batching: a line's
// journal record is fsync'd *before* the line becomes visible to any
// stream follower. A client that has seen N point events can therefore
// always resume with from=N after a crash — the daemon cannot have
// forgotten an event it delivered. If the journal breaks mid-job (disk
// full, file gone) the same committer keeps releasing lines in order,
// non-durably: the job finishes normally and recovery sees a clean
// prefix.

var (
	// ErrUnknownJob reports a Follow on an id the registry does not hold.
	ErrUnknownJob = errors.New("service: no such job")
	// ErrNoStream reports a Follow on a job that ran inline (journaling
	// disabled or a fleet shard) and so kept no replayable stream.
	ErrNoStream = errors.New("service: job has no recorded stream")
)

// Submit admits a query as a detached durable job: it is journaled
// (when the journal is enabled and this is not a fleet-shard request),
// starts executing immediately on its own goroutine, and survives any
// client disconnect. The returned id can be streamed — repeatedly,
// concurrently, resumably — via Follow.
func (s *Server) Submit(req QueryRequest) (string, error) {
	return s.submit(req, traceCtx{})
}

// submit is Submit plus the trace position a remote coordinator
// propagated (zero for client-originated jobs).
func (s *Server) submit(req QueryRequest, tr traceCtx) (string, error) {
	id, jctx, err := s.newJob(context.Background(), req.Query, true, tr)
	if err != nil {
		return "", err
	}
	line := jobLine(id)
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if s.journal != nil && req.Points == nil {
		if jj, jerr := s.journal.Begin(id, req.Query, req.Trials, j.info.Created); jerr == nil {
			s.attachJournal(j, jj)
		}
		// A Begin failure (disk full, permissions) degrades this job to
		// non-durable rather than refusing it.
	}
	// The job line rides behind the begin record: the id is not announced
	// before the journal can resurrect it.
	if _, ok := j.jj.queueLine('j', line); !ok {
		s.appendLine(j, logLine{'j', line})
	}
	go s.runDetached(jctx, id, req, nil)
	return id, nil
}

// attachJournal makes jj the job's journal: every line queued on it is
// appended to the job's stream log once its batch is durable.
func (s *Server) attachJournal(j *job, jj *JobJournal) {
	jj.releaseTo(func(lines []logLine) { s.appendLine(j, lines...) })
	s.mu.Lock()
	j.jj = jj
	s.mu.Unlock()
}

// Follow streams a durable job's NDJSON lines to emit: the committed
// prefix is replayed byte-identically (skipping the first `from` point
// events — the client's resume cursor), then the live tail until the
// terminal line. It returns nil once the terminal line has been
// delivered, emit's error if emit fails, or ctx.Err on cancellation.
func (s *Server) Follow(ctx context.Context, id string, from int, emit func(line []byte) error) error {
	if from < 0 {
		from = 0
	}
	// Wake the cond wait below when the follower's context dies; the
	// empty critical section orders the broadcast after Wait's re-lock.
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		//lint:ignore SA2001 pairing the broadcast with the waiters' lock
		s.mu.Unlock()
		s.cond.Broadcast()
	})
	defer stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	if !j.durable {
		return ErrNoStream
	}
	idx, pts := 0, 0
	for {
		for idx < len(j.lines) {
			ln := j.lines[idx]
			idx++
			if ln.kind == 'p' {
				pts++
				if pts <= from {
					continue
				}
			}
			// The re-lock is deferred so a panicking emit (net/http's
			// ErrAbortHandler, chaos cuts) unwinds through the outer
			// deferred Unlock with the mutex held, not double-unlocked.
			err := func() error {
				s.mu.Unlock()
				defer s.mu.Lock()
				return emit(ln.data)
			}()
			if err != nil {
				return err
			}
		}
		if j.logClosed {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		s.cond.Wait()
	}
}

// appendLine appends lines to a job's in-memory stream log — making them
// visible — and wakes every follower. For a journaled job only its
// committer calls this, after the batch carrying the lines' records is
// fsync'd. Element data is immutable once appended.
func (s *Server) appendLine(j *job, lines ...logLine) {
	s.mu.Lock()
	j.lines = append(j.lines, lines...)
	for _, ln := range lines {
		switch ln.kind {
		case 'p':
			j.points++
		case 't':
			j.logClosed = true
		}
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// appendPoint queues one committed point: durable first, then visible.
// The journal_append span runs from here to the fsync that covers the
// record.
func (s *Server) appendPoint(j *job, index int, key string, line []byte) {
	if s.pointGate != nil {
		s.pointGate(index)
	}
	var sp *obs.SpanHandle
	if j.jj != nil {
		sp = s.tel.startSpan(j.trace, j.root.ID(), "journal_append").
			Attr("index", strconv.Itoa(index))
	}
	if _, ok := j.jj.queuePoint(index, key, line, sp); !ok {
		s.appendLine(j, logLine{'p', line})
	}
}

// keepLine copies an encoded event out of its encoder's buffer, without
// the newline: stream logs and journal records hold bare lines.
func keepLine(encoded []byte) []byte {
	return bytes.Clone(encoded[:len(encoded)-1])
}

// jobLine is the first line of job id's stream.
func jobLine(id string) []byte {
	var enc eventEncoder
	return keepLine(enc.encodeJob(JobEvent{Type: "job", ID: id}))
}

// resumeState carries a recovered job's journaled committed prefix into
// its resumed execution.
type resumeState struct {
	points []RecoveredPoint
}

// runDetached executes a durable job to completion on its own
// goroutine, appending every event line to the job's stream log (and
// journal) and closing the log with the terminal line.
func (s *Server) runDetached(ctx context.Context, id string, req QueryRequest, res *resumeState) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return
	}
	// Each event is encoded into the job's one encoder and copied out at
	// its exact size: the copy is what the journal record, the stream log
	// and every follower share. A point whose metrics cannot be encoded
	// (NaN, ±Inf) is left out of the stream and the journal.
	enc := encoders.Get().(*eventEncoder)
	defer encoders.Put(enc)
	emit := func(ev PointEvent, key string, out core.PointOutcome) {
		line, err := enc.encodePoint(&ev)
		if err != nil {
			return
		}
		s.appendPoint(j, ev.Index, key, keepLine(line))
	}
	rs, err := s.executeDurable(ctx, id, req, res, emit)

	info, _ := s.Job(id)
	terminal, failure := enc.encodeTerminal(id, rs, info.Degraded, err)
	line := keepLine(terminal)
	status, errMsg := "done", ""
	if failure != nil {
		status, errMsg = "failed", failure.Error()
		if info.State == JobCancelled {
			status = "cancelled"
		}
	}
	if s.pointGate != nil {
		s.pointGate(info.Done)
	}
	if _, ok := j.jj.queueEnd(status, errMsg, line); !ok {
		s.appendLine(j, logLine{'t', line})
	}
}

// executeDurable runs a durable job's query — SET statement, fleet
// fan-out, or local sweep — optionally resuming past a journaled
// committed prefix, and records the job's terminal state.
func (s *Server) executeDurable(ctx context.Context, id string, req QueryRequest, res *resumeState,
	emit func(ev PointEvent, key string, out core.PointOutcome)) (*wtql.ResultSet, error) {
	q, err := wtql.Parse(req.Query)
	if err != nil {
		s.finish(id, err)
		return nil, err
	}
	if len(q.Set) > 0 {
		eng := s.engine()
		if req.Trials > 0 {
			eng.Trials = req.Trials
		}
		rs, err := eng.RunContext(ctx, q)
		s.finish(id, err)
		return rs, err
	}
	trace, root := s.jobTrace(id)
	var resume []RecoveredPoint
	if res != nil {
		resume = res.points
	}
	if s.fleet != nil {
		rs, err, handled := s.executeFleet(ctx, id, req.Query, req.Trials, resume, emit)
		if handled {
			return rs, err
		}
	}

	eng := s.engine()
	if req.Trials > 0 {
		eng.Trials = req.Trials
	}
	plan, err := eng.Plan(q)
	if err != nil {
		s.finish(id, err)
		return nil, err
	}
	keys, err := plan.PointKeys()
	if err != nil {
		s.finish(id, err)
		return nil, err
	}
	total := plan.NumPoints()
	prefix, err := journaledPrefix(plan.Points(), resume)
	if err != nil {
		s.finish(id, err)
		return nil, err
	}
	k := len(prefix)

	switch {
	case k == 0:
		// Fresh run (or nothing committed before the crash): the whole
		// sweep, with per-commit progress and event emission.
		eng.Progress = func(done, total int, out core.PointOutcome) {
			s.progress(id, done, total, out.FromCache)
			s.tel.observePoint(trace, root, out)
			emit(pointEvent(plan.Config(out.Index), done, total, out), keys[out.Index], out)
		}
		rs, err := plan.Run(ctx)
		s.finish(id, err)
		return rs, err

	case plan.Pruned():
		// MONOTONE sweeps: dominance decisions depend on the whole
		// committed prefix, so re-run the full sweep — deterministic, and
		// every previously-simulated point is a trial-cache hit — while
		// suppressing re-emission (and re-journaling) of the first k
		// events the journal already holds.
		eng.Progress = func(done, total int, out core.PointOutcome) {
			s.progress(id, done, total, out.FromCache)
			s.tel.observePoint(trace, root, out)
			if done <= k {
				return
			}
			emit(pointEvent(plan.Config(out.Index), done, total, out), keys[out.Index], out)
		}
		rs, err := plan.Run(ctx)
		s.finish(id, err)
		return rs, err

	default:
		// Plain sweep: the journaled prefix is final. Execute only the
		// undelivered tail and assemble the table over prefix + tail.
		outcomes := prefix
		if k < total {
			rem := make([]int, 0, total-k)
			for i := k; i < total; i++ {
				rem = append(rem, i)
			}
			err = plan.RunSubset(ctx, rem, func(out core.PointOutcome) {
				outcomes = append(outcomes, out)
				n := len(outcomes)
				s.progress(id, n, total, out.FromCache)
				s.tel.observePoint(trace, root, out)
				emit(pointEvent(plan.Config(out.Index), n, total, out), keys[out.Index], out)
			})
			if err != nil {
				s.finish(id, err)
				return nil, err
			}
		}
		rs, err := plan.Assemble(outcomes)
		s.finish(id, err)
		return rs, err
	}
}

// journaledPrefix reconstructs the committed outcomes a journal's point
// records describe. The outcomes are marked FromCache — they are served
// from the journal, not re-simulated — which also keeps Assemble from
// archiving the same simulation into the results store twice.
func journaledPrefix(points []design.Point, resume []RecoveredPoint) ([]core.PointOutcome, error) {
	if len(resume) == 0 {
		return nil, nil
	}
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
	jobs, warnings, err := s.journal.Recover()
	if err != nil {
		return 0, warnings, err
	}
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

// restoreJob registers one recovered job. Incomplete jobs resume
// detached; completed ones are restored finished, streams replayable.
// Reports whether the job resumed execution.
func (s *Server) restoreJob(rec *RecoveredJob) bool {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		info:    JobInfo{ID: rec.ID, Query: rec.Query, State: JobRunning, Created: rec.Created},
		cancel:  cancel,
		durable: true,
	}
	j.lines = append(j.lines, logLine{kind: 'j', data: jobLine(rec.ID)})
	for _, p := range rec.Points {
		j.lines = append(j.lines, logLine{kind: 'p', data: p.Line})
		j.points++
	}
	if n := len(rec.Points); n > 0 {
		var last PointEvent
		if json.Unmarshal(rec.Points[n-1].Line, &last) == nil {
			j.info.Done, j.info.Total = last.Done, last.Total
		}
	}
	if rec.Status != "" {
		// Finished before the restart: keep it streamable, not runnable.
		if len(rec.EndLine) > 0 {
			j.lines = append(j.lines, logLine{kind: 't', data: rec.EndLine})
		}
		j.logClosed = true
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
	} else {
		j.info.Resumed = true
		// A resumed job starts a fresh trace: the pre-crash process's
		// spans died with it.
		if s.tel != nil && s.tel.tracer != nil {
			j.trace = traceCtx{id: s.tel.tracer.NewTraceID()}
			j.root = s.tel.startSpan(j.trace, "", "job").
				Attr("job", rec.ID).Attr("resumed", "true")
			j.info.TraceID = j.trace.id
		}
	}

	s.mu.Lock()
	if _, exists := s.jobs[rec.ID]; exists {
		s.mu.Unlock()
		cancel()
		return false
	}
	s.jobs[rec.ID] = j
	s.order = append(s.order, rec.ID)
	s.evictFinishedLocked()
	s.mu.Unlock()

	if rec.Status != "" {
		cancel()
		return false
	}
	if jj, err := s.journal.Reopen(rec.ID); err == nil {
		s.attachJournal(j, jj)
	}
	req := QueryRequest{Query: rec.Query, Trials: rec.Trials}
	go s.runDetached(ctx, rec.ID, req, &resumeState{points: rec.Points})
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

// journals snapshots every job's journal. Waiting on one must happen
// outside s.mu: its committer takes s.mu to release lines.
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
