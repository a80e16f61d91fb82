package service

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// The job journal is windtunneld's write-ahead log, what lets a daemon
// survive the failures its scenarios simulate. A job's records — begin
// (query, resolved trials), one point per committed design point (its
// core.CacheKey and exact NDJSON line), end (the terminal line) — go to
// the journal directory's durable log (log.go), shared by all jobs. A
// marker {"kind":"job","job":…} precedes a record whose job differs from
// the previous record's in its segment (a begin names its own job), so a
// job's frames are byte for byte those a per-job file held (format v1);
// a legacy job-<n>.wtj file is a one-job segment, copied forward at open.
// Every batch keeps three rules:
//
//   - Write-ahead: no line reaches a follower before its record is
//     fsync'd, so no observer saw an event a restarted daemon forgot.
//   - Order: records reach the log, and lines the stream, in queue order.
//   - Failure: after a failed flush a job writes nothing more but still
//     releases its lines, in order, non-durably; recovery sees a prefix.
//
// On restart complete jobs replay and incomplete ones resume from their
// committed prefix. A begin for a job the scan already holds replaces
// its records (a copy-forward), unless the copy, cut short by a crash,
// holds fewer, when the original stands.

// journalVersion is the on-disk format version stamped into every begin
// record. A job declaring a newer version is refused (with an explicit
// warning) rather than half-parsed, and its segment is left alone.
const journalVersion = 1

// journalExt is the legacy per-job journal file suffix.
const journalExt = ".wtj"

// journalRecord is the JSON payload of one framed record: a job's, a
// marker ("job") or a disk-cache entry ("entry").
type journalRecord struct {
	Kind string `json:"kind"` // "begin" | "point" | "end" | "job" | "entry"

	// begin fields (and a marker's Job).
	V       int       `json:"v,omitempty"`
	Job     string    `json:"job,omitempty"`
	Query   string    `json:"query,omitempty"`
	Trials  int       `json:"trials,omitempty"`
	Created time.Time `json:"created,omitzero"`

	// point fields. Line is the verbatim NDJSON event line so replay is
	// byte-identical (framed without its trailing newline); Key is the
	// point's content address so resumed planning re-uses cached trials
	// (and a cache entry's key).
	Index int             `json:"index,omitempty"`
	Key   string          `json:"key,omitempty"`
	Line  json.RawMessage `json:"line,omitempty"`

	// end fields: Status is "done", "failed" or "cancelled"; Line above
	// carries the terminal result/error event.
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`

	// Entry is a cache entry's diskRecord.
	Entry json.RawMessage `json:"entry,omitempty"`
}

// Journal is the job journal over one directory's durable log, with what
// the scan at open recovered.
type Journal struct {
	log      *segLog
	jobs     []*RecoveredJob
	warnings []string
	// maxSeq is the highest job-<n> sequence number the log holds: a
	// restarted daemon's job ids continue past it.
	maxSeq int
}

// OpenJournal opens (creating if needed) a journal directory: it scans
// the log, and copies every legacy job file forward into it, removing
// each file once its copy is durable.
func OpenJournal(dir string) (*Journal, error) {
	if err := mkdirs(dir); err != nil {
		return nil, err
	}
	return openJournal(osDisk, dir)
}

// mkdirs creates the durable directories that are set.
func mkdirs(dirs ...string) error {
	for _, dir := range dirs {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fmt.Errorf("service: %w", err)
			}
		}
	}
	return nil
}

// openJournal is OpenJournal on d, for an existing directory.
func openJournal(d disk, dir string) (*Journal, error) {
	j := &Journal{}
	jobs := map[string]*RecoveredJob{}
	var seg *segment
	var cur *RecoveredJob
	began := map[*segment]bool{}
	// prev holds what this segment's begins replaced; restore puts back,
	// at the segment's end, what a shorter copy replaced.
	prev, exts := map[string]*RecoveredJob{}, map[string][]extent{}
	restore := func(l *segLog) {
		for id, old := range prev {
			if now := jobs[id]; len(now.Points) < len(old.Points) || now.Status == "" && old.Status != "" {
				l.disown(id)
				for _, e := range exts[id] {
					l.own(id, e, false)
				}
				jobs[id] = old
			}
		}
		clear(prev)
	}
	l, _, warnings, err := openLog(d, dir, journalExt, func(l *segLog, e extent, rec *journalRecord) {
		if e.seg != seg {
			restore(l)
			seg, cur = e.seg, nil
		}
		if n, ok := jobSeq(rec.Job); ok && (rec.Kind == "begin" || rec.Kind == "job") {
			j.maxSeq = max(j.maxSeq, n)
		}
		switch rec.Kind {
		case "begin":
			cur, began[e.seg] = nil, true
			if rec.V > journalVersion {
				j.warnings = append(j.warnings, fmt.Sprintf("journal %s: format version %d is newer than supported %d: refusing (leave for a newer daemon)", e.seg.name, rec.V, journalVersion))
				e.seg.pinned = true
				return
			}
			if old, ok := jobs[rec.Job]; ok && prev[rec.Job] == nil {
				prev[rec.Job], exts[rec.Job] = old, slices.Clone(l.owned[rec.Job])
			}
			cur = &RecoveredJob{ID: rec.Job, Query: rec.Query, Trials: rec.Trials, Created: rec.Created}
			jobs[rec.Job] = cur
			l.own(rec.Job, e, true)
			return
		case "job":
			cur = jobs[rec.Job]
			return
		case "point":
			if cur == nil || cur.Status != "" {
				return // headless or post-terminal: ignore
			}
			if rec.Index != len(cur.Points) {
				// Points are appended in commit order, so indices are
				// contiguous from 0; a gap means lost writes. Keep the
				// contiguous prefix — it is still a valid resume point.
				j.warnings = append(j.warnings, fmt.Sprintf("journal %s: point index %d out of order (want %d): keeping contiguous prefix", e.seg.name, rec.Index, len(cur.Points)))
				return
			}
			cur.Points = append(cur.Points, RecoveredPoint{Index: rec.Index, Key: rec.Key, Line: rec.Line})
		case "end":
			if cur == nil || cur.Status != "" {
				return
			}
			cur.Status, cur.Error, cur.EndLine = rec.Status, rec.Error, rec.Line
		default:
			return
		}
		l.own(cur.ID, e, false)
	})
	if err != nil {
		return nil, err
	}
	restore(l)
	j.log, j.warnings = l, append(warnings, j.warnings...)
	for _, job := range jobs {
		j.jobs = append(j.jobs, job)
	}
	slices.SortFunc(j.jobs, func(a, b *RecoveredJob) int {
		sa, _ := jobSeq(a.ID)
		sb, _ := jobSeq(b.ID)
		return cmp.Or(cmp.Compare(sa, sb), strings.Compare(a.ID, b.ID))
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.segs {
		switch {
		case s.seq == 0 && !began[s] && !s.pinned:
			j.warnings = append(j.warnings, fmt.Sprintf("journal %s: no begin record: ignoring", s.name))
			s.pinned = true
		case s.seq == 0 && s.live > 0:
			l.compact = true // copy the legacy jobs forward
		}
	}
	l.reap()
	if l.compact {
		l.wake()
	}
	for l.running {
		l.cond.Wait()
	}
	return j, nil
}

// instrument wires the journal's record counter and flush-latency
// histogram (nil instruments leave it un-instrumented).
func (j *Journal) instrument(appends *obs.Counter, fsync *obs.Histogram) {
	j.log.appends, j.log.fsync = appends, fsync
}

// Begin queues a new job's begin record (the submitted query and its
// resolved trial override) and returns the job's journal. A record that
// cannot be encoded leaves the job non-durable, which its waits report.
func (j *Journal) Begin(jobID, query string, trials int, created time.Time) (*JobJournal, error) {
	jj := j.Reopen(jobID)
	jj.enqueue(journalRecord{
		Kind: "begin", V: journalVersion,
		Job: jobID, Query: query, Trials: trials, Created: created.UTC(),
	}, logLine{}, nil)
	return jj, nil
}

// Reopen returns the journal of a recovered, incomplete job, for the
// resumed run's records.
func (j *Journal) Reopen(jobID string) *JobJournal {
	return &JobJournal{log: j.log, id: jobID}
}

// Recover returns the jobs the scan at open reconstructed, in ascending
// job-sequence order, plus human-readable warnings for anything repaired
// or refused (torn tail records, mid-segment garbage, unsupported format
// versions). Damage in one place never takes down recovery of the rest.
func (j *Journal) Recover() ([]*RecoveredJob, []string) {
	return j.jobs, j.warnings
}

// jobSeq extracts the numeric suffix of a "job-<n>" id.
func jobSeq(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// errJournalClosed reports a record queued on a journal that no longer
// writes: closed, abandoned, or broken by an earlier flush failure.
var errJournalClosed = errors.New("service: journal is closed")

// JobJournal is one job's handle on the journal's log. Any goroutine may
// queue; the log's committer is the only one that writes or releases
// lines, which is what keeps both in queue order. Never call Close,
// abandon or sync holding a lock the release callback takes.
type JobJournal struct {
	log *segLog
	id  string
	// release receives the job's lines once their batch is durable (nil:
	// lines are dropped — a journal written for its records alone).
	release func([]logLine)

	// Under log.mu.
	last    uint64 // the job's last queued entry
	err     error  // non-nil once the job stopped writing; lines still flow
	closing bool   // no more entries
}

// enqueue frames rec (the zero record for a line that has none of its
// own: the job line) behind everything already queued, parks line — what
// clients will see once rec is durable — and span — which ends then —
// behind it. An end record is the job's final entry. It reports the
// entry's sequence number, or false — nothing queued — on a nil journal
// (the job is not journaled) or one already closed.
func (jj *JobJournal) enqueue(rec journalRecord, line logLine, span *obs.SpanHandle) (uint64, bool) {
	if jj == nil {
		return 0, false
	}
	l := jj.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if jj.closing {
		return 0, false
	}
	e := entry{jj: jj, line: line, span: span}
	if rec.Kind != "" && jj.err == nil {
		// An unframeable record (a line that is not JSON) stops the
		// journal here, keeping the prefix on disk contiguous.
		framed := rec // a copy escapes to the encoder, so unframed calls do not allocate
		if jj.err = l.open.frame(&framed); jj.err == nil {
			e.owner, e.opens = jj.id, rec.Kind == "begin"
		}
	}
	jj.last = l.push(e)
	jj.closing = rec.Kind == "end"
	return jj.last, true
}

// releaseTo names the receiver of durable lines; call it before queuing
// any line.
func (jj *JobJournal) releaseTo(release func([]logLine)) {
	jj.log.mu.Lock()
	jj.release = release
	jj.log.mu.Unlock()
}

// wait blocks until entry seq's batch is done and reports whether its
// record is on disk: a job that stops writing never writes again, so its
// error covers every record it queues after.
func (jj *JobJournal) wait(seq uint64, ok bool) error {
	if !ok {
		return errJournalClosed
	}
	jj.log.mu.Lock()
	defer jj.log.mu.Unlock()
	jj.log.waitFor(seq)
	return jj.err
}

// pointRecord is the record of one committed design point: its global
// index, cache key and the exact NDJSON line clients will see.
func pointRecord(index int, key string, line []byte) journalRecord {
	return journalRecord{Kind: "point", Index: index, Key: key, Line: line}
}

// endRecord is a job's terminal record, carrying its terminal line.
func endRecord(status, errMsg string, line []byte) journalRecord {
	return journalRecord{Kind: "end", Status: status, Error: errMsg, Line: line}
}

// Point queues a point record and waits: it returns once the record is on
// disk, or with the reason it is not.
func (jj *JobJournal) Point(index int, key string, line []byte) error {
	return jj.wait(jj.enqueue(pointRecord(index, key, line), logLine{'p', line}, nil))
}

// End queues the end record and waits for it.
func (jj *JobJournal) End(status, errMsg string, line []byte) error {
	err := jj.wait(jj.enqueue(endRecord(status, errMsg, line), logLine{'t', line}, nil))
	jj.Close()
	return err
}

// Close waits until what the job queued is flushed; entries queued later
// are refused.
func (jj *JobJournal) Close() {
	jj.log.mu.Lock()
	defer jj.log.mu.Unlock()
	jj.closing = true
	jj.log.waitFor(jj.last)
}

// abandon simulates a crash for tests: everything the job queued so far
// reaches the disk — the kill lands between two batches, so "exactly k
// points committed" means exactly k point records in the log — and then
// the job writes nothing more, with no terminal record, exactly as kill
// -9 would leave it. Its later lines are released without being written.
// (A kill in the middle of a batch is a torn tail: see
// TestJournalTornBatch.)
func (jj *JobJournal) abandon() {
	jj.log.mu.Lock()
	defer jj.log.mu.Unlock()
	jj.log.waitFor(jj.last)
	if jj.err == nil {
		jj.err = errJournalClosed
	}
}

// RecoveredPoint is one journaled committed design point.
type RecoveredPoint struct {
	Index int
	Key   string
	Line  []byte // verbatim NDJSON event line (no trailing newline)
}

// RecoveredJob is one job reconstructed from the journal.
type RecoveredJob struct {
	ID      string
	Query   string
	Trials  int
	Created time.Time
	// Points is the committed contiguous prefix, in index order.
	Points []RecoveredPoint
	// Status is "" for an incomplete job (crashed mid-run; must be
	// resumed), else the journaled terminal status.
	Status  string
	Error   string
	EndLine []byte
}
