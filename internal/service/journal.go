package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// The job journal is windtunneld's write-ahead log: the durability layer
// that lets a daemon survive the very failure modes its scenarios
// simulate (kill -9, OOM, power loss). One journal file per job records
//
//	begin    the submitted query + resolved trial count,
//	point    one record per committed design point, carrying the
//	         point's core.CacheKey and the exact NDJSON event line the
//	         client was (or will be) sent,
//	end      the terminal result/error line.
//
// The journal is a group-committing log. Begin, Point and End frame their
// record into the job's open batch, park the stream line the record
// guards behind it, and return; the job's one committer goroutine takes
// everything queued, issues one write() and one fsync for the batch, and
// only then hands the batch's lines, in queue order, to the job's stream
// log. A batch is whatever accumulated while the previous one was on its
// way to the disk, so a job that commits faster than the disk syncs
// shares fsyncs and one that commits slower pays one per record — no
// window, no timer, nothing to tune.
//
// Three rules hold for every batch:
//
//   - Write-ahead: no line reaches a stream follower before the record
//     that carries it is fsync'd, so an observer can never have seen an
//     event a restarted daemon has forgotten.
//   - Order: records reach the file, and lines the stream, in exactly the
//     order they were queued; batching changes how many records share an
//     fsync, never the bytes written (format v1, below).
//   - Failure: a failed write or fsync truncates the file back to the
//     last durable record boundary and closes it; every line already
//     queued and every later one is still released, in order, just not
//     durably — the job finishes normally and recovery sees a clean
//     contiguous prefix.
//
// On restart, Recover replays the files: complete jobs come back
// replayable, incomplete jobs are resurrected and resume execution of
// only their undelivered points — the committed prefix is served
// verbatim from the journal, and the cache keys in the point records
// make any re-planning a trial-cache hit rather than a re-simulation.
//
// Record framing is length-prefixed with a CRC over the payload:
//
//	[4B little-endian payload length][4B CRC-32 (IEEE) of payload][payload JSON]
//
// A torn tail write (crash mid-batch) therefore shows up as a short or
// CRC-failing record; Recover truncates the file back to the last good
// record and reports it, never panicking and never silently dropping a
// committed point that made it to disk intact.

// journalVersion is the on-disk format version stamped into every begin
// record. Files declaring a newer version are refused (with an explicit
// warning) rather than half-parsed.
const journalVersion = 1

// journalExt is the per-job journal file suffix.
const journalExt = ".wtj"

// maxJournalRecord bounds one record's payload; anything larger is
// treated as corruption (the length prefix is attacker/garbage-
// controlled bytes on recovery).
const maxJournalRecord = 64 << 20

// journalRecord is the JSON payload of one framed record.
type journalRecord struct {
	Kind string `json:"kind"` // "begin" | "point" | "end"

	// begin fields.
	V       int       `json:"v,omitempty"`
	Job     string    `json:"job,omitempty"`
	Query   string    `json:"query,omitempty"`
	Trials  int       `json:"trials,omitempty"`
	Created time.Time `json:"created,omitzero"`

	// point fields. Line is the verbatim NDJSON event line so replay is
	// byte-identical (framed without its trailing newline: whitespace
	// appendCompact drops); Key is the point's content address so resumed
	// planning re-uses cached trials.
	Index int             `json:"index,omitempty"`
	Key   string          `json:"key,omitempty"`
	Line  json.RawMessage `json:"line,omitempty"`

	// end fields: Status is "done", "failed" or "cancelled"; Line above
	// carries the terminal result/error event.
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Journal manages the per-job journal files under one directory.
type Journal struct {
	dir string

	// appends/fsync, when set via instrument, count records made durable
	// and time each batch flush (write + fsync); nil-safe no-ops otherwise.
	appends *obs.Counter
	fsync   *obs.Histogram

	// flushGate, when set (tests only), runs on the committer goroutine
	// just before a batch is written — the hook that holds the disk still
	// while a test looks at what followers can see, or breaks the file to
	// inject a flush failure.
	flushGate func(*JobJournal)
}

// OpenJournal opens (creating if needed) a journal directory.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: journal dir: %w", err)
	}
	return &Journal{dir: dir}, nil
}

// instrument wires the journal's record counter and flush-latency
// histogram (nil instruments leave it un-instrumented).
func (j *Journal) instrument(appends *obs.Counter, fsync *obs.Histogram) {
	j.appends, j.fsync = appends, fsync
}

func (j *Journal) path(jobID string) string {
	return filepath.Join(j.dir, jobID+journalExt)
}

// Begin creates a new job journal, queues the begin record (the
// submitted query and its resolved trial override) and starts the job's
// committer. The record — and the file's directory entry — are durable
// once the first batch has flushed.
func (j *Journal) Begin(jobID, query string, trials int, created time.Time) (*JobJournal, error) {
	f, err := os.OpenFile(j.path(jobID), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: journal begin: %w", err)
	}
	jj := j.start(f, jobID, 0)
	jj.enqueue(journalRecord{
		Kind: "begin", V: journalVersion,
		Job: jobID, Query: query, Trials: trials, Created: created.UTC(),
	}, logLine{}, nil)
	return jj, nil
}

// Reopen opens an existing (recovered, incomplete) job journal for
// appending the resumed run's records.
func (j *Journal) Reopen(jobID string) (*JobJournal, error) {
	f, err := os.OpenFile(j.path(jobID), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: journal reopen: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("service: journal reopen: %w", err)
	}
	return j.start(f, jobID, st.Size()), nil
}

// start wraps an open journal file of size bytes and launches its
// committer. An empty file is a new one: its directory entry must
// survive the crash too, so the first flush also fsyncs the directory.
func (j *Journal) start(f *os.File, jobID string, size int64) *JobJournal {
	jj := &JobJournal{
		jr: j, f: f, path: j.path(jobID), size: size, syncDir: size == 0,
		open:  batchPool.Get().(*batch),
		spare: batchPool.Get().(*batch),
	}
	jj.cond.L = &jj.mu
	go jj.run()
	return jj
}

// Remove deletes a job's journal file (registry eviction).
func (j *Journal) Remove(jobID string) {
	os.Remove(j.path(jobID))
}

// MaxSeq scans the directory for job-<n> journals and returns the
// highest sequence number, so a restarted daemon's job IDs continue
// past every journaled job instead of colliding with them.
func (j *Journal) MaxSeq() int {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return 0
	}
	maxSeq := 0
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), journalExt)
		if name == e.Name() {
			continue
		}
		if n, ok := jobSeq(name); ok && n > maxSeq {
			maxSeq = n
		}
	}
	return maxSeq
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

// batch is one hand-off from a job to its committer: the framed records
// one write() will carry, the stream lines they guard and the
// journal_append spans that end when they are durable. Batches are
// recycled through batchPool and records are framed straight into them,
// so a queued record costs no allocation of its own.
type batch struct {
	frames  []byte
	records int
	lines   []logLine
	spans   []*obs.SpanHandle
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

// frame appends rec as one v1 frame: header, then exactly the bytes
// json.Marshal(rec) yields.
func (b *batch) frame(rec *journalRecord) error {
	start := len(b.frames)
	frames, err := appendRecord(append(b.frames, 0, 0, 0, 0, 0, 0, 0, 0), rec)
	if err != nil {
		b.frames = frames[:start]
		return err
	}
	b.frames = frames
	payload := b.frames[start+8:]
	binary.LittleEndian.PutUint32(b.frames[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b.frames[start+4:], crc32.ChecksumIEEE(payload))
	b.records++
	return nil
}

// appendRecord appends rec's JSON: what json.Marshal(rec) yields, field
// for field (TestJournalRecordEncoding holds it to that). A Line that is
// not valid JSON is an error, as it is for json.RawMessage.
func appendRecord(b []byte, rec *journalRecord) ([]byte, error) {
	b = append(b, `{"kind":`...)
	b = appendString(b, rec.Kind)
	if rec.V != 0 {
		b = append(b, `,"v":`...)
		b = strconv.AppendInt(b, int64(rec.V), 10)
	}
	if rec.Job != "" {
		b = append(b, `,"job":`...)
		b = appendString(b, rec.Job)
	}
	if rec.Query != "" {
		b = append(b, `,"query":`...)
		b = appendString(b, rec.Query)
	}
	if rec.Trials != 0 {
		b = append(b, `,"trials":`...)
		b = strconv.AppendInt(b, int64(rec.Trials), 10)
	}
	if !rec.Created.IsZero() {
		created, err := rec.Created.MarshalJSON()
		if err != nil {
			return b, err
		}
		b = append(b, `,"created":`...)
		b = append(b, created...)
	}
	if rec.Index != 0 {
		b = append(b, `,"index":`...)
		b = strconv.AppendInt(b, int64(rec.Index), 10)
	}
	if rec.Key != "" {
		b = append(b, `,"key":`...)
		b = appendString(b, rec.Key)
	}
	if len(rec.Line) > 0 {
		if !json.Valid(rec.Line) {
			return b, fmt.Errorf("service: journal record line is not valid JSON")
		}
		b = append(b, `,"line":`...)
		b = appendCompact(b, rec.Line)
	}
	if rec.Status != "" {
		b = append(b, `,"status":`...)
		b = appendString(b, rec.Status)
	}
	if rec.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, rec.Error)
	}
	return append(b, '}'), nil
}

// appendCompact appends valid JSON src the way encoding/json embeds a
// RawMessage: insignificant whitespace dropped, and <, >, &, U+2028 and
// U+2029 escaped. An event line from eventEncoder is already in that
// form and passes through unchanged.
func appendCompact(b, src []byte) []byte {
	inString, escaped := false, false
	start := 0
	for i, c := range src {
		switch {
		case c == '<' || c == '>' || c == '&':
			b = append(b, src[start:i]...)
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			start = i + 1
		case c == 0xE2 && i+2 < len(src) && src[i+1] == 0x80 && src[i+2]&^1 == 0xA8:
			b = append(b, src[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[src[i+2]&0xF])
			start = i + 3
		case !inString && (c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			b = append(b, src[start:i]...)
			start = i + 1
		}
		switch {
		case escaped:
			escaped = false
		case inString && c == '\\':
			escaped = true
		case c == '"':
			inString = !inString
		}
	}
	return append(b, src[start:]...)
}

// reset empties the batch for reuse, dropping its references.
func (b *batch) reset() {
	clear(b.lines)
	clear(b.spans)
	b.frames, b.lines, b.spans = b.frames[:0], b.lines[:0], b.spans[:0]
	b.records = 0
}

// errJournalClosed reports a record queued on a journal that no longer
// writes: closed, abandoned, or broken by an earlier flush failure.
var errJournalClosed = errors.New("service: journal is closed")

// JobJournal is one job's group-committing journal. Any goroutine may
// queue; run, the committer, is the only one that writes the file or
// releases lines, which is what keeps both in queue order. Never call
// Close, abandon or sync holding a lock the release callback takes.
type JobJournal struct {
	jr   *Journal
	path string

	mu   sync.Mutex
	cond sync.Cond // any change below: work for the committer, progress for waiters
	// release receives each batch's lines once the batch is durable (nil:
	// lines are dropped — a journal written for its file alone).
	release func([]logLine)
	// open collects what is queued; spare is the other half of the double
	// buffer, nil while the committer has it in flight.
	open, spare *batch
	queued      uint64 // entries ever queued
	released    uint64 // entries whose batch the committer has finished with
	durable     uint64 // entries up to here reached the disk
	err         error  // non-nil once the journal stopped writing; lines still flow
	closing     bool   // no more entries; the committer drains and exits
	exited      bool

	// The file belongs to the committer while a batch is in flight, and
	// to whoever holds mu when none is.
	f       *os.File
	size    int64 // bytes durably written: the truncation point if a flush fails
	syncDir bool  // the directory entry still awaits its fsync
}

// enqueue frames rec (the zero record for a line that has none of its
// own: the job line) behind everything already queued, parks line — what
// clients will see once rec is durable — and span — which ends then —
// behind it, and wakes the committer. An end record is the job's final
// entry: the committer flushes it, closes the file and exits. It reports
// the entry's sequence number, or false — nothing queued — on a nil
// journal (the job is not journaled) or one already closed.
func (jj *JobJournal) enqueue(rec journalRecord, line logLine, span *obs.SpanHandle) (uint64, bool) {
	if jj == nil {
		return 0, false
	}
	jj.mu.Lock()
	defer jj.mu.Unlock()
	if jj.closing {
		return 0, false
	}
	b := jj.open
	if rec.Kind != "" && jj.err == nil {
		// An unframeable record (a line that is not JSON) stops the
		// journal here, keeping the prefix on disk contiguous.
		jj.err = b.frame(&rec)
	}
	if line.data != nil {
		b.lines = append(b.lines, line)
	}
	if span != nil {
		b.spans = append(b.spans, span)
	}
	jj.queued++
	jj.closing = rec.Kind == "end"
	jj.cond.Broadcast()
	return jj.queued, true
}

// releaseTo names the receiver of durable lines; call it before queuing
// any line.
func (jj *JobJournal) releaseTo(release func([]logLine)) {
	jj.mu.Lock()
	jj.release = release
	jj.mu.Unlock()
}

// wait blocks until entry seq's batch is done and reports whether its
// record is on disk.
func (jj *JobJournal) wait(seq uint64, ok bool) error {
	if !ok {
		return errJournalClosed
	}
	jj.mu.Lock()
	defer jj.mu.Unlock()
	for jj.released < seq {
		jj.cond.Wait()
	}
	if seq > jj.durable {
		return jj.err
	}
	return nil
}

// sync blocks until everything queued so far has been flushed and
// released.
func (jj *JobJournal) sync() {
	jj.mu.Lock()
	defer jj.mu.Unlock()
	for seq := jj.queued; jj.released < seq; {
		jj.cond.Wait()
	}
}

// run is the committer: take everything queued, make it durable with one
// write and one fsync, release its lines, repeat until the journal closes.
func (jj *JobJournal) run() {
	jj.mu.Lock()
	defer jj.mu.Unlock()
	for {
		// No batch is in flight here, so queued - released is what open holds.
		for jj.queued == jj.released && !jj.closing {
			jj.cond.Wait()
		}
		if jj.queued == jj.released {
			break
		}
		b, upTo := jj.open, jj.queued
		jj.open, jj.spare = jj.spare, nil
		if jj.err != nil {
			jj.closeFile() // stopped writing since the last batch
		}
		writing, release := jj.f != nil, jj.release
		jj.mu.Unlock()

		var err error
		if writing && b.records > 0 {
			err = jj.flush(b)
		}
		if len(b.spans) > 0 {
			n := strconv.Itoa(b.records)
			for _, sp := range b.spans {
				if err != nil {
					sp.Attr("error", err.Error())
				}
				sp.Attr("batch", n).End()
			}
		}
		if release != nil && len(b.lines) > 0 {
			release(b.lines)
		}
		b.reset()

		jj.mu.Lock()
		if writing && err == nil {
			jj.durable = upTo
		}
		if jj.err == nil {
			jj.err = err
		}
		jj.released = upTo
		jj.spare = b
		jj.cond.Broadcast()
	}
	jj.closeFile()
	batchPool.Put(jj.open)
	batchPool.Put(jj.spare)
	jj.open, jj.spare = nil, nil
	jj.exited = true
	jj.cond.Broadcast()
}

// flush makes one batch durable: one write, one fsync, plus the
// directory's fsync on a new file's first batch. On failure the file is
// cut back to the last durable record boundary and closed.
func (jj *JobJournal) flush(b *batch) error {
	if gate := jj.jr.flushGate; gate != nil {
		gate(jj)
	}
	var t0 time.Time
	if jj.jr.fsync != nil {
		t0 = time.Now()
	}
	_, err := jj.f.Write(b.frames)
	if err == nil {
		err = jj.f.Sync()
	}
	if err != nil {
		jj.f.Truncate(jj.size) // best effort; Recover repairs a torn tail anyway
		jj.closeFile()
		return fmt.Errorf("service: journal %s: %w", jj.path, err)
	}
	jj.size += int64(len(b.frames))
	jj.jr.appends.Add(uint64(b.records))
	jj.jr.fsync.Observe(time.Since(t0).Seconds())
	if jj.syncDir {
		syncDir(jj.jr.dir)
		jj.syncDir = false
	}
	return nil
}

// closeFile closes the file, if still open. The caller owns it (see
// JobJournal.f).
func (jj *JobJournal) closeFile() {
	if jj.f != nil {
		jj.f.Close()
		jj.f = nil
	}
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

// End queues the end record and waits for it and for the file to close.
func (jj *JobJournal) End(status, errMsg string, line []byte) error {
	err := jj.wait(jj.enqueue(endRecord(status, errMsg, line), logLine{'t', line}, nil))
	jj.Close()
	return err
}

// Close flushes what is queued, closes the file and waits for the
// committer to exit; entries queued later are refused.
func (jj *JobJournal) Close() {
	jj.mu.Lock()
	defer jj.mu.Unlock()
	jj.closing = true
	jj.cond.Broadcast()
	for !jj.exited {
		jj.cond.Wait()
	}
}

// abandon simulates a crash for tests: everything queued so far reaches
// the disk — the kill lands between two batches, so "exactly k points
// committed" means exactly k point records in the file — then the file
// is closed as-is, with no terminal record, exactly as kill -9 would
// leave it. The doomed job's later lines are released without being
// written. (A kill in the middle of a batch is a torn tail: see
// TestJournalTornBatch.)
func (jj *JobJournal) abandon() {
	jj.mu.Lock()
	defer jj.mu.Unlock()
	for jj.released < jj.queued {
		jj.cond.Wait()
	}
	jj.closeFile() // nothing in flight: the file is ours
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

// RecoveredJob is one job reconstructed from its journal file.
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

// Recover scans every journal file, truncating corrupt tails, and
// returns the reconstructed jobs in ascending job-sequence order plus
// human-readable warnings for anything repaired or refused (torn tail
// records, mid-file garbage, unsupported format versions). It never
// fails the whole scan for one bad file: durability bugs in one job
// must not take down recovery of the rest.
func (j *Journal) Recover() ([]*RecoveredJob, []string, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("service: journal scan: %w", err)
	}
	var jobs []*RecoveredJob
	var warnings []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), journalExt) {
			continue
		}
		path := filepath.Join(j.dir, e.Name())
		job, warns := recoverFile(path)
		warnings = append(warnings, warns...)
		if job != nil {
			jobs = append(jobs, job)
		}
	}
	sort.Slice(jobs, func(a, b int) bool {
		sa, _ := jobSeq(jobs[a].ID)
		sb, _ := jobSeq(jobs[b].ID)
		if sa != sb {
			return sa < sb
		}
		return jobs[a].ID < jobs[b].ID
	})
	return jobs, warnings, nil
}

// recoverFile replays one journal file. A framing error (short header,
// oversize length, CRC mismatch, bad JSON) ends the replay at the last
// good record and truncates the file there, so a reopened journal
// appends from a clean boundary. Returns nil (with warnings) for files
// that yield no usable job: empty, version-refused, or headless.
func recoverFile(path string) (*RecoveredJob, []string) {
	var warnings []string
	f, err := os.Open(path)
	if err != nil {
		return nil, []string{fmt.Sprintf("journal %s: %v", path, err)}
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, []string{fmt.Sprintf("journal %s: %v", path, err)}
	}

	var (
		job    *RecoveredJob
		good   int64 // offset just past the last fully-valid record
		header [8]byte
		refuse bool
	)
	rd := io.Reader(f)
	for {
		if _, err := io.ReadFull(rd, header[:]); err != nil {
			if err != io.EOF {
				warnings = append(warnings, fmt.Sprintf("journal %s: torn record header at offset %d: truncating", path, good))
				truncateAt(path, good, &warnings)
			}
			break
		}
		n := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if n > maxJournalRecord {
			warnings = append(warnings, fmt.Sprintf("journal %s: corrupt record length %d at offset %d: truncating", path, n, good))
			truncateAt(path, good, &warnings)
			break
		}
		// A length the rest of the file cannot hold is a torn payload; say
		// so without allocating what a garbage prefix asks for.
		var payload []byte
		torn := int64(n) > st.Size()-good-8
		if !torn {
			payload = make([]byte, n)
			_, err := io.ReadFull(rd, payload)
			torn = err != nil
		}
		if torn {
			warnings = append(warnings, fmt.Sprintf("journal %s: torn record payload at offset %d: truncating", path, good))
			truncateAt(path, good, &warnings)
			break
		}
		if crc32.ChecksumIEEE(payload) != sum {
			warnings = append(warnings, fmt.Sprintf("journal %s: CRC mismatch at offset %d: truncating", path, good))
			truncateAt(path, good, &warnings)
			break
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			warnings = append(warnings, fmt.Sprintf("journal %s: bad record JSON at offset %d: truncating", path, good))
			truncateAt(path, good, &warnings)
			break
		}
		good += int64(8 + len(payload))

		switch rec.Kind {
		case "begin":
			if rec.V > journalVersion {
				warnings = append(warnings, fmt.Sprintf("journal %s: format version %d is newer than supported %d: refusing (leave for a newer daemon)", path, rec.V, journalVersion))
				refuse = true
			}
			if job != nil || refuse {
				break
			}
			job = &RecoveredJob{ID: rec.Job, Query: rec.Query, Trials: rec.Trials, Created: rec.Created}
		case "point":
			if job == nil || job.Status != "" {
				break // headless or post-terminal: ignore
			}
			if rec.Index != len(job.Points) {
				// Points are appended in commit order, so indices are
				// contiguous from 0; a gap means lost writes. Keep the
				// contiguous prefix — it is still a valid resume point.
				warnings = append(warnings, fmt.Sprintf("journal %s: point index %d out of order (want %d): keeping contiguous prefix", path, rec.Index, len(job.Points)))
				break
			}
			job.Points = append(job.Points, RecoveredPoint{Index: rec.Index, Key: rec.Key, Line: rec.Line})
		case "end":
			if job == nil || job.Status != "" {
				break
			}
			job.Status = rec.Status
			job.Error = rec.Error
			job.EndLine = rec.Line
		}
		if refuse {
			return nil, warnings
		}
	}
	if job == nil {
		if len(warnings) == 0 {
			warnings = append(warnings, fmt.Sprintf("journal %s: no begin record: ignoring", path))
		}
		return nil, warnings
	}
	return job, warnings
}

// truncateAt cuts a journal file back to the last good record boundary.
func truncateAt(path string, off int64, warnings *[]string) {
	if err := os.Truncate(path, off); err != nil {
		*warnings = append(*warnings, fmt.Sprintf("journal %s: truncate failed: %v", path, err))
	}
}

// syncDir fsyncs a directory so a just-created or just-renamed entry
// survives power loss (a no-op where directories cannot be opened).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
