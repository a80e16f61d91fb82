package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// noLeakedCommitters fails t if, after its other cleanups (server and
// listener shutdown) have run, any goroutine of the job pipeline — a run,
// a journal committer, a log follower — is still alive. Call it first in
// a test, so its cleanup runs last; newTestServer does.
func noLeakedCommitters(t testing.TB) {
	t.Helper()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			if !bytes.Contains(buf, []byte("(*segLog).run(")) &&
				!bytes.Contains(buf, []byte("(*Server).run(")) &&
				!bytes.Contains(buf, []byte("(*jobLog).follow(")) {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutines leaked past the end of the test:\n%s", buf)
				return
			}
			time.Sleep(2 * time.Millisecond) // goroutine exit has no event to wait on
		}
	})
}

// wholeFrames walks the whole v1 frames at the start of data — what a
// crash at this instant would leave behind a possibly torn tail — and
// returns the offset just past each and each record's kind.
func wholeFrames(data []byte) (ends []int, kinds []string) {
	for off := 0; off+8 <= len(data); {
		next := off + 8 + int(binary.LittleEndian.Uint32(data[off:]))
		var rec journalRecord
		if next > len(data) || json.Unmarshal(data[off+8:next], &rec) != nil {
			break
		}
		ends, kinds = append(ends, next), append(kinds, rec.Kind)
		off = next
	}
	return ends, kinds
}

// segments returns the paths of dir's log segments, oldest first.
func segments(t testing.TB, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+segmentExt))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// onDisk returns the bytes of dir's log segments, oldest first.
func onDisk(t testing.TB, dir string) []byte {
	t.Helper()
	var data []byte
	for _, path := range segments(t, dir) {
		more, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, more...)
	}
	return data
}

// recoverDir opens dir's journal afresh and returns what it recovers.
func recoverDir(t testing.TB, dir string) ([]*RecoveredJob, []string) {
	t.Helper()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return j.Recover()
}

// jobFrames returns a job's frames as the log holds them.
func jobFrames(t testing.TB, j *Journal, id string) []byte {
	t.Helper()
	data, err := j.log.framesOf(id)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writeJournal appends one job to dir's journal through the production
// path and returns the segment it wrote. end == "" leaves the job
// incomplete (the state a crash leaves behind).
func writeJournal(t testing.TB, dir, jobID string, points int, end string) string {
	t.Helper()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	jj, err := j.Begin(jobID, smallQuery, 2, time.Unix(1700000000, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < points; i++ {
		line, _ := json.Marshal(PointEvent{Type: "point", Done: i + 1, Total: points, Index: i})
		if err := jj.Point(i, "key-"+jobID, line); err != nil {
			t.Fatal(err)
		}
	}
	if end != "" {
		line, _ := json.Marshal(ResultEvent{Type: "result", ID: jobID})
		if err := jj.End(end, "", line); err != nil {
			t.Fatal(err)
		}
	} else {
		jj.abandon()
		jj.Close()
	}
	return j.log.head.name
}

// TestJournalRoundTrip: begin + points + end written through the
// production path recover exactly, and an incomplete journal (no end
// record) comes back with empty status — the resume trigger.
func TestJournalRoundTrip(t *testing.T) {
	noLeakedCommitters(t)
	dir := t.TempDir()
	writeJournal(t, dir, "job-1", 3, "done")
	writeJournal(t, dir, "job-2", 2, "")

	j, _ := OpenJournal(dir)
	jobs, warns := j.Recover()
	if len(warns) != 0 {
		t.Fatalf("clean journals produced warnings: %v", warns)
	}
	if len(jobs) != 2 || jobs[0].ID != "job-1" || jobs[1].ID != "job-2" {
		t.Fatalf("recovered %+v", jobs)
	}
	done, crashed := jobs[0], jobs[1]
	if done.Status != "done" || len(done.Points) != 3 || done.Query != smallQuery || done.Trials != 2 {
		t.Fatalf("completed job recovered as %+v", done)
	}
	if len(done.EndLine) == 0 {
		t.Fatal("completed job lost its terminal line")
	}
	if crashed.Status != "" || len(crashed.Points) != 2 {
		t.Fatalf("crashed job recovered as %+v", crashed)
	}
	var ev PointEvent
	if err := json.Unmarshal(crashed.Points[1].Line, &ev); err != nil || ev.Done != 2 {
		t.Fatalf("point line did not survive verbatim: %s (%v)", crashed.Points[1].Line, err)
	}
	if j.maxSeq != 2 {
		t.Fatalf("maxSeq = %d, want 2", j.maxSeq)
	}
}

// TestJournalTruncatedTail: a torn final record (crash mid-append) is
// truncated away with a warning; the committed prefix survives, the
// segment is left at a clean boundary, and a Reopen appends after it.
func TestJournalTruncatedTail(t *testing.T) {
	noLeakedCommitters(t)
	dir := t.TempDir()
	path := writeJournal(t, dir, "job-1", 3, "")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: cut the file mid-payload.
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	jobs, warns := recoverDir(t, dir)
	if len(jobs) != 1 || len(jobs[0].Points) != 2 || jobs[0].Status != "" {
		t.Fatalf("recovered %+v", jobs)
	}
	if len(warns) == 0 || !strings.Contains(warns[0], "truncating") {
		t.Fatalf("torn tail not reported: %v", warns)
	}
	// The truncated segment must replay the same prefix with no warnings
	// — the repair is durable, not re-diagnosed every restart.
	j, _ := OpenJournal(dir)
	jobs, warns = j.Recover()
	if len(warns) != 0 || len(jobs[0].Points) != 2 {
		t.Fatalf("after repair: jobs=%+v warns=%v", jobs, warns)
	}
	// And an appended record continues the job.
	jj := j.Reopen("job-1")
	line, _ := json.Marshal(PointEvent{Type: "point", Done: 3, Total: 3, Index: 2})
	if err := jj.Point(2, "k", line); err != nil {
		t.Fatal(err)
	}
	jj.Close()
	jobs, warns = recoverDir(t, dir)
	if len(warns) != 0 || len(jobs[0].Points) != 3 {
		t.Fatalf("append after repair: jobs=%+v warns=%v", jobs, warns)
	}
}

// TestJournalGarbageMidFile: flipped bytes inside an earlier record (bit
// rot, torn sector) fail the CRC; recovery keeps the records before the
// damage, reports it, and never panics.
func TestJournalGarbageMidFile(t *testing.T) {
	noLeakedCommitters(t)
	dir := t.TempDir()
	path := writeJournal(t, dir, "job-1", 4, "")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte roughly in the middle — inside some point record's
	// payload, past the begin record.
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	jobs, warns := recoverDir(t, dir)
	if len(jobs) != 1 {
		t.Fatalf("recovered %+v", jobs)
	}
	if n := len(jobs[0].Points); n >= 4 || jobs[0].Query != smallQuery {
		t.Fatalf("corruption not detected: %d points recovered, query %q", n, jobs[0].Query)
	}
	found := false
	for _, w := range warns {
		if strings.Contains(w, "truncating") {
			found = true
		}
	}
	if !found {
		t.Fatalf("mid-file garbage not reported: %v", warns)
	}
}

// TestJournalOversizeLengthIsCorruption: a garbage length prefix (e.g.
// 0xffffffff) must be treated as corruption, not as an allocation
// request.
func TestJournalOversizeLengthIsCorruption(t *testing.T) {
	noLeakedCommitters(t)
	dir := t.TempDir()
	path := writeJournal(t, dir, "job-1", 2, "")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 0xffffffff)
	f.Write(hdr[:])
	f.Close()

	jobs, warns := recoverDir(t, dir)
	if len(jobs) != 1 || len(jobs[0].Points) != 2 {
		t.Fatalf("recovered %+v", jobs)
	}
	found := false
	for _, w := range warns {
		if strings.Contains(w, "corrupt record length") {
			found = true
		}
	}
	if !found {
		t.Fatalf("oversize length not reported: %v", warns)
	}
}

// TestJournalNewerVersionRefused: a job stamped with a future format
// version is left alone with an explicit warning — a downgraded daemon
// must refuse what it cannot parse rather than guess (or truncate, copy
// or delete a newer daemon's valid data), in a legacy file or a segment.
func TestJournalNewerVersionRefused(t *testing.T) {
	noLeakedCommitters(t)
	payload, _ := json.Marshal(journalRecord{
		Kind: "begin", V: journalVersion + 1, Job: "job-9", Query: smallQuery,
	})
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	for _, name := range []string{"job-9" + journalExt, "00000001" + segmentExt} {
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		jobs, warns := recoverDir(t, dir)
		if len(jobs) != 0 {
			t.Fatalf("%s: future-version journal parsed anyway: %+v", name, jobs)
		}
		if !strings.Contains(strings.Join(warns, "\n"), "newer than supported") {
			t.Fatalf("%s: version refusal not reported: %v", name, warns)
		}
		writeJournal(t, dir, "job-10", 1, "done") // a roll past the refused file
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, buf) {
			t.Fatalf("%s: refused journal was modified (%v)", name, err)
		}
	}
}

// TestJournalHeadlessFileIgnored: a journal with no begin record (or an
// empty file) yields no job and a warning, never a panic.
func TestJournalHeadlessFileIgnored(t *testing.T) {
	noLeakedCommitters(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-3"+journalExt), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, warns := recoverDir(t, dir)
	if len(jobs) != 0 || len(warns) == 0 {
		t.Fatalf("jobs=%+v warns=%v", jobs, warns)
	}
}

// TestJournalGroupCommit pins the batch semantics at the journal's own
// level: records queued while a flush is held share the next fsync, no
// line is released before its batch is on disk, lines come out in queue
// order, and the file is byte-identical to one written a record at a
// time.
func TestJournalGroupCommit(t *testing.T) {
	noLeakedCommitters(t)
	reg := obs.NewRegistry()
	appends := reg.Counter("appends_total", "Records.")
	fsyncs := reg.Histogram("fsync_seconds", "Flushes.", obs.DurationBuckets)

	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.instrument(appends, fsyncs)
	entered, hold := make(chan struct{}, 8), make(chan struct{})
	j.log.flushGate = func() {
		entered <- struct{}{}
		<-hold
	}
	created := time.Unix(1700000000, 0)
	jj, err := j.Begin("job-1", smallQuery, 2, created)
	if err != nil {
		t.Fatal(err)
	}
	var released []logLine // written by the committer, read after Close
	jj.releaseTo(func(lines []logLine) { released = append(released, lines...) })

	<-entered // the begin record's flush is held at the disk
	queued := func(_ uint64, ok bool) {
		t.Helper()
		if !ok {
			t.Fatal("journal refused an entry")
		}
	}
	jobLine, _ := json.Marshal(JobEvent{Type: "job", ID: "job-1"})
	queued(jj.enqueue(journalRecord{}, logLine{'j', jobLine}, nil))
	want := []logLine{{'j', jobLine}}
	for i := 0; i < 3; i++ {
		line, _ := json.Marshal(PointEvent{Type: "point", Done: i + 1, Total: 3, Index: i})
		queued(jj.enqueue(pointRecord(i, "key", line), logLine{'p', line}, nil))
		want = append(want, logLine{'p', line})
	}
	endLine, _ := json.Marshal(ResultEvent{Type: "result", ID: "job-1"})
	queued(jj.enqueue(endRecord("done", "", endLine), logLine{'t', endLine}, nil))
	want = append(want, logLine{'t', endLine})

	if data := onDisk(t, dir); len(data) != 0 {
		t.Fatalf("%d bytes reached the log while its first flush was held", len(data))
	}
	if n := fsyncs.Count(); n != 0 {
		t.Fatalf("%d flushes observed before any completed", n)
	}
	close(hold)
	jj.Close()

	if !reflect.DeepEqual(released, want) {
		t.Fatalf("released lines %q, want %q", released, want)
	}
	// Two batches: the begin record alone, then everything that queued
	// while it was syncing — four records behind one fsync.
	if fsyncs.Count() != 2 || appends.Value() != 5 {
		t.Fatalf("%d flushes for %d records, want 2 for 5", fsyncs.Count(), appends.Value())
	}
	// What the journal_fsync_slow alert reads is still a latency in
	// seconds — per flush now, not per record.
	if s := fsyncs.Sum(); s <= 0 || s > 60 {
		t.Fatalf("flush latency histogram sums to %v s over 2 flushes", s)
	}
	if _, ok := jj.enqueue(journalRecord{Kind: "point"}, logLine{}, nil); ok {
		t.Fatal("closed journal accepted a record")
	}

	// Same records, one blocking call each: the bytes must not differ.
	serial, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sj, err := serial.Begin("job-1", smallQuery, 2, created)
	if err != nil {
		t.Fatal(err)
	}
	for i, ln := range want[1:4] {
		if err := sj.Point(i, "key", ln.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := sj.End("done", "", endLine); err != nil {
		t.Fatal(err)
	}
	batched, oneByOne := jobFrames(t, j, "job-1"), jobFrames(t, serial, "job-1")
	if len(batched) == 0 || !bytes.Equal(batched, oneByOne) || !bytes.Equal(batched, onDisk(t, dir)) {
		t.Fatalf("batched log (%d B) differs from record-at-a-time log (%d B)", len(batched), len(oneByOne))
	}
}

// TestJournalFormatMatchesParent: format v1 is untouched. The golden file
// was written by the last commit whose journal fsync'd every record on
// its own (99895da). This code must recover it, and writing the records
// it holds must give a segment that holds that job alone byte for byte
// — so a job's frames in the log are the frames that commit's file held.
func TestJournalFormatMatchesParent(t *testing.T) {
	noLeakedCommitters(t)
	golden, err := os.ReadFile(filepath.Join("testdata", "journal_v1_parent.wtj"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "job-7"+journalExt)
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, warns := recoverDir(t, dir)
	if len(jobs) != 1 || len(warns) != 0 || jobs[0].ID != "job-7" || len(jobs[0].Points) != 3 || jobs[0].Status != "done" {
		t.Fatalf("parent's journal recovered as %+v (warnings %v)", jobs, warns)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) || !bytes.Equal(onDisk(t, dir), golden) {
		t.Fatalf("the legacy file was not copied forward byte for byte and removed (stat: %v)", err)
	}
	old := jobs[0]

	dir = t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	jj, err := j.Begin(old.ID, old.Query, old.Trials, old.Created)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range old.Points {
		jj.enqueue(pointRecord(p.Index, p.Key, p.Line), logLine{'p', p.Line}, nil)
	}
	if err := jj.End(old.Status, old.Error, old.EndLine); err != nil {
		t.Fatal(err)
	}
	if got := onDisk(t, dir); len(segments(t, dir)) != 1 || !bytes.Equal(got, golden) {
		t.Fatalf("journal bytes differ from the parent's:\n got %q\nwant %q", got, golden)
	}
}

// TestJournalTornBatch: a crash in the middle of a batch leaves any
// prefix of its bytes behind. A journal whose points and end record went
// out as one multi-record batch is cut at every byte offset of that
// batch: Recover must keep exactly the whole records before the cut,
// truncate the segment to that boundary and warn only when bytes were
// torn.
func TestJournalTornBatch(t *testing.T) {
	noLeakedCommitters(t)
	srcDir := t.TempDir()
	src, err := OpenJournal(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	entered, hold := make(chan struct{}, 8), make(chan struct{})
	src.log.flushGate = func() {
		entered <- struct{}{}
		<-hold
	}
	jj, err := src.Begin("job-1", smallQuery, 2, time.Unix(1700000000, 0))
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	const points = 4
	for i := 0; i < points; i++ {
		line, _ := json.Marshal(PointEvent{Type: "point", Done: i + 1, Total: points, Index: i})
		jj.enqueue(pointRecord(i, "key", line), logLine{'p', line}, nil)
	}
	endLine, _ := json.Marshal(ResultEvent{Type: "result", ID: "job-1"})
	jj.enqueue(endRecord("done", "", endLine), logLine{'t', endLine}, nil)
	close(hold)
	jj.Close()
	if n := len(entered); n != 1 {
		t.Fatalf("points and end went out in %d batches, want 1", n)
	}

	data := onDisk(t, srcDir)
	ends, _ := wholeFrames(data)
	if len(ends) != points+2 {
		t.Fatalf("journal holds %d records, want %d", len(ends), points+2)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "00000001"+segmentExt)
	for cut := ends[0]; cut <= len(data); cut++ {
		whole := 0 // records wholly before the cut
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jobs, warns := recoverDir(t, dir)
		if len(jobs) != 1 {
			t.Fatalf("cut %d: jobs=%+v", cut, jobs)
		}
		wantPoints, wantStatus := min(whole-1, points), ""
		if whole == len(ends) {
			wantStatus = "done"
		}
		if got := jobs[0]; len(got.Points) != wantPoints || got.Status != wantStatus {
			t.Fatalf("cut %d: recovered %d points, status %q; want %d, %q", cut, len(got.Points), got.Status, wantPoints, wantStatus)
		}
		if st, err := os.Stat(path); err != nil || st.Size() != int64(ends[whole-1]) {
			t.Fatalf("cut %d: segment left at %d bytes, want the record boundary %d", cut, st.Size(), ends[whole-1])
		}
		if torn := cut != ends[whole-1]; torn != (len(warns) > 0) {
			t.Fatalf("cut %d: torn=%v but warnings %v", cut, torn, warns)
		}
	}
}

// interleavedSegment returns a segment holding two jobs whose records
// alternate, so that markers sit between them, and the jobs' frames.
func interleavedSegment(t testing.TB) (segment []byte, frames [2][]byte) {
	t.Helper()
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	var jjs [2]*JobJournal
	for k := range jjs {
		if jjs[k], err = j.Begin(fmt.Sprintf("job-%d", k+1), smallQuery, 2, time.Unix(1700000000, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		for _, jj := range jjs {
			line, _ := json.Marshal(PointEvent{Type: "point", Done: i + 1, Total: 2, Index: i})
			if err := jj.Point(i, "key", line); err != nil {
				t.Fatal(err)
			}
		}
	}
	endLine, _ := json.Marshal(ResultEvent{Type: "result", ID: "job-1"})
	if err := jjs[0].End("done", "", endLine); err != nil {
		t.Fatal(err)
	}
	jjs[1].Close()
	return onDisk(t, dir), [2][]byte{jobFrames(t, j, "job-1"), jobFrames(t, j, "job-2")}
}

// TestJournalMarkers: records of interleaved jobs share a segment with a
// marker before each record whose job differs from the previous record's,
// and none elsewhere; each job's frames are those it would have written
// alone, and both jobs recover.
func TestJournalMarkers(t *testing.T) {
	noLeakedCommitters(t)
	data, frames := interleavedSegment(t)
	_, kinds := wholeFrames(data)
	if got := strings.Join(kinds, " "); got != "begin begin job point job point job point job point job end" {
		t.Fatalf("segment holds [%s]", got)
	}
	if len(frames[0])+len(frames[1]) >= len(data) {
		t.Fatal("the jobs' frames include the markers")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "00000001"+segmentExt), data, 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, warns := recoverDir(t, dir)
	if len(warns) != 0 || len(jobs) != 2 || jobs[0].Status != "done" || len(jobs[0].Points) != 2 ||
		jobs[1].Status != "" || len(jobs[1].Points) != 2 {
		t.Fatalf("recovered %+v (warnings %v)", jobs, warns)
	}
}

// copiedForward returns a journal directory in which a roll copied a
// job forward: job-1 begins, a filler job fills a segment and is dropped,
// and job-1's next record, past the roll size, takes its frames along.
func copiedForward(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	j, err := openJournal(disk{osFS{}, 1024}, dir)
	if err != nil {
		t.Fatal(err)
	}
	long, err := j.Begin("job-1", smallQuery, 2, time.Unix(1700000000, 0))
	if err != nil {
		t.Fatal(err)
	}
	filler, err := j.Begin("job-2", strings.Repeat(bigQuery, 8), 2, time.Unix(1700000000, 0))
	if err != nil {
		t.Fatal(err)
	}
	filler.Close()
	j.log.drop("job-2")
	line, _ := json.Marshal(PointEvent{Type: "point", Done: 1, Total: 2, Index: 0})
	if err := long.Point(0, "key", line); err != nil {
		t.Fatal(err)
	}
	long.abandon()
	long.Close()
	j.log.sync()
	return dir
}

// TestJournalCopyForward: a roll copies a running job out of a segment
// that is mostly dead, deletes that segment once the copy is durable, and
// the job recovers whole from the copy.
func TestJournalCopyForward(t *testing.T) {
	noLeakedCommitters(t)
	dir := copiedForward(t)
	segs := segments(t, dir)
	if len(segs) != 1 || !strings.HasSuffix(segs[0], "00000002"+segmentExt) {
		t.Fatalf("segments after the roll: %v", segs)
	}
	_, kinds := wholeFrames(onDisk(t, dir))
	if got := strings.Join(kinds, " "); got != "begin point" {
		t.Fatalf("the new segment holds [%s], want job-1's begin copied, then its point", got)
	}
	jobs, warns := recoverDir(t, dir)
	if len(warns) != 0 || len(jobs) != 1 || jobs[0].ID != "job-1" || len(jobs[0].Points) != 1 {
		t.Fatalf("recovered %+v (warnings %v)", jobs, warns)
	}
}

// FuzzRecoverFile: the log scanner over arbitrary segment bytes never
// panics and never hangs, and its repair is stable — a second scan of
// what the first left behind recovers the same jobs, repairing nothing.
func FuzzRecoverFile(f *testing.F) {
	dir := f.TempDir()
	writeJournal(f, dir, "job-1", 3, "done")
	valid := onDisk(f, dir)
	// The hand-written corruption suite's cases, as seeds.
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-10]) // torn tail
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0xff // garbage mid-segment
	f.Add(flipped)
	f.Add(append(bytes.Clone(valid), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)) // oversize length
	f.Add(bytes.Replace(valid, []byte(`"v":1`), []byte(`"v":2`), 1))      // CRC now wrong
	newer, _ := appendFrame(nil, &journalRecord{Kind: "begin", V: journalVersion + 1, Job: "job-9"})
	f.Add(newer)                // refused version
	f.Add(valid[len(valid)/3:]) // headless
	multi, _ := interleavedSegment(f)
	f.Add(multi) // two jobs, with markers
	f.Add(onDisk(f, copiedForward(f)))
	f.Add(append(bytes.Clone(valid), onDisk(f, copiedForward(f))...)) // a job and its copy

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000001"+segmentExt), data, 0o644); err != nil {
			t.Fatal(err)
		}
		first, _ := recoverDir(t, dir)
		second, warns := recoverDir(t, dir)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("recovery is not stable:\nfirst  %+v\nsecond %+v", first, second)
		}
		for _, w := range warns {
			if strings.Contains(w, "truncating") {
				t.Fatalf("second pass still repairing: %v", warns)
			}
		}
		for _, job := range first {
			for i, p := range job.Points {
				if p.Index != i {
					t.Fatalf("recovered points not contiguous: %d at position %d", p.Index, i)
				}
			}
		}
	})
}

// framesOf returns owner's frames, in order.
func (l *segLog) framesOf(owner string) ([]byte, error) {
	l.mu.Lock()
	exts := slices.Clone(l.owned[owner])
	l.mu.Unlock()
	return readExtents(nil, exts)
}

// sync blocks until everything the job queued has been flushed and
// released.
func (jj *JobJournal) sync() {
	jj.log.mu.Lock()
	defer jj.log.mu.Unlock()
	jj.log.waitFor(jj.last)
}
