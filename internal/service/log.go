package service

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// A durable log is a directory of segments: files of v1 frames,
//
//	[4B little-endian payload length][4B CRC-32 (IEEE) of payload][payload JSON]
//
// only ever appended to. The journal keeps one in JournalDir, the disk
// cache one in CacheDir. Every frame belongs to an owner (a job id, a
// cache key), and the log knows where each owner's frames are.
//
// Appends are group-committed. A caller frames its record into the open
// batch and may wait; one committer goroutine, started when there is work
// and gone when there is none, writes everything queued, from every job
// and every Put, with one write and one fsync, and only then releases
// the batch's lines, in queue order. A segment is created and the
// directory fsync'd once per roll, on the committer.
//
// Bound: an owner the caller is done with (an evicted job) is dropped,
// and the committer deletes a segment no owner holds a frame in. A roll
// copies forward, as byte-identical frames, the owners of every legacy
// file and of every older segment whose live frames fill less than half
// of it, and deletes that segment once the copy is durable.
//
// Failure: a failed write, fsync or directory fsync truncates the head to
// its last durable frame and seals it; the jobs with records in that
// batch stop writing (their lines still flow, non-durably) and the next
// batch starts a new segment. On open, a damaged tail is cut back to the
// last whole frame.

const (
	// segmentExt names segments. Older builds read only ".wtj" and ".json"
	// files, so they neither misread nor delete one.
	segmentExt = ".wtlog"
	// segmentRoll is the head size past which the next batch starts a new
	// segment: about 400 eight-point jobs.
	segmentRoll = 4 << 20
	// maxJournalRecord bounds one frame's payload; a larger length prefix
	// is corruption, not an allocation request.
	maxJournalRecord = 64 << 20
)

// logFS is the narrow file interface a durable log works through: osFS,
// or a test's recording file system.
type logFS interface {
	Create(name string) (logFile, error) // a new, empty file
	Open(name string) (logFile, error)   // an existing file
	Remove(name string) error
	ReadDir(dir string) ([]string, error)
	SyncDir(dir string) error
}

// logFile is an open segment: appended to, read back at offsets.
type logFile interface {
	io.ReaderAt
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// disk is where durable logs live: the file system and the roll size.
// Only tests build one other than osDisk.
type disk struct {
	fs   logFS
	roll int64
}

var osDisk = disk{osFS{}, segmentRoll}

type osFS struct{}

func (osFS) Create(name string) (logFile, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
}

func (osFS) Open(name string) (logFile, error) { return os.OpenFile(name, os.O_RDWR, 0) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.Readdirnames(-1)
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// segment is one file of a log. seq 0 marks a legacy file, a one-job
// segment an older build wrote, which is copied forward at open.
type segment struct {
	name   string
	seq    int
	f      logFile
	size   int64 // bytes of whole, durable frames
	live   int64 // bytes of frames an owner holds
	pinned bool  // holds what this build refuses to read: never removed or copied
}

// extent is a run of one owner's frames in a segment.
type extent struct {
	seg    *segment
	off, n int64
}

// entry is one queued record, line or both. Its frame, if it has one, is
// its batch's frames[previous entry's end:end].
type entry struct {
	owner string // "" for no frame
	end   int
	at    int64 // where the committer put the frame in its write
	opens bool  // the frame names its owner (begin, cache entry): no marker
	jj    *JobJournal
	line  logLine
	span  *obs.SpanHandle
}

// batch is what accumulates while the previous batch is on its way to the
// disk: records framed straight into one buffer, and their entries.
type batch struct {
	frames  []byte
	entries []entry
}

// frame appends rec to the batch as one v1 frame.
func (b *batch) frame(rec *journalRecord) (err error) {
	b.frames, err = appendFrame(b.frames, rec)
	return err
}

// frameWriter appends what its encoder writes to b. Pooled, so framing a
// record allocates nothing of its own.
type frameWriter struct {
	b   []byte
	enc *json.Encoder
}

func (w *frameWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

var frameWriters = sync.Pool{New: func() any {
	w := new(frameWriter)
	w.enc = json.NewEncoder(w)
	return w
}}

// appendFrame appends rec as one v1 frame: header, then exactly the bytes
// json.Marshal(rec) yields. On error b is returned as it was.
func appendFrame(b []byte, rec *journalRecord) ([]byte, error) {
	w := frameWriters.Get().(*frameWriter)
	defer frameWriters.Put(w)
	start := len(b)
	w.b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	err := w.enc.Encode(rec) // writes nothing unless it succeeds
	if b, w.b = w.b, nil; err != nil {
		return b[:start], err
	}
	b = b[:len(b)-1] // the newline Encode ends with
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-8))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(b[start+8:]))
	return b, nil
}

// move is one owner a roll copies forward.
type move struct {
	owner string
	from  []extent
	at, n int64
}

// segLog is one directory's durable log.
type segLog struct {
	disk
	dir string
	// appends and fsync count records made durable and time each batch's
	// write + fsync (nil-safe); flushGate (tests only) runs just before a
	// batch is written.
	appends   *obs.Counter
	fsync     *obs.Histogram
	flushGate func()

	mu               sync.Mutex
	cond             sync.Cond // a batch done, or the committer gone
	open, spare      *batch    // spare is nil while a batch is in flight
	queued, released uint64    // entries ever queued; entries whose batch is done
	running          bool      // a committer is live
	compact          bool      // the next batch rolls, whatever the head's size
	segs             []*segment
	head             *segment // nil: the next write starts a segment
	owned            map[string][]extent
	dead             []*segment // for the committer to delete

	// The committer's own: the head's last owner, the highest segment
	// number, the write buffer and the lines of one release.
	last  string
	seq   int
	w     []byte
	lines []logLine
}

// openLog scans dir: the legacy files with suffix legacy (none when ""),
// then the segments in order, handing each whole frame to apply, which
// takes what it wants with own. A damaged tail is reported and cut back
// to the last whole frame. It also returns the names dir holds.
func openLog(d disk, dir, legacy string, apply func(*segLog, extent, *journalRecord)) (*segLog, []string, []string, error) {
	names, err := d.fs.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("service: log %s: %w", dir, err)
	}
	l := &segLog{disk: d, dir: dir, open: new(batch), spare: new(batch), owned: map[string][]extent{}}
	l.cond.L = &l.mu
	for _, name := range names {
		seq, err := strconv.Atoi(strings.TrimSuffix(name, segmentExt))
		if ok := err == nil && seq > 0 && strings.HasSuffix(name, segmentExt); ok || legacy != "" && strings.HasSuffix(name, legacy) {
			l.seq = max(l.seq, seq)
			l.segs = append(l.segs, &segment{name: filepath.Join(dir, name), seq: max(seq, 0)})
		}
	}
	slices.SortFunc(l.segs, func(a, b *segment) int { return cmp.Or(cmp.Compare(a.seq, b.seq), strings.Compare(a.name, b.name)) })
	var warnings []string
	for _, s := range l.segs {
		var data []byte
		if s.f, err = d.fs.Open(s.name); err == nil {
			data, err = io.ReadAll(io.NewSectionReader(s.f, 0, math.MaxInt64))
		}
		if err != nil {
			warnings = append(warnings, fmt.Sprintf("log %s: %v", s.name, err))
			s.pinned = true
			continue
		}
		var damage string
		s.size, damage = scanFrames(data, func(off, n int64, rec *journalRecord) { apply(l, extent{s, off, n}, rec) })
		if damage != "" {
			warnings = append(warnings, fmt.Sprintf("log %s: %s at offset %d: truncating", s.name, damage, s.size))
			if err := s.f.Truncate(s.size); err != nil {
				warnings = append(warnings, fmt.Sprintf("log %s: truncate failed: %v", s.name, err))
			}
		}
	}
	return l, names, warnings, nil
}

// scanFrames hands fn every whole frame at the start of data, and returns
// where the last one ends and, if data goes on past it, why it stopped.
func scanFrames(data []byte, fn func(off, n int64, rec *journalRecord)) (int64, string) {
	off := 0
	for ; off < len(data); off += 8 + int(binary.LittleEndian.Uint32(data[off:])) {
		if len(data)-off < 8 {
			return int64(off), "torn record header"
		}
		n := binary.LittleEndian.Uint32(data[off:])
		if n > maxJournalRecord {
			return int64(off), fmt.Sprintf("corrupt record length %d", n)
		}
		if int64(n) > int64(len(data)-off-8) {
			return int64(off), "torn record payload"
		}
		var rec journalRecord
		payload := data[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:]) {
			return int64(off), "CRC mismatch"
		}
		if json.Unmarshal(payload, &rec) != nil {
			return int64(off), "bad record JSON"
		}
		fn(int64(off), int64(8+n), &rec)
	}
	return int64(off), ""
}

// own records that owner's next frame is e; a frame that opens its owner
// replaces what the owner held. Caller holds l.mu, or is opening l.
func (l *segLog) own(owner string, e extent, opens bool) {
	if opens {
		l.disown(owner)
	}
	l.owned[owner] = append(l.owned[owner], e)
	e.seg.live += e.n
}

// disown forgets where owner's frames are. Caller holds l.mu.
func (l *segLog) disown(owner string) {
	for _, e := range l.owned[owner] {
		e.seg.live -= e.n
	}
	delete(l.owned, owner)
}

// drop forgets owner for good: a segment left holding no live frame is
// deleted by the committer.
func (l *segLog) drop(owner string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.disown(owner)
	l.reap()
}

// reap hands every segment other than the head that holds no live frame
// to the committer for deletion. Caller holds l.mu.
func (l *segLog) reap() {
	kept := l.segs[:0]
	for _, s := range l.segs {
		if s.live == 0 && s != l.head && !s.pinned {
			l.dead = append(l.dead, s)
		} else {
			kept = append(kept, s)
		}
	}
	clear(l.segs[len(kept):])
	if l.segs = kept; len(l.dead) > 0 {
		l.wake()
	}
}

// push queues e, whose frame (if any) is the open batch's last, and
// returns its sequence number. Caller holds l.mu.
func (l *segLog) push(e entry) uint64 {
	e.end = len(l.open.frames)
	l.open.entries = append(l.open.entries, e)
	l.queued++
	l.wake()
	return l.queued
}

// wake starts a committer unless one is running. Caller holds l.mu.
func (l *segLog) wake() {
	if !l.running {
		l.running = true
		go l.run()
	}
}

// waitFor blocks until entry seq's batch is done. Caller holds l.mu.
func (l *segLog) waitFor(seq uint64) {
	for l.released < seq {
		l.cond.Wait()
	}
}

// sync blocks until everything queued so far is done.
func (l *segLog) sync() {
	if l != nil {
		l.mu.Lock()
		l.waitFor(l.queued)
		l.mu.Unlock()
	}
}

// put appends a frame that opens owner, unless the log holds owner
// already, and returns once its batch is done, reporting whether the log
// holds owner now.
func (l *segLog) put(owner string, rec *journalRecord) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.owned[owner]; !ok && l.open.frame(rec) == nil {
		l.waitFor(l.push(entry{owner: owner, opens: true}))
	}
	_, ok := l.owned[owner]
	return ok
}

// read returns the payload of owner's one frame, or false: no such owner,
// or a frame that does not read back whole.
func (l *segLog) read(owner string) ([]byte, bool) {
	l.mu.Lock()
	exts := l.owned[owner]
	l.mu.Unlock()
	if len(exts) != 1 {
		return nil, false
	}
	data, err := readExtents(nil, exts)
	if err != nil || binary.LittleEndian.Uint32(data) != uint32(len(data)-8) ||
		crc32.ChecksumIEEE(data[8:]) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, false
	}
	return data[8:], true
}

// readExtents appends the bytes of exts to b.
func readExtents(b []byte, exts []extent) ([]byte, error) {
	for _, e := range exts {
		b = append(b, make([]byte, e.n)...)
		if _, err := e.seg.f.ReadAt(b[int64(len(b))-e.n:], e.off); err != nil {
			return b, err
		}
	}
	return b, nil
}

// run is the committer: take everything queued, make it durable with one
// write and one fsync, release its lines, and delete what reap found dead,
// until there is nothing left to do.
func (l *segLog) run() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.queued != l.released || l.compact || len(l.dead) > 0 {
		b, upTo := l.open, l.queued
		l.open, l.spare = l.spare, nil
		writes := l.compact
		for i := range b.entries {
			if e := &b.entries[i]; e.jj != nil && e.jj.err != nil {
				e.owner = "" // its job stopped writing since it queued
			}
			writes = writes || b.entries[i].owner != ""
		}
		roll := writes && (l.compact || l.head == nil || l.head.size >= l.roll)
		var moves []move
		if roll {
			moves = l.sparse()
		}
		l.compact = false
		l.mu.Unlock()
		var fresh *segment
		var records int
		var err error
		if writes {
			fresh, records, err = l.write(b, roll, moves)
		}
		l.mu.Lock()
		l.settle(b, fresh, moves, err)
		dead := l.dead
		l.dead = nil
		l.mu.Unlock()
		l.hand(b, records, err)
		l.remove(dead)
		l.mu.Lock()
		clear(b.entries)
		b.frames, b.entries = b.frames[:0], b.entries[:0]
		l.spare, l.released = b, upTo
		l.cond.Broadcast()
	}
	l.running = false
	l.cond.Broadcast()
}

// remove deletes dead segments, and makes the deletion of a legacy file
// durable: it must not come back to be imported again.
func (l *segLog) remove(dead []*segment) {
	legacy := false
	for _, s := range dead {
		if s.f != nil {
			s.f.Close()
		}
		l.fs.Remove(s.name)
		legacy = legacy || s.seq == 0
	}
	if legacy {
		l.fs.SyncDir(l.dir)
	}
}

// sparse lists the owners a roll copies forward, oldest first: every
// owner with a frame in a legacy file or in a segment whose live frames
// fill less than half of it. Caller holds l.mu.
func (l *segLog) sparse() []move {
	thin := map[*segment]bool{}
	for _, s := range l.segs {
		thin[s] = !s.pinned && s.live > 0 && (s.seq == 0 || 2*s.live < s.size)
	}
	var moves []move
	for owner, exts := range l.owned {
		if slices.ContainsFunc(exts, func(e extent) bool { return thin[e.seg] }) {
			moves = append(moves, move{owner: owner, from: slices.Clone(exts)})
		}
	}
	slices.SortFunc(moves, func(a, b move) int {
		x, y := a.from[0], b.from[0]
		return cmp.Or(cmp.Compare(x.seg.seq, y.seg.seq), strings.Compare(x.seg.name, y.seg.name), cmp.Compare(x.off, y.off))
	})
	return moves
}

// write makes one batch durable — the moves, then each frame, behind a
// marker when its owner differs from the previous frame's — with one
// write and one fsync, into a new segment when roll is set. It returns
// the new segment and the number of records written.
func (l *segLog) write(b *batch, roll bool, moves []move) (*segment, int, error) {
	if l.flushGate != nil {
		l.flushGate()
	}
	head := l.head
	var fresh *segment
	if roll {
		l.seq++
		name := filepath.Join(l.dir, fmt.Sprintf("%08d%s", l.seq, segmentExt))
		f, err := l.fs.Create(name)
		if err != nil {
			return nil, 0, err
		}
		fresh = &segment{name: name, seq: l.seq, f: f}
		head, l.last = fresh, ""
		if err := l.fs.SyncDir(l.dir); err != nil {
			return fresh, 0, err
		}
	}
	w := l.w[:0]
	for i := range moves {
		m := &moves[i]
		m.at = int64(len(w))
		var err error
		if w, err = readExtents(w, m.from); err != nil {
			w, m.at = w[:m.at], -1
		} else {
			m.n, l.last = int64(len(w))-m.at, m.owner
		}
	}
	records, start := 0, 0
	for i := range b.entries {
		if e := &b.entries[i]; e.owner != "" {
			if !e.opens && e.owner != l.last {
				w, _ = appendFrame(w, &journalRecord{Kind: "job", Job: e.owner})
			}
			e.at, l.last = int64(len(w)), e.owner
			w = append(w, b.frames[start:e.end]...)
			records++
		}
		start = b.entries[i].end
	}
	l.w = w
	t0 := time.Now()
	_, err := head.f.Write(w)
	if err == nil {
		err = head.f.Sync()
	}
	if err != nil {
		head.f.Truncate(head.size) // best effort: a scan cuts a torn tail anyway
		return fresh, records, fmt.Errorf("service: log %s: %w", head.name, err)
	}
	l.fsync.Observe(time.Since(t0).Seconds())
	l.appends.Add(uint64(records))
	return fresh, records, nil
}

// settle records where a done batch's frames went, or that they did not.
// Caller holds l.mu.
func (l *segLog) settle(b *batch, fresh *segment, moves []move, err error) {
	if fresh != nil {
		l.segs, l.head = append(l.segs, fresh), fresh
	}
	var base int64
	if l.head != nil {
		base = l.head.size
	}
	for _, m := range moves {
		if _, live := l.owned[m.owner]; live && m.at >= 0 && err == nil {
			l.own(m.owner, extent{l.head, base + m.at, m.n}, true)
		}
	}
	start := 0
	for _, e := range b.entries {
		switch {
		case e.owner == "":
		case err != nil:
			if e.jj != nil && e.jj.err == nil {
				e.jj.err = err
			}
		default:
			l.own(e.owner, extent{l.head, base + e.at, int64(e.end - start)}, e.opens)
		}
		start = e.end
	}
	if err != nil {
		l.head = nil // sealed at its last durable frame
	} else if l.head != nil {
		l.head.size += int64(len(l.w))
	}
	l.w = l.w[:0]
	l.reap()
}

// hand releases a done batch's lines to their jobs, in queue order, and
// ends its spans.
func (l *segLog) hand(b *batch, records int, err error) {
	n := strconv.Itoa(records)
	for i := 0; i < len(b.entries); {
		jj, lines := b.entries[i].jj, l.lines[:0]
		for ; i < len(b.entries) && b.entries[i].jj == jj; i++ {
			e := &b.entries[i]
			if e.span != nil {
				if err != nil {
					e.span.Attr("error", err.Error())
				}
				e.span.Attr("batch", n).End()
			}
			if e.line.data != nil {
				lines = append(lines, e.line)
			}
		}
		// Lines are queued only after releaseTo, which the lock orders
		// before this batch was taken; a begin alone is not read.
		if len(lines) > 0 && jj.release != nil {
			jj.release(lines)
		}
		clear(lines)
		l.lines = lines
	}
}
