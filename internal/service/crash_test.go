package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// memFS is an in-memory logFS that keeps what a power cut would: a
// file's writes are volatile until it syncs, a create or remove until its
// directory syncs. Before every operation that changes state it calls
// hook, which sees the state a crash at that instant would leave.
type memFS struct {
	mu   sync.Mutex
	live map[string]*memFile // the names the program sees
	disk map[string]*memFile // the names as of their directory's last sync
	last *memFile            // the file of the most recent write, if unsynced
	hook func(op, name string)
	ops  map[string]int // operations by kind
}

type memFile struct {
	fs      *memFS
	name    string
	data    []byte // what reads see
	durable []byte // the data as of the last sync; never written to
	tail    []byte // the last write since that sync
}

func newMemFS() *memFS {
	return &memFS{live: map[string]*memFile{}, disk: map[string]*memFile{}, ops: map[string]int{}}
}

// plant adds a file as durable as if it had always been there.
func (fs *memFS) plant(name string, data []byte) {
	f := &memFile{fs: fs, name: name, data: bytes.Clone(data), durable: bytes.Clone(data)}
	fs.live[name], fs.disk[name] = f, f
}

// op counts an operation and runs the hook before it. Caller holds no
// lock: the hook may open logs of its own.
func (fs *memFS) op(kind, name string) {
	fs.mu.Lock()
	fs.ops[kind]++
	hook := fs.hook
	fs.mu.Unlock()
	if hook != nil {
		hook(kind, name)
	}
}

func (fs *memFS) Create(name string) (logFile, error) {
	fs.op("create", name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.live[name] != nil {
		return nil, os.ErrExist
	}
	f := &memFile{fs: fs, name: name}
	fs.live[name] = f
	return f, nil
}

func (fs *memFS) Open(name string) (logFile, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.live[name]; f != nil {
		return f, nil
	}
	return nil, os.ErrNotExist
}

func (fs *memFS) Remove(name string) error {
	fs.op("remove", name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.live, name)
	return nil
}

func (fs *memFS) ReadDir(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var names []string
	for name := range fs.live {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (fs *memFS) SyncDir(dir string) error {
	fs.op("syncdir", dir)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for name := range fs.disk {
		if filepath.Dir(name) == dir && fs.live[name] == nil {
			delete(fs.disk, name)
		}
	}
	for name, f := range fs.live {
		if filepath.Dir(name) == dir {
			fs.disk[name] = f
		}
	}
	return nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.op("write", f.name)
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.data = append(f.data, p...)
	f.tail, f.fs.last = bytes.Clone(p), f
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.op("sync", f.name)
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.durable, f.tail = f.data[:len(f.data):len(f.data)], nil // appends go past it
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.op("truncate", f.name)
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.data, f.tail = bytes.Clone(f.data[:min(size, int64(len(f.data)))]), nil // leaves durable whole
	return nil
}

func (f *memFile) Close() error { return nil }

// crashState is what a power cut leaves: every file's durable bytes, and
// for the tearing variants a prefix of the last unsynced write on top.
type crashState struct {
	files   map[string][]byte
	torn    string // the file with a torn write, "" for none
	extra   []byte // what of that write survived
	seen    map[string]int
	dropped map[string]bool
}

// crashStates returns the states a crash now could leave: every unsynced
// write dropped; and the last one torn inside each of its frames and at
// each frame boundary. Caller holds fs.mu.
func (fs *memFS) crashStates() []crashState {
	files := map[string][]byte{}
	for name, f := range fs.disk {
		files[name] = f.durable
	}
	states := []crashState{{files: files}}
	if f := fs.last; f != nil && f.tail != nil && fs.disk[f.name] == f {
		ends, _ := wholeFrames(f.tail)
		prev := 0
		for _, end := range ends {
			states = append(states, crashState{files: files, torn: f.name, extra: f.tail[:(prev+end)/2]})
			if end < len(f.tail) {
				states = append(states, crashState{files: files, torn: f.name, extra: f.tail[:end]})
			}
			prev = end
		}
	}
	return states
}

// restore builds a file system holding s.
func (s crashState) restore() *memFS {
	fs := newMemFS()
	for name, data := range s.files {
		if name == s.torn {
			data = append(bytes.Clone(data), s.extra...)
		}
		fs.plant(name, data)
	}
	return fs
}

// crashScript is what TestCrashPointsOfTheLog runs against the log: its
// file system, the crash states met on the way and what each job queued.
type crashScript struct {
	fs     *memFS
	roll   int64
	mu     sync.Mutex
	srv    *Server
	states []crashState
	// legacy checks: a legacy file's removal found its copy not durable.
	legacy []string
	// dropped are the jobs evicted so far; lines the record lines each job
	// queued (points, then its terminal line), complete once the script is
	// done.
	dropped map[string]bool
	lines   map[string][][]byte
}

const (
	crashJournal = "/j"
	crashCache   = "/c"
)

// seen returns, per job the server holds, how many of its point and
// terminal lines its followers may have seen.
func (cs *crashScript) seen() map[string]int {
	seen := map[string]int{}
	cs.mu.Lock()
	srv := cs.srv
	cs.mu.Unlock()
	if srv == nil {
		return seen
	}
	srv.mu.Lock()
	jobs := make([]*job, 0, len(srv.jobs))
	for _, j := range srv.jobs {
		jobs = append(jobs, j)
	}
	srv.mu.Unlock()
	for _, j := range jobs {
		j.log.mu.Lock()
		for _, ln := range j.log.lines {
			if ln.kind != 'j' {
				seen[j.info.ID]++
			}
		}
		j.log.mu.Unlock()
	}
	return seen
}

// hook records the crash states before an operation, and checks that a
// legacy file is removed only once its copy is durable.
func (cs *crashScript) hook(op, name string) {
	// What followers saw, then what the disk holds: a line is released
	// only once durable, so the disk can only be ahead.
	seen := cs.seen()
	cs.mu.Lock()
	dropped := make(map[string]bool, len(cs.dropped))
	for id := range cs.dropped {
		dropped[id] = true
	}
	cs.mu.Unlock()
	cs.fs.mu.Lock()
	states := cs.fs.crashStates()
	cs.fs.mu.Unlock()
	for i := range states {
		states[i].seen, states[i].dropped = seen, dropped
	}
	cs.mu.Lock()
	cs.states = append(cs.states, states...)
	cs.mu.Unlock()
	if op != "remove" || !(strings.HasSuffix(name, journalExt) || strings.HasSuffix(name, ".json")) {
		return
	}
	// The removal may reach the disk before anything else does.
	st := states[0]
	fs := st.restore()
	delete(fs.live, name)
	delete(fs.disk, name)
	held := false
	if id, ok := strings.CutSuffix(filepath.Base(name), journalExt); ok {
		j, err := openJournal(disk{fs, cs.roll}, crashJournal)
		held = err == nil && slices.ContainsFunc(j.jobs, func(r *RecoveredJob) bool { return r.ID == id })
	} else if l, err := openDiskTier(disk{fs, cs.roll}, crashCache); err == nil {
		_, held = l.read(strings.TrimSuffix(filepath.Base(name), ".json"))
	}
	if !held {
		cs.mu.Lock()
		cs.legacy = append(cs.legacy, name)
		cs.mu.Unlock()
	}
}

// TestCrashPointsOfTheLog enumerates every crash point of a script over
// the durable logs — the parent_be31c54 import, two concurrent jobs of
// which one is cancelled, a third that finishes, their cache Puts, a roll
// that copies a running job forward and a segment deleted after eviction
// — and at each, with every unsynced write dropped and with the last one
// torn inside and between its frames, recovers the journal and the disk
// tier and checks what a restart would serve.
func TestCrashPointsOfTheLog(t *testing.T) {
	noLeakedCommitters(t)
	fixture := filepath.Join("testdata", "parent_be31c54")
	cs := &crashScript{fs: newMemFS(), roll: 2048, dropped: map[string]bool{}, lines: map[string][][]byte{}}
	for _, sub := range []struct{ from, to string }{{"journal", crashJournal}, {"cache", crashCache}} {
		entries, err := os.ReadDir(filepath.Join(fixture, sub.from))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(fixture, sub.from, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			cs.fs.plant(filepath.Join(sub.to, e.Name()), data)
		}
	}
	cs.fs.hook = cs.hook
	cs.hook("start", "")

	cfg := Config{PoolSize: 2, JournalDir: crashJournal, CacheDir: crashCache}
	srv, err := newServer(cfg, disk{cs.fs, cs.roll})
	if err != nil {
		t.Fatal(err)
	}
	cs.mu.Lock()
	cs.srv = srv
	cs.mu.Unlock()
	if resumed, warns, err := srv.Recover(); err != nil || resumed != 1 {
		t.Fatalf("Recover resumed %d (%v, %v), want job-2", resumed, err, warns)
	}
	queries := map[string]string{"job-1": parentFinished, "job-2": parentCrashed}

	// Two concurrent jobs, one cancelled after its first point; then a
	// third that finishes.
	pointed := make(chan struct{})
	var once sync.Once
	srv.setPointGate(func(index int) {
		if index == 1 {
			once.Do(func() { close(pointed) })
		}
	})
	submit := func(query string) string {
		id, err := srv.Submit(QueryRequest{Query: query})
		if err != nil {
			t.Fatal(err)
		}
		queries[id] = query
		return id
	}
	a := submit(strings.Replace(smallQuery, "trials = 2", "trials = 2, seed = 31", 1))
	b := submit(strings.Replace(smallQuery, "trials = 2", "trials = 2, seed = 32", 1))
	<-pointed
	srv.Cancel(b)
	c := submit(strings.Replace(smallQuery, "trials = 2", "trials = 2, seed = 33", 1))
	for _, id := range []string{"job-2", a, b, c} {
		collectJob(t, srv, id, 0)
	}

	// A job held running at its second point while filler jobs roll the
	// journal and are evicted: a roll copies the held job forward, and the
	// segments the fillers leave are deleted.
	hold, held := make(chan struct{}), make(chan struct{})
	srv.setPointGate(func(index int) {
		if index == 1 {
			close(held)
			<-hold
		}
	})
	d := submit(strings.Replace(smallQuery, "trials = 2", "trials = 2, seed = 34", 1))
	<-held
	srv.setPointGate(nil)
	// The held job's records reach the log behind a batch the job does not
	// wait for: wait for it here, or under load the job can reach its
	// second point before its first record owns a segment.
	for _, jj := range srv.journals() {
		jj.sync()
	}
	l := srv.journal.log
	l.mu.Lock()
	first := l.owned[d][0].seg
	l.mu.Unlock()
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("job-%d", 100+i)
		jj, err := srv.journal.Begin(id, "not a query", 0, time.Unix(1700000000, 0))
		if err != nil {
			t.Fatal(err)
		}
		line, _ := json.Marshal(ResultEvent{Type: "result", ID: id, Table: strings.Repeat("x", 300)})
		if err := jj.End("done", "", line); err != nil {
			t.Fatal(err)
		}
		cs.lines[id] = [][]byte{line}
		cs.mu.Lock()
		cs.dropped[id] = true
		cs.mu.Unlock()
		srv.journal.log.drop(id)
	}
	close(hold)
	collectJob(t, srv, d, 0)
	srv.Close()
	cs.hook("end", "")
	cs.fs.hook = nil

	// What each job queued, and what each query answers.
	ref, err := New(Config{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	tables := map[string]string{}
	for id, q := range queries {
		if id != "job-1" {
			rid, err := ref.Submit(QueryRequest{Query: q})
			if err != nil {
				t.Fatal(err)
			}
			tables[id] = tableOf(t, collectJob(t, ref, rid, 0))
		}
		cs.lines[id] = collectJob(t, srv, id, 0)[1:]
	}
	if st := srv.Cache().Stats(); st.Puts == 0 {
		t.Fatal("the script put nothing in the cache")
	}
	if n := cs.fs.ops["remove"]; n < 10 {
		t.Fatalf("the script removed %d files; want the 9 legacy files and an evicted segment", n)
	}
	if slices.ContainsFunc(l.owned[d], func(e extent) bool { return e.seg == first }) {
		t.Fatal("no roll copied the held job forward")
	}
	entries := map[string][]byte{}
	for key := range srv.cache.disk.owned {
		payload, _ := srv.cache.disk.read(key)
		entries[key] = payload
	}

	if len(cs.legacy) > 0 {
		t.Fatalf("legacy files removed before their copies were durable: %v", cs.legacy)
	}
	resumed := map[string]bool{}
	for i, st := range cs.states {
		fs := st.restore()
		j, err := openJournal(disk{fs, cs.roll}, crashJournal)
		if err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
		key := ""
		got := map[string]int{}
		for _, job := range j.jobs {
			want := cs.lines[job.ID]
			recs := append([]RecoveredPoint(nil), job.Points...)
			if job.Status != "" {
				recs = append(recs, RecoveredPoint{Line: job.EndLine})
			}
			if len(recs) > len(want) {
				t.Fatalf("state %d: %s recovered %d records, it queued %d", i, job.ID, len(recs), len(want))
			}
			for k, r := range recs {
				if !bytes.Equal(r.Line, want[k]) {
					t.Fatalf("state %d: %s record %d is\n%s\nit queued\n%s", i, job.ID, k, r.Line, want[k])
				}
			}
			got[job.ID] = len(recs)
			key += fmt.Sprintf("%s:%d/%s ", job.ID, len(recs), job.Status)
		}
		for id, n := range st.seen {
			if !st.dropped[id] && got[id] < n {
				t.Fatalf("state %d: %s recovered %d records; a follower had seen %d", i, id, got[id], n)
			}
		}
		l, err := openDiskTier(disk{fs, cs.roll}, crashCache)
		if err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
		for k := range l.owned {
			if payload, ok := l.read(k); !ok || !bytes.Equal(payload, entries[k]) {
				t.Fatalf("state %d: the disk tier serves %q for %s", i, payload, k)
			}
		}
		if !resumed[key] {
			resumed[key] = true
			checkResumedTables(t, st.restore(), cs.roll, cfg, tables)
		}
	}
	t.Logf("checked %d crash states (%d distinct recoveries) over %v operations", len(cs.states), len(resumed), cs.fs.ops)
}

// checkResumedTables restarts a daemon over fs and holds every job it
// resumes to the table an uninterrupted run renders.
func checkResumedTables(t *testing.T, fs *memFS, roll int64, cfg Config, tables map[string]string) {
	t.Helper()
	srv, err := newServer(cfg, disk{fs, roll})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, info := range srv.Jobs() {
		if !info.Resumed || tables[info.ID] == "" {
			continue
		}
		var lines [][]byte
		if err := srv.Follow(ctx, info.ID, 0, func(line []byte) error {
			lines = append(lines, bytes.Clone(line))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := tableOf(t, lines); got != tables[info.ID] {
			t.Fatalf("resumed %s renders\n%s\nwant\n%s", info.ID, got, tables[info.ID])
		}
	}
	if !srv.WaitJobs(ctx) {
		t.Fatal("a resumed job never finished")
	}
}

// TestFloodKeepsTheJournalBounded: a flood of 5 000 warm jobs beside one job
// held running throughout keeps the journal directory within twice the
// bytes of the retained and running jobs' records, plus two segments.
func TestFloodKeepsTheJournalBounded(t *testing.T) {
	noLeakedCommitters(t)
	fs := newMemFS()
	srv, err := newServer(Config{PoolSize: 2, JournalDir: crashJournal, CacheDir: crashCache}, disk{fs, segmentRoll})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	held, err := srv.journal.Begin("job-held", serveWarmQuery, 0, time.Unix(1700000000, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(held.Close)
	line, _ := json.Marshal(PointEvent{Type: "point", Done: 1, Total: 8})
	if err := held.Point(0, "key", line); err != nil {
		t.Fatal(err)
	}
	l := srv.journal.log
	worst, worstLive, segs := 0.0, int64(0), 0
	for i := 0; i < 5000; i++ {
		id, err := srv.Submit(QueryRequest{Query: serveWarmQuery})
		if err != nil {
			t.Fatal(err)
		}
		collectJob(t, srv, id, 0)
		l.sync()
		var onDisk, live int64
		fs.mu.Lock()
		for name, f := range fs.live {
			if filepath.Dir(name) == crashJournal {
				onDisk += int64(len(f.data))
			}
		}
		fs.mu.Unlock()
		l.mu.Lock()
		for _, s := range l.segs {
			live += s.live
		}
		segs = max(segs, len(l.segs))
		l.mu.Unlock()
		if onDisk > 2*live+2*segmentRoll {
			t.Fatalf("after job %d the journal holds %d bytes for %d live", i, onDisk, live)
		}
		if r := float64(onDisk) / float64(live); r > worst {
			worst, worstLive = r, live
		}
	}
	t.Logf("journal directory at most %.2f x the live records (%d B live then), at most %d segments", worst, worstLive, segs)
}
