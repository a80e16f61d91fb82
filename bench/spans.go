package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// (a sweep, a request, a replayed trial) share Op; Parent is the span
// that caused this one, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// recorder keeps the traced run's spans in memory; they are written out
// once, when the benchmark ends. A nil recorder records nothing, which
// is what the untraced run uses.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newOp returns a fresh operation id.
func (r *recorder) newOp() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// add records a completed span and returns its id.
func (r *recorder) add(op, parent int, name string, start time.Time, d time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	s := start.Sub(r.t0).Microseconds()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartUS: s, EndUS: s + d.Microseconds()})
	return id
}

// reserve allocates a span whose end is not known yet, so children can
// name it as their parent; finish closes it.
func (r *recorder) reserve(op, parent int, name string, start time.Time) int {
	return r.add(op, parent, name, start, 0)
}

func (r *recorder) finish(id int, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndUS = end.Sub(r.t0).Microseconds()
}

// selfTimeByOp returns, per span name, one value per operation: the
// total self time of that operation's spans of that name, in
// milliseconds. A span's self time is its duration minus the part of it
// its children cover.
func (r *recorder) selfTimeByOp() map[string][]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	type iv struct{ lo, hi int64 }
	type opName struct {
		op   int
		name string
	}
	perOp := map[opName]float64{}
	children := map[int][]iv{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.StartUS, s.EndUS})
		}
	}
	for _, s := range r.spans {
		// Children may overlap (parallel points): count the union of
		// their intervals, clipped to the parent.
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, end := int64(0), s.StartUS
		for _, c := range ivs {
			lo, hi := max(c.lo, end), min(c.hi, s.EndUS)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		perOp[opName{s.Op, s.Name}] += float64(s.EndUS-s.StartUS-covered) / 1000
	}
	out := map[string][]float64{}
	for k, v := range perOp {
		out[k.name] = append(out[k.name], v)
	}
	return out
}

// write dumps every span as one JSON document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
