// Package obs is the wind tunnel's zero-dependency observability layer:
// a lock-cheap metrics registry with hand-rolled Prometheus text
// exposition, a span tracer for distributed job traces, and runtime
// snapshots for the stats endpoint. The serving layer (internal/service)
// instruments every hot path through it; the instruments themselves are
// designed so that the hot path — Counter.Add, Gauge.Set,
// Histogram.Observe — is a handful of atomic operations and zero heap
// allocations (pinned by an AllocsPerRun test). All instrument methods
// are nil-receiver safe, so code that holds an uninstrumented handle —
// a journal opened without a registry, an untraced job's span — stays
// unguarded.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically-increasing uint64. The zero value is not
// usable on its own — obtain counters from a Registry — but a nil
// *Counter is: all methods no-op, so an uninstrumented caller needs no
// call site guards.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value (queue depths, in-flight
// counts). Nil-receiver safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by delta (negative deltas decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative only
// at exposition time: Observe increments exactly one bucket counter (the
// first whose upper bound >= v) plus the count and the CAS-updated sum,
// keeping the hot path allocation-free. The bucket layout is fixed at
// registration — no resizing, no locks.
type Histogram struct {
	bounds []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations. It is derived from the
// bucket counters (not a separate atomic) so the exposition's _count is
// always exactly the +Inf cumulative bucket, even mid-scrape.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DurationBuckets is the default latency bucket layout, in seconds:
// 5µs to 10s, roughly logarithmic — wide enough for a pool wait under
// contention and fine enough for a journal fsync.
var DurationBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// instrument is one registered series: exactly one of the pointers is
// set. fn-backed series are read at exposition time — the bridge for
// values another subsystem already maintains (cache stats, pool depth,
// runtime goroutine counts).
type instrument struct {
	labels string      // rendered `{k="v",...}` suffix, "" when unlabelled
	pairs  [][2]string // the same labels as key/value pairs, for Snapshot
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family is all series sharing one metric name.
type family struct {
	name    string
	help    string
	typ     string // "counter" | "gauge" | "histogram"
	series  []*instrument
	byLabel map[string]*instrument
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration takes a mutex (cold path); registered
// instruments are updated lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns (creating if needed) the series for name+labels,
// enforcing one type and one help string per family. init runs under
// the registry lock with the instrument, so the payload pointer
// (c/g/h/fn) is always published before the lock releases — exposition
// and history sampling may run concurrently with registration.
func (r *Registry) lookup(name, help, typ string, labels []string, init func(*instrument)) *instrument {
	if r == nil {
		return nil
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	var pairs [][2]string
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, [2]string{labels[i], labels[i+1]})
	}
	ls := string(appendLabels(nil, pairs))
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byLabel: make(map[string]*instrument)}
		r.families[name] = f
		r.names = append(r.names, name)
		sort.Strings(r.names)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.typ, typ))
	}
	ins := f.byLabel[ls]
	if ins == nil {
		ins = &instrument{labels: ls, pairs: pairs}
		f.byLabel[ls] = ins
		f.series = append(f.series, ins)
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
	}
	if init != nil {
		init(ins)
	}
	return ins
}

// Counter registers (or fetches) a counter series. On a nil registry it
// returns nil, which is a valid no-op counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	ins := r.lookup(name, help, "counter", labels, func(ins *instrument) {
		if ins.c == nil && ins.fn == nil {
			ins.c = &Counter{}
		}
	})
	return ins.c
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	ins := r.lookup(name, help, "gauge", labels, func(ins *instrument) {
		if ins.g == nil && ins.fn == nil {
			ins.g = &Gauge{}
		}
	})
	return ins.g
}

// Histogram registers (or fetches) a histogram series with the given
// upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets must ascend", name))
		}
	}
	ins := r.lookup(name, help, "histogram", labels, func(ins *instrument) {
		if ins.h == nil {
			ins.h = &Histogram{bounds: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
		}
	})
	return ins.h
}

// CounterFunc registers a counter series whose value is read from fn at
// exposition time — the bridge for cumulative values another subsystem
// already tracks under its own lock.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.lookup(name, help, "counter", labels, func(ins *instrument) { ins.fn = fn })
}

// GaugeFunc registers a gauge series read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.lookup(name, help, "gauge", labels, func(ins *instrument) { ins.fn = fn })
}

// Snapshot captures every registered family's current values — what a
// telemetry round ingests and WritePrometheus renders, structurally
// identical to what ParseExposition recovers from a remote scrape.
// Histogram buckets are cumulative and the _count sample equals the +Inf
// bucket (one pass over the bucket counters), so a snapshot always lints
// clean when rendered.
func (r *Registry) Snapshot() []FamilySnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]FamilySnapshot, 0, len(r.names))
	series := make([][]*instrument, 0, len(r.names))
	for _, n := range r.names {
		f := r.families[n]
		out = append(out, FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ})
		series = append(series, append([]*instrument(nil), f.series...))
	}
	r.mu.Unlock()

	// Instrument reads are atomic and need no lock.
	for i := range out {
		fs := &out[i]
		for _, ins := range series[i] {
			switch {
			case ins.fn != nil:
				fs.Samples = append(fs.Samples, SeriesSample{Labels: ins.pairs, Value: ins.fn()})
			case ins.c != nil:
				fs.Samples = append(fs.Samples, SeriesSample{Labels: ins.pairs, Value: float64(ins.c.Value())})
			case ins.g != nil:
				fs.Samples = append(fs.Samples, SeriesSample{Labels: ins.pairs, Value: float64(ins.g.Value())})
			case ins.h != nil:
				h := ins.h
				var cum uint64
				for bi := range h.counts {
					cum += h.counts[bi].Load()
					le := "+Inf"
					if bi < len(h.bounds) {
						le = formatFloat(h.bounds[bi])
					}
					labels := append(append([][2]string(nil), ins.pairs...), [2]string{"le", le})
					fs.Samples = append(fs.Samples, SeriesSample{Suffix: "_bucket", Labels: labels, Value: float64(cum)})
				}
				fs.Samples = append(fs.Samples,
					SeriesSample{Suffix: "_sum", Labels: ins.pairs, Value: h.Sum()},
					SeriesSample{Suffix: "_count", Labels: ins.pairs, Value: float64(cum)})
			}
		}
	}
	return out
}

// WritePrometheus renders every registered family's Snapshot in
// Prometheus text exposition format (version 0.0.4): families sorted by
// name, one HELP and TYPE line each, series sorted by label set,
// histograms expanded into cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return writeExposition(w, r.Snapshot())
}
