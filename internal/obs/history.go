package obs

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// This file is the retention half of the observability layer: a
// zero-dependency in-process time-series store. Each telemetry round
// ingests a server's Registry.Snapshot into bounded per-series ring
// buffers; a coordinator's round additionally ingests parsed /metrics
// scrapes from its fleet members (exposition.go), labelled per instance,
// so one History holds the whole fleet's recent past. On top of the rings
// sit the query primitives the alert rules and the range endpoint need —
// Range, Latest, Increase, QuantileOver — plus WriteLatestPrometheus,
// which renders the merged latest view back out in exposition format
// (the federation endpoint's body).

// SeriesSample is one exposition sample inside a family snapshot: for
// plain counters/gauges Suffix is empty; histograms expand into
// "_bucket" (with an le label), "_sum" and "_count" samples exactly as
// the text exposition does.
type SeriesSample struct {
	Suffix string
	Labels [][2]string
	Value  float64
}

// FamilySnapshot is one metric family's point-in-time state: its
// exposition metadata plus every series' current value.
type FamilySnapshot struct {
	Name    string
	Help    string
	Type    string // "counter" | "gauge" | "histogram" | "untyped"
	Samples []SeriesSample
}

// HistPoint is one retained sample of one series.
type HistPoint struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// histSeries is one series' bounded ring. Samples are appended in
// ingest order (monotone per source); once the ring is full the oldest
// sample is overwritten.
type histSeries struct {
	suffix string
	labels [][2]string // sorted by key
	ring   []HistPoint
	next   int
	full   bool
}

// points returns the ring's samples oldest-first.
func (s *histSeries) points() []HistPoint {
	if !s.full {
		return s.ring[:s.next]
	}
	out := make([]HistPoint, 0, len(s.ring))
	out = append(out, s.ring[s.next:]...)
	out = append(out, s.ring[:s.next]...)
	return out
}

func (s *histSeries) append(depth int, p HistPoint) {
	if len(s.ring) < depth {
		s.ring = append(s.ring, p)
		s.next = len(s.ring) % depth
		s.full = len(s.ring) == depth
		return
	}
	s.ring[s.next] = p
	s.next = (s.next + 1) % len(s.ring)
	s.full = true
}

// histFamily groups one metric name's retained series with its
// exposition metadata.
type histFamily struct {
	name, help, typ string
	series          map[string]*histSeries // key: suffix + canonical labels
	order           []string               // sorted keys
}

// DefaultHistoryDepth is a server's per-series ring depth: 360 samples =
// 12 minutes at the default 2 s interval.
const DefaultHistoryDepth = 360

// DefaultSampleInterval is a server's default telemetry round period.
const DefaultSampleInterval = 2 * time.Second

// History is the in-process time-series store. All methods are safe
// for concurrent use; a nil *History ignores ingests and answers every
// query empty.
type History struct {
	mu    sync.Mutex
	depth int
	fams  map[string]*histFamily
	names []string // sorted family names
}

// NewHistory builds a store retaining up to depth (> 0) samples per
// series.
func NewHistory(depth int) *History {
	return &History{depth: depth, fams: make(map[string]*histFamily)}
}

// Ingest appends one snapshot generation — a local Registry.Snapshot or
// a parsed remote scrape — at time t. instance, when non-empty, is
// added as an `instance` label on every series, so one History can hold
// many processes' samples side by side. The whole generation lands
// under one lock acquisition: readers never observe half an ingest,
// which keeps histogram bucket/count pairs consistent per scrape.
func (h *History) Ingest(fams []FamilySnapshot, instance string, t time.Time) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, f := range fams {
		hf := h.fams[f.Name]
		if hf == nil {
			hf = &histFamily{name: f.Name, help: f.Help, typ: f.Type, series: make(map[string]*histSeries)}
			h.fams[f.Name] = hf
			h.names = append(h.names, f.Name)
			sort.Strings(h.names)
		}
		for _, s := range f.Samples {
			labels := s.Labels
			if _, has := labelValue(labels, "instance"); instance != "" && !has {
				labels = append(append([][2]string(nil), labels...), [2]string{"instance", instance})
			}
			key := s.Suffix + canonicalLabels(labels)
			hs := hf.series[key]
			if hs == nil {
				sorted := append([][2]string(nil), labels...)
				sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
				hs = &histSeries{suffix: s.Suffix, labels: sorted}
				hf.series[key] = hs
				hf.order = append(hf.order, key)
				sort.Strings(hf.order)
			}
			hs.append(h.depth, HistPoint{T: t, V: s.Value})
		}
	}
}

// findSeries resolves a sample name — a plain family name, or a
// histogram expansion like wt_journal_fsync_seconds_count — to its
// retained series. Caller holds h.mu.
func (h *History) findSeries(name string) []*histSeries {
	want := ""
	hf := h.fams[name]
	if hf == nil {
		base, kind := histogramBase(name)
		if kind == "" {
			return nil
		}
		if hf = h.fams[base]; hf == nil || hf.typ != "histogram" {
			return nil
		}
		want = "_" + kind
	}
	var out []*histSeries
	for _, key := range hf.order {
		if s := hf.series[key]; s.suffix == want {
			out = append(out, s)
		}
	}
	return out
}

// seriesWindow is one series' labels and its samples within a window.
type seriesWindow struct {
	labels [][2]string
	points []HistPoint
}

// window returns every matching series' samples within [now-window,
// now], oldest first, leaving out series with none. name may be a family
// name or a histogram expansion (_bucket/_sum/_count).
func (h *History) window(name string, window time.Duration, now time.Time) []seriesWindow {
	if h == nil {
		return nil
	}
	cut := now.Add(-window)
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []seriesWindow
	for _, s := range h.findSeries(name) {
		pts := s.points()
		i := 0
		for i < len(pts) && pts[i].T.Before(cut) {
			i++
		}
		if i < len(pts) {
			out = append(out, seriesWindow{labels: s.labels, points: append([]HistPoint(nil), pts[i:]...)})
		}
	}
	return out
}

// increase is the window's reset-aware growth: a sample below its
// predecessor (the process restarted and the counter started over)
// contributes its full value, the Prometheus convention, so rates survive
// a worker bounce without going negative. ok is false below two samples.
func (s seriesWindow) increase() (inc float64, ok bool) {
	for i := 1; i < len(s.points); i++ {
		if d := s.points[i].V - s.points[i-1].V; d >= 0 {
			inc += d
		} else {
			inc += s.points[i].V
		}
	}
	return inc, len(s.points) >= 2
}

// SeriesRange is one series' retained samples within a query window.
type SeriesRange struct {
	Labels string      `json:"labels"`
	Points []HistPoint `json:"points"`
}

// Range returns every matching series' samples within [now-window, now],
// oldest first. name may be a family name or a histogram expansion
// (_bucket/_sum/_count); an unknown name returns nil.
func (h *History) Range(name string, window time.Duration, now time.Time) []SeriesRange {
	var out []SeriesRange
	for _, s := range h.window(name, window, now) {
		out = append(out, SeriesRange{Labels: canonicalLabels(s.labels), Points: s.points})
	}
	return out
}

// SeriesValue is one series' latest retained sample.
type SeriesValue struct {
	Labels string    `json:"labels"`
	T      time.Time `json:"t"`
	V      float64   `json:"v"`
}

// Latest returns every matching series' newest sample.
func (h *History) Latest(name string) []SeriesValue {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []SeriesValue
	for _, s := range h.findSeries(name) {
		pts := s.points()
		if len(pts) == 0 {
			continue
		}
		last := pts[len(pts)-1]
		out = append(out, SeriesValue{Labels: canonicalLabels(s.labels), T: last.T, V: last.V})
	}
	return out
}

// SeriesDelta is a counter series' growth over a window.
type SeriesDelta struct {
	Labels  string        `json:"labels"`
	Delta   float64       `json:"delta"`
	Elapsed time.Duration `json:"elapsed"`
	Samples int           `json:"samples"`
}

// Increase computes each matching counter series' reset-aware growth over
// [now-window, now]. Series with fewer than two samples in the window are
// omitted.
func (h *History) Increase(name string, window time.Duration, now time.Time) []SeriesDelta {
	var out []SeriesDelta
	for _, s := range h.window(name, window, now) {
		if inc, ok := s.increase(); ok {
			out = append(out, SeriesDelta{
				Labels:  canonicalLabels(s.labels),
				Delta:   inc,
				Elapsed: s.points[len(s.points)-1].T.Sub(s.points[0].T),
				Samples: len(s.points),
			})
		}
	}
	return out
}

// QuantileOver estimates the q-quantile (0 < q < 1) of a histogram
// family's observations that landed within [now-window, now], per
// series (grouped by non-le labels): the per-bucket increase over the
// window forms the distribution, interpolated linearly inside the
// bucket that crosses the target rank — histogram_quantile's method.
// Series whose window saw no observations are omitted; a quantile
// landing in the +Inf bucket reports the highest finite bound.
func (h *History) QuantileOver(name string, q float64, window time.Duration, now time.Time) []SeriesValue {
	groups := make(map[string][]bucketSample) // val: the bucket's increase
	var order []string
	for _, s := range h.window(name+"_bucket", window, now) {
		inc, ok := s.increase()
		le, hasLE := labelValue(s.labels, "le")
		if !ok || !hasLE {
			continue
		}
		b := bucketSample{val: inc, inf: le == "+Inf"}
		if !b.inf {
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			b.le = f
		}
		rest := canonicalLabels(dropLabel(s.labels, "le"))
		if _, seen := groups[rest]; !seen {
			order = append(order, rest)
		}
		groups[rest] = append(groups[rest], b)
	}
	var out []SeriesValue
	for _, labels := range order {
		bs := groups[labels]
		sortBuckets(bs)
		if !bs[len(bs)-1].inf {
			continue
		}
		total := bs[len(bs)-1].val
		if total <= 0 {
			continue
		}
		target := q * total
		prevLE, prevCum := 0.0, 0.0
		v := bs[len(bs)-1].le
		for _, b := range bs {
			if b.val >= target {
				if b.inf {
					// The quantile is past every finite bound; the highest
					// finite bucket edge is the best honest answer.
					v = prevLE
					break
				}
				span := b.val - prevCum
				if span > 0 {
					v = prevLE + (b.le-prevLE)*(target-prevCum)/span
				} else {
					v = b.le
				}
				break
			}
			prevLE, prevCum = b.le, b.val
			if !b.inf {
				v = b.le
			}
		}
		out = append(out, SeriesValue{Labels: labels, T: now, V: v})
	}
	return out
}

// WriteLatestPrometheus renders every retained series' newest sample in
// exposition format — the federated fleet view. Families are sorted by
// name with one HELP/TYPE line each; series sort by their canonical
// key, so the output is deterministic and lint-clean (each instance's
// histogram bucket/count samples come from one atomic ingest, so the
// cumulative invariants hold).
func (h *History) WriteLatestPrometheus(w io.Writer) error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	fams := make([]FamilySnapshot, 0, len(h.names))
	for _, name := range h.names {
		hf := h.fams[name]
		f := FamilySnapshot{Name: hf.name, Help: hf.help, Type: hf.typ}
		for _, key := range hf.order {
			s := hf.series[key]
			if pts := s.points(); len(pts) > 0 {
				f.Samples = append(f.Samples, SeriesSample{Suffix: s.suffix, Labels: s.labels, Value: pts[len(pts)-1].V})
			}
		}
		fams = append(fams, f)
	}
	h.mu.Unlock()
	return writeExposition(w, fams)
}
