package obs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the Prometheus text exposition format (version 0.0.4),
// both ways: writeExposition is the one writer (Registry.WritePrometheus
// and History.WriteLatestPrometheus both render through it), and
// readExposition is the one reader (Lint reports every problem it finds,
// ParseExposition refuses a payload with any problem it cannot serve).

// writeExposition renders families in order: one HELP and one TYPE line
// each, then every sample as name+suffix, its label pairs in the order
// given, and its value.
func writeExposition(w io.Writer, fams []FamilySnapshot) error {
	var b []byte
	for _, f := range fams {
		b = append(b, "# HELP "...)
		b = append(b, f.Name...)
		b = append(b, ' ')
		b = append(b, escapeHelp(f.Help)...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.Name...)
		b = append(b, ' ')
		b = append(b, f.Type...)
		b = append(b, '\n')
		for _, s := range f.Samples {
			b = append(b, f.Name...)
			b = append(b, s.Suffix...)
			b = appendLabels(b, s.Labels)
			b = append(b, ' ')
			b = appendValue(b, s.Value)
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

// appendValue renders a sample value: an integral value below 2^53 in
// magnitude as an integer, anything else in the shortest form that
// round-trips ("2.5", "1e-05", "NaN", "+Inf").
func appendValue(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// formatFloat renders a float the way Prometheus clients expect:
// shortest round-trip representation (histogram le bounds).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// appendLabels renders label pairs, in the order given, as a
// `{k1="v1",k2="v2"}` suffix ("" when there are none).
func appendLabels(b []byte, pairs [][2]string) []byte {
	if len(pairs) == 0 {
		return b
	}
	b = append(b, '{')
	for i, kv := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, kv[0]...)
		b = append(b, `="`...)
		b = append(b, escapeLabel(kv[1])...)
		b = append(b, '"')
	}
	return append(b, '}')
}

// canonicalLabels renders label pairs sorted by key, so series identity
// is label-order independent.
func canonicalLabels(labels [][2]string) string {
	sorted := append([][2]string(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	return string(appendLabels(nil, sorted))
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(v)
}

// Lint validates a Prometheus text-exposition payload and returns one
// human-readable problem per violation (empty = clean). CI runs it
// against live /metrics scrapes and the fleet view. It checks:
//
//   - metric names match [a-zA-Z_:][a-zA-Z0-9_:]*, label names
//     [a-zA-Z_][a-zA-Z0-9_]*, and no label name repeats within a sample;
//   - every TYPE is counter, gauge, histogram, summary or untyped, comes
//     once per family and before the family's samples;
//   - every sample belongs to a family announced by a # TYPE line, and
//     the family has a # HELP line;
//   - no duplicate series (same name + label set twice), and no family
//     named like a histogram's or summary's _bucket/_sum/_count;
//   - label values are properly quoted and escaped, sample values parse
//     as floats, and an optional timestamp as an integer;
//   - histogram buckets are cumulative (monotonically non-decreasing in
//     ascending le order), end at le="+Inf", and the +Inf bucket equals
//     the family's _count sample.
func Lint(data []byte) []string {
	_, problems := readExposition(data)
	out := make([]string, len(problems))
	for i, p := range problems {
		out[i] = p.msg
	}
	return out
}

// ParseExposition decodes a Prometheus text-exposition payload (the
// body of a /metrics scrape) into family snapshots, the same shape
// Registry.Snapshot produces, so a coordinator can ingest a remote
// worker's scrape into a History exactly like its own registry. The
// _bucket/_sum/_count samples of a declared histogram (and _sum/_count of
// a summary) fold back into that family. It tolerates the two problems
// the fleet view repairs on the way out — a family without HELP, or
// without TYPE (it becomes "untyped") — and refuses the payload on any
// other problem Lint would report, so the fleet view never serves text
// Lint rejects.
func ParseExposition(data []byte) ([]FamilySnapshot, error) {
	fams, problems := readExposition(data)
	for _, p := range problems {
		if !p.servable {
			return nil, errors.New(p.msg)
		}
	}
	return fams, nil
}

// problem is one violation readExposition found. servable marks the two
// that rendering repairs: a missing HELP or TYPE line.
type problem struct {
	msg      string
	servable bool
}

// famState is one family as the reader has seen it so far.
type famState struct {
	snap    FamilySnapshot
	typLine int  // line of its TYPE line, 0 = none yet
	help    bool // a HELP line named it (or its absence was reported)
	sampled bool // a sample of its own name has been read
}

// expositionReader is one pass over a payload.
type expositionReader struct {
	fams     map[string]*famState
	order    []*famState
	seen     map[string]int // series (name+labels) -> first line
	hists    histogramCheck
	problems []problem
}

// readExposition reads a payload line by line into families, collecting
// every problem on the way.
func readExposition(data []byte) ([]FamilySnapshot, []problem) {
	r := &expositionReader{
		fams:  make(map[string]*famState),
		seen:  make(map[string]int),
		hists: histogramCheck{buckets: map[string][]bucketSample{}, counts: map[string]float64{}},
	}
	for i, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimRight(raw, "\r")
		switch {
		case line == "":
		case line[0] == '#':
			r.comment(i+1, line)
		default:
			r.sample(i+1, line)
		}
	}
	for _, msg := range r.hists.problems() {
		r.problems = append(r.problems, problem{msg: msg})
	}
	var out []FamilySnapshot
	for _, f := range r.order {
		// A family named like a histogram's expansion would render the
		// histogram's own series a second time.
		if base, _ := r.expansion(f.snap.Name); base != nil {
			r.addf(false, 0, "family %s collides with %s %s", f.snap.Name, base.snap.Type, base.snap.Name)
		}
		if len(f.snap.Samples) == 0 && f.snap.Type == "untyped" && f.snap.Help == "" {
			continue
		}
		out = append(out, f.snap)
	}
	return out, r.problems
}

func (r *expositionReader) addf(servable bool, line int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if line > 0 {
		msg = fmt.Sprintf("line %d: %s", line, msg)
	}
	r.problems = append(r.problems, problem{msg: msg, servable: servable})
}

// family returns (creating, untyped, if needed) the family called name.
func (r *expositionReader) family(name string) *famState {
	f := r.fams[name]
	if f == nil {
		f = &famState{snap: FamilySnapshot{Name: name, Type: "untyped"}}
		r.fams[name] = f
		r.order = append(r.order, f)
	}
	return f
}

// expansion resolves a sample name that is a declared histogram's
// _bucket/_sum/_count, or a summary's _sum/_count, to that family and
// suffix; anything else (a counter named _count, say) is nil.
func (r *expositionReader) expansion(name string) (*famState, string) {
	base, kind := histogramBase(name)
	f := r.fams[base]
	if kind == "" || f == nil {
		return nil, ""
	}
	if f.snap.Type == "histogram" || f.snap.Type == "summary" && kind != "bucket" {
		return f, "_" + kind
	}
	return nil, ""
}

// comment reads a HELP or TYPE line; any other comment is ignored.
func (r *expositionReader) comment(n int, line string) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 || fields[1] != "HELP" && fields[1] != "TYPE" {
		return
	}
	if len(fields) < 3 || !validName(fields[2], true) {
		r.addf(false, n, "malformed %s line %q", fields[1], line)
		return
	}
	name, text := fields[2], ""
	if len(fields) == 4 {
		text = fields[3]
	}
	if fields[1] == "HELP" {
		f := r.family(name)
		f.help, f.snap.Help = true, text
		return
	}
	switch text {
	case "counter", "gauge", "histogram", "summary", "untyped":
	default:
		r.addf(false, n, "unknown type %q for %s", text, name)
		return
	}
	f := r.family(name)
	switch {
	case f.typLine != 0:
		// Re-typing would reinterpret samples already folded.
		r.addf(false, n, "duplicate TYPE for %s (first at line %d)", name, f.typLine)
	case f.sampled:
		r.addf(false, n, "TYPE for %s after its samples", name)
	default:
		f.snap.Type, f.typLine = text, n
	}
}

// sample reads one sample line into its family.
func (r *expositionReader) sample(n int, line string) {
	name, labels, value, err := parseSample(line)
	if err != nil {
		r.addf(false, n, "%v", err)
		return
	}
	v, err := strconv.ParseFloat(value, 64)
	if err != nil {
		r.addf(false, n, "sample %s: bad value %q", name, value)
		return
	}
	series := name + canonicalLabels(labels)
	if first, dup := r.seen[series]; dup {
		r.addf(false, n, "duplicate series %s (first at line %d)", series, first)
		return
	}
	r.seen[series] = n

	f, suffix := r.expansion(name)
	if f == nil {
		f = r.family(name)
		f.sampled = true
	}
	switch {
	case f.typLine == 0:
		r.addf(true, n, "sample %s has no preceding # TYPE line", name)
	case !f.help:
		r.addf(true, n, "family %s has no # HELP line", f.snap.Name)
		f.help = true // report once
	}
	if f.snap.Type == "histogram" && suffix != "" {
		if err := r.hists.add(f.snap.Name, suffix[1:], labels, v, n); err != nil {
			r.addf(false, n, "%v", err)
		}
	}
	f.snap.Samples = append(f.snap.Samples, SeriesSample{Suffix: suffix, Labels: labels, Value: v})
}

// parseSample splits one sample line into name, label pairs and the
// value text, validating names, quoting, escapes and the optional
// timestamp along the way.
func parseSample(line string) (name string, labels [][2]string, value string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", nil, "", fmt.Errorf("malformed sample %q", line)
	}
	name, rest := line[:i], line[i:]
	if !validName(name, true) {
		return "", nil, "", fmt.Errorf("sample with invalid metric name %q", name)
	}
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			if rest == "" {
				return "", nil, "", fmt.Errorf("sample %s: unterminated label set", name)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return "", nil, "", fmt.Errorf("sample %s: label without =", name)
			}
			key := rest[:eq]
			if !validName(key, false) {
				return "", nil, "", fmt.Errorf("sample %s: invalid label name %q", name, key)
			}
			if _, dup := labelValue(labels, key); dup {
				return "", nil, "", fmt.Errorf("sample %s: repeated label %s", name, key)
			}
			rest = rest[eq+1:]
			if rest == "" || rest[0] != '"' {
				return "", nil, "", fmt.Errorf("sample %s: label %s value not quoted", name, key)
			}
			val, remain, err := unquoteLabel(rest)
			if err != nil {
				return "", nil, "", fmt.Errorf("sample %s: label %s: %v", name, key, err)
			}
			labels = append(labels, [2]string{key, val})
			rest = remain
			if rest != "" && rest[0] == ',' {
				rest = rest[1:]
			} else if rest != "" && rest[0] != '}' {
				return "", nil, "", fmt.Errorf("sample %s: label %s not followed by , or }", name, key)
			}
		}
	}
	fields := strings.Fields(rest)
	switch {
	case len(fields) == 0:
		return "", nil, "", fmt.Errorf("sample %s: missing value", name)
	case len(fields) > 2:
		return "", nil, "", fmt.Errorf("sample %s: trailing text %q", name, fields[2])
	case len(fields) == 2:
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, "", fmt.Errorf("sample %s: bad timestamp %q", name, fields[1])
		}
	}
	return name, labels, fields[0], nil
}

// validName reports whether s is a metric name ([a-zA-Z_:][a-zA-Z0-9_:]*)
// or, without colons, a label name ([a-zA-Z_][a-zA-Z0-9_]*).
func validName(s string, colons bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
			colons && c == ':' || i > 0 && '0' <= c && c <= '9' {
			continue
		}
		return false
	}
	return s != ""
}

// unquoteLabel consumes a quoted, escaped label value starting at the
// opening quote and returns the decoded value plus the remainder.
func unquoteLabel(s string) (val, rest string, err error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			i++
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("bad escape \\%c", s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		case '\n':
			return "", "", fmt.Errorf("raw newline in label value")
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

// histogramCheck collects one exposition's histogram samples and checks
// the cross-line invariants: buckets cumulative in ascending le order,
// ending at le="+Inf", and the +Inf bucket equal to the series' _count.
type histogramCheck struct {
	buckets map[string][]bucketSample // histogram name + non-le labels
	counts  map[string]float64        // histogram _count by series
}

type bucketSample struct {
	le   float64
	inf  bool
	val  float64
	line int
}

// add records one sample of histogram base; kind is its suffix kind
// ("bucket", "sum" or "count"). A bucket without a parseable le is an
// error.
func (c *histogramCheck) add(base, kind string, labels [][2]string, v float64, line int) error {
	switch kind {
	case "bucket":
		le, hasLE := labelValue(labels, "le")
		if !hasLE {
			return fmt.Errorf("histogram bucket %s_bucket without an le label", base)
		}
		bs := bucketSample{val: v, line: line}
		if le == "+Inf" {
			bs.inf = true
		} else {
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("histogram bucket %s_bucket: bad le %q", base, le)
			}
			bs.le = f
		}
		key := base + canonicalLabels(dropLabel(labels, "le"))
		c.buckets[key] = append(c.buckets[key], bs)
	case "count":
		c.counts[base+canonicalLabels(labels)] = v
	}
	return nil
}

// problems checks the collected histograms, series in sorted order.
func (c *histogramCheck) problems() []string {
	var problems []string
	keys := make([]string, 0, len(c.buckets))
	for k := range c.buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		bs := c.buckets[k]
		sortBuckets(bs)
		prev := -1.0
		sawInf := false
		for _, b := range bs {
			if b.val < prev {
				problems = append(problems, fmt.Sprintf("line %d: histogram %s buckets not cumulative: %v after %v", b.line, k, b.val, prev))
			}
			prev = b.val
			if b.inf {
				sawInf = true
			}
		}
		if !sawInf {
			problems = append(problems, fmt.Sprintf("histogram %s has no le=\"+Inf\" bucket", k))
			continue
		}
		if cnt, ok := c.counts[k]; ok && cnt != prev {
			problems = append(problems, fmt.Sprintf("histogram %s: _count %v != +Inf bucket %v", k, cnt, prev))
		}
	}
	return problems
}

// sortBuckets orders buckets by ascending le, +Inf last.
func sortBuckets(bs []bucketSample) {
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].inf != bs[j].inf {
			return bs[j].inf
		}
		return bs[i].le < bs[j].le
	})
}

func labelValue(labels [][2]string, key string) (string, bool) {
	for _, kv := range labels {
		if kv[0] == key {
			return kv[1], true
		}
	}
	return "", false
}

func dropLabel(labels [][2]string, key string) [][2]string {
	out := make([][2]string, 0, len(labels))
	for _, kv := range labels {
		if kv[0] != key {
			out = append(out, kv)
		}
	}
	return out
}

// histogramBase strips a histogram sample suffix, returning the family
// name and which suffix it was ("bucket", "sum", "count", or "").
func histogramBase(name string) (string, string) {
	switch {
	case strings.HasSuffix(name, "_bucket"):
		return name[:len(name)-len("_bucket")], "bucket"
	case strings.HasSuffix(name, "_sum"):
		return name[:len(name)-len("_sum")], "sum"
	case strings.HasSuffix(name, "_count"):
		return name[:len(name)-len("_count")], "count"
	}
	return name, ""
}
