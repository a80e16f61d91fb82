package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Lint validates a Prometheus text-exposition payload and returns one
// human-readable problem per violation (empty = clean). It is the
// hand-rolled validator CI runs against live /metrics scrapes, checking
// the invariants the exposition format promises:
//
//   - every sample belongs to a family announced by a # TYPE line, and
//     the family has a # HELP line;
//   - no duplicate series (same name + label set twice);
//   - label values are properly quoted and escaped;
//   - histogram buckets are cumulative (monotonically non-decreasing in
//     ascending le order), end at le="+Inf", and the +Inf bucket equals
//     the family's _count sample;
//   - sample values parse as floats.
func Lint(data []byte) []string {
	var problems []string
	addf := func(line int, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}

	type famState struct {
		typ     string
		help    bool
		typLine int
	}
	families := make(map[string]*famState)
	seen := make(map[string]int) // series (name+labels) -> first line
	hists := histogramCheck{buckets: map[string][]bucketSample{}, counts: map[string]float64{}}

	lines := strings.Split(string(data), "\n")
	for i, raw := range lines {
		n := i + 1
		line := strings.TrimRight(raw, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				addf(n, "malformed comment line %q", line)
				continue
			}
			switch fields[1] {
			case "HELP":
				f := families[fields[2]]
				if f == nil {
					f = &famState{}
					families[fields[2]] = f
				}
				f.help = true
			case "TYPE":
				if len(fields) < 4 {
					addf(n, "TYPE line without a type: %q", line)
					continue
				}
				f := families[fields[2]]
				if f == nil {
					f = &famState{}
					families[fields[2]] = f
				}
				if f.typ != "" {
					addf(n, "duplicate TYPE for %s (first at line %d)", fields[2], f.typLine)
				}
				f.typ, f.typLine = fields[3], n
			}
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			addf(n, "%v", err)
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			addf(n, "sample %s: bad value %q", name, value)
			continue
		}

		series := name + canonicalLabels(labels)
		if first, dup := seen[series]; dup {
			addf(n, "duplicate series %s (first at line %d)", series, first)
		} else {
			seen[series] = n
		}

		base, kind := histogramBase(name)
		fam := families[base]
		if kind != "" && (fam == nil || (fam.typ != "histogram" && fam.typ != "summary")) {
			// The suffix is part of the metric's real name (a counter
			// ending in _count, say), not a histogram expansion.
			base, kind, fam = name, "", families[name]
		}
		if fam == nil || fam.typ == "" {
			addf(n, "sample %s has no preceding # TYPE line", name)
			continue
		}
		if !fam.help {
			addf(n, "family %s has no # HELP line", base)
			fam.help = true // report once
		}

		if fam.typ == "histogram" {
			if err := hists.add(base, kind, labels, v, n); err != nil {
				addf(n, "%v", err)
			}
		}
	}
	return append(problems, hists.problems()...)
}

// histogramCheck collects one exposition's histogram samples and checks
// the cross-line invariants: buckets cumulative in ascending le order,
// ending at le="+Inf", and the +Inf bucket equal to the series' _count.
// Lint reports every violation; ParseExposition refuses a scrape with
// any, so the fleet view never serves a histogram Lint would flag.
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
// ("bucket", "sum", "count" or ""). A bucket without a parseable le is
// an error.
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
		sort.Slice(bs, func(i, j int) bool {
			if bs[i].inf != bs[j].inf {
				return bs[j].inf
			}
			return bs[i].le < bs[j].le
		})
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

// parseSample splits one sample line into name, label pairs and the
// value text, validating quoting and escapes along the way.
func parseSample(line string) (name string, labels [][2]string, value string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", nil, "", fmt.Errorf("malformed sample %q", line)
	}
	name = line[:i]
	if name == "" {
		return "", nil, "", fmt.Errorf("sample with empty metric name: %q", line)
	}
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, ",")
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
			rest = rest[eq+1:]
			if len(rest) == 0 || rest[0] != '"' {
				return "", nil, "", fmt.Errorf("sample %s: label %s value not quoted", name, key)
			}
			val, remain, err := unquoteLabel(rest)
			if err != nil {
				return "", nil, "", fmt.Errorf("sample %s: label %s: %v", name, key, err)
			}
			labels = append(labels, [2]string{key, val})
			rest = remain
		}
	}
	value = strings.TrimSpace(rest)
	if value == "" {
		return "", nil, "", fmt.Errorf("sample %s: missing value", name)
	}
	// A timestamp after the value is legal; keep just the value.
	if j := strings.IndexByte(value, ' '); j >= 0 {
		value = value[:j]
	}
	return name, labels, value, nil
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

// canonicalLabels renders label pairs sorted by key, so series identity
// is label-order independent, with values escaped as the exposition
// format escapes them (Go's %q would write escapes it does not have).
func canonicalLabels(labels [][2]string) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([][2]string(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
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
