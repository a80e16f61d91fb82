package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseExposition decodes a Prometheus text-exposition payload (the
// body of a /metrics scrape) into family snapshots, the same shape
// Registry.Snapshot produces, so a coordinator can ingest a remote
// worker's scrape into a History exactly like its own registry. It
// shares the sample tokenizer with Lint but is deliberately lenient
// where Lint is strict: unknown families become "untyped", missing HELP
// is tolerated, and histogram suffixes of a declared histogram family
// fold back into that family as _bucket/_sum/_count samples. Malformed
// sample lines are errors — a scrape that doesn't tokenize shouldn't be
// half-ingested — and so is anything the fleet view could not serve
// lint-clean once ingested: a repeated series or TYPE line, a family
// named like a histogram's expansion, or a histogram whose buckets break
// Lint's invariants.
func ParseExposition(data []byte) ([]FamilySnapshot, error) {
	type famAcc struct {
		snap  *FamilySnapshot
		typed bool // a # TYPE line named it
	}
	fams := make(map[string]*famAcc)
	var order []*famAcc
	hists := histogramCheck{buckets: map[string][]bucketSample{}, counts: map[string]float64{}}
	seen := make(map[string]struct{}) // series (name+labels)
	get := func(name string) *famAcc {
		f := fams[name]
		if f == nil {
			f = &famAcc{snap: &FamilySnapshot{Name: name, Type: "untyped"}}
			fams[name] = f
			order = append(order, f)
		}
		return f
	}

	for i, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimRight(raw, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				continue // stray comment, not metadata
			}
			switch fields[1] {
			case "HELP":
				f := get(fields[2])
				if len(fields) == 4 {
					f.snap.Help = fields[3]
				}
			case "TYPE":
				if len(fields) == 4 && fields[3] != "" { // an empty type leaves the family untyped
					f := get(fields[2])
					if f.typed {
						// Re-typing would reinterpret samples already folded.
						return nil, fmt.Errorf("line %d: duplicate TYPE for %s", i+1, fields[2])
					}
					f.snap.Type, f.typed = fields[3], true
				}
			}
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: sample %s: bad value %q", i+1, name, value)
		}
		series := name + canonicalLabels(labels)
		if _, dup := seen[series]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %s", i+1, series)
		}
		seen[series] = struct{}{}

		// A _bucket/_sum/_count sample whose base family is a declared
		// histogram is that histogram's expansion; anything else is a
		// family in its own right (a counter named _count, say).
		var fam *famAcc
		suffix := ""
		if base, kind := histogramBase(name); kind != "" {
			if bf, ok := fams[base]; ok && bf.snap.Type == "histogram" {
				fam, suffix = bf, "_"+kind
			}
		}
		if fam == nil {
			fam = get(name)
		} else if err := hists.add(fam.snap.Name, suffix[1:], labels, v, i+1); err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		fam.snap.Samples = append(fam.snap.Samples, SeriesSample{Suffix: suffix, Labels: labels, Value: v})
	}

	if problems := hists.problems(); len(problems) > 0 {
		return nil, fmt.Errorf("%s", problems[0])
	}
	out := make([]FamilySnapshot, 0, len(order))
	for _, f := range order {
		// A family named like a histogram's expansion would render the
		// histogram's own series a second time.
		if base, kind := histogramBase(f.snap.Name); kind != "" && fams[base] != nil && fams[base].snap.Type == "histogram" {
			return nil, fmt.Errorf("family %s collides with histogram %s", f.snap.Name, base)
		}
		if len(f.snap.Samples) == 0 && f.snap.Type == "untyped" && f.snap.Help == "" {
			continue
		}
		out = append(out, *f.snap)
	}
	return out, nil
}
