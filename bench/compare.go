package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// minRuns is the fewest runs per workload a result set may hold for a
// comparison to mean anything.
const minRuns = 5

// compareFiles prints, per workload and metric, both result sets'
// medians and quartiles and a verdict against the metric's bound, and
// returns a non-zero exit code if any metric regressed. A is the parent,
// B the change.
//
//	regressed   B's median is worse than A's by more than the bound
//	unresolved  not regressed, but the run-to-run spread (quartile distance
//	            over median, either side) is wider than the bound, and not
//	            every B run is better than every A run
//	improved    B wins at least nine tenths of the pairs (ties count for
//	            neither) and the medians differ by more than A's quartile
//	            distance — or every B run is better than every A run
//	ok          none of the above
//
// Per-layer metrics have no bound and get no verdict.
func compareFiles(pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	for _, w := range workloadNames {
		if len(a[w]) == 0 && len(b[w]) == 0 {
			continue
		}
		if len(a[w]) < minRuns || len(b[w]) < minRuns {
			fmt.Fprintf(os.Stderr, "bench: %s: %d and %d runs, want at least %d on each side\n", w, len(a[w]), len(b[w]), minRuns)
			return 2
		}
		fmt.Printf("== %s  A: %d runs  B: %d runs\n", w, len(a[w]), len(b[w]))
		fmt.Printf("  %-36s %-6s %12s %25s %12s %25s %7s %6s  %s\n",
			"metric", "unit", "A median", "A quartiles", "B median", "B quartiles", "change", "bound", "verdict")
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				xa, xb := values(a[w], d.name), values(b[w], d.name)
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				ma, mb := median(xa), median(xb)
				qa, qb := quartiles(xa), quartiles(xb)
				change := 0.0
				if ma != 0 {
					change = (mb - ma) / ma
				}
				verdict, bound := "", ""
				if d.bound > 0 {
					verdict = judge(d, xa, xb)
					bound = fmt.Sprintf("%.0f%%", 100*d.bound)
					if verdict == "regressed" {
						code = 1
					}
				}
				fmt.Printf("  %-36s %-6s %12.4f %25s %12.4f %25s %+6.1f%% %6s  %s\n", d.name, d.unit,
					ma, fmt.Sprintf("[%.4f, %.4f]", qa[0], qa[2]), mb, fmt.Sprintf("[%.4f, %.4f]", qb[0], qb[2]),
					100*change, bound, verdict)
			}
		}
	}
	return code
}

// judge applies the verdict rules above to one end-to-end metric.
func judge(d metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	qa, qb := quartiles(a), quartiles(b)
	// worse > 0 when B is worse than A, as a share of A's median.
	worse := (mb - ma) / ma
	better := func(x, y float64) bool { return x < y }
	if d.better == "higher" {
		worse = -worse
		better = func(x, y float64) bool { return x > y }
	}
	allBetter := true
	for _, y := range b {
		for _, x := range a {
			if !better(y, x) {
				allBetter = false
			}
		}
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	spread := max((qa[2]-qa[0])/ma, (qb[2]-qb[0])/mb)
	switch {
	case worse > d.bound:
		return "regressed"
	case allBetter:
		return "improved"
	case spread > d.bound:
		return "unresolved"
	case 10*wins >= 9*pairs && -worse*ma > qa[2]-qa[0]:
		return "improved"
	}
	return "ok"
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives, which is what the benchmark
// driver computes spreads from.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	if len(s) < 2 {
		if len(s) == 1 {
			q = [3]float64{s[0], s[0], s[0]}
		}
		return q
	}
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// readResults loads an -out file: one result per line, grouped by
// workload in file order.
func readResults(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

// values collects one metric across runs, skipping runs without it.
func values(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
