// Command bench is the wind tunnel's own rig characterisation: four
// named workloads, each run untraced for its end-to-end metrics and
// traced for its per-layer metrics, with every output checked. See
// README.md in this directory.
//
//	go run . -workload all                     # every workload, both runs
//	go run . -workload sweep_repair -trace 0   # end-to-end metrics only
//	go run . -compare A.json B.json            # two result sets, side by side
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

//go:embed golden.json
var goldenJSON []byte

// defaultSeed is the workload seed golden.json holds table hashes for.
const defaultSeed = 1

// hostFacts are recorded in every result, so that two result sets can
// be told apart when their numbers disagree.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

// result is one run as written by -out and read by -compare.
type result struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Trace     bool      `json:"trace"`
	Seconds   float64   `json:"seconds"`
	Host      hostFacts `json:"host"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   readings  `json:"metrics"`
	// Slowdown is how many times slower than nominal the reference
	// kernels ran, median over the samples of the result's last run; its
	// times are already divided by the samples around each (hostref.go).
	Slowdown float64  `json:"host_slowdown"`
	Problems []string `json:"problems,omitempty"`
	Warnings []string `json:"warnings,omitempty"`
}

func main() {
	os.Exit(mainCode())
}

func mainCode() int {
	var (
		workload = flag.String("workload", "all", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
		seed     = flag.Uint64("seed", defaultSeed, "workload seed; every input is generated from it")
		seconds  = flag.Float64("seconds", 22, "length of one measured window")
		trace    = flag.String("trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both")
		outPath  = flag.String("out", "", "append each run's result to this file, one JSON object per line")
		spanPath = flag.String("spans", "", "write each traced run's spans as JSON to <this prefix><workload>.json")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
		update   = flag.Bool("update-golden", false, "rewrite golden.json from this build's sweep tables and exit")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %v\n", flag.Args())
		return 2
	}
	if *update {
		if err := updateGolden(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}

	var traces []bool
	switch *trace {
	case "0":
		traces = []bool{false}
	case "1":
		traces = []bool{true}
	case "both":
		traces = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace wants 0, 1 or both, got %q\n", *trace)
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}

	// Load is sized for a small shared box.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	golden := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintln(os.Stderr, "bench: golden.json:", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "wtbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	host := hostFacts{NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(), Commit: commit()}
	code := 0
	for _, name := range names {
		res := result{Workload: name, Seed: *seed, Trace: *trace != "0", Seconds: *seconds,
			Host: host, Correct: true, Metrics: readings{}}
		for _, traced := range traces {
			cfg := config{workload: name, seed: *seed, seconds: *seconds, trace: traced,
				procs: procs, setupRepeats: 5, tmp: tmp, golden: golden, ref: newHostRef(procs)}
			if traced {
				cfg.spans = newRecorder()
			}
			out, err := run(cfg)
			if err != nil {
				// No result line: the run did not measure anything.
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			for k, v := range out.metrics {
				res.Metrics[k] = v
			}
			res.Slowdown = median(cfg.ref.factors)
			res.Attempted += out.attempted
			res.Failed += out.failed
			res.Problems = append(res.Problems, out.problems...)
			res.Warnings = append(res.Warnings, out.warnings...)
			if traced && *spanPath != "" {
				if err := cfg.spans.write(*spanPath + name + ".json"); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
			}
		}
		res.Correct = res.Failed == 0
		if !res.Correct {
			code = 1
		}
		printResult(res, traces)
		if *outPath != "" {
			if err := appendResult(*outPath, res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
	}
	return code
}

// buildCommit is set by run.sh, which builds with VCS stamping off so
// that a checkout git cannot read still builds.
var buildCommit string

// commit is the VCS revision the binary was built from, or "unknown"
// when the build did not happen inside a repository.
func commit() string {
	if buildCommit != "" {
		return buildCommit
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printResult prints every metric by name with its unit and sample
// count, then the one-line JSON summary the benchmark driver reads:
// exactly the end-to-end metrics for an untraced run, exactly the
// per-layer metrics for a traced one.
func printResult(res result, traces []bool) {
	fmt.Printf("== %s  seed=%d seconds=%g  nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		res.Workload, res.Seed, res.Seconds, res.Host.NumCPU, res.Host.GOMAXPROCS, res.Host.GoVersion, res.Host.Commit)
	summary := map[string]map[string]any{}
	section := func(title string, defs []metricDef, all bool) {
		fmt.Println(title)
		for _, d := range defs {
			r, ok := res.Metrics[d.name]
			if ok {
				fmt.Printf("  %-36s %14.4f %-6s n=%d\n", d.name, r.Value, r.Unit, r.N)
			}
			if ok || all {
				// A per-layer metric that does not apply to this workload
				// still appears in the summary, as 0.
				summary[d.name] = map[string]any{"value": r.Value, "unit": d.unit}
			}
		}
	}
	for _, traced := range traces {
		if traced {
			section("per-layer (traced run)", perLayer, true)
		} else {
			section("end-to-end (untraced run)", endToEnd, false)
		}
	}
	fmt.Printf("host: the reference kernels took %.3f x their nominal time (median sample); end-to-end times are corrected for it\n", res.Slowdown)
	for _, w := range res.Warnings {
		fmt.Println("warning: layer separation:", w)
	}
	for _, p := range res.Problems {
		fmt.Println("FAILED:", p)
	}
	fmt.Printf("checks: %d attempted, %d failed\n", res.Attempted, res.Failed)
	line, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": summary,
	})
	fmt.Println(string(line))
}

func appendResult(path string, res result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// updateGolden recomputes the table hashes of both sweep workloads for
// the default seed. Run it only for a change that is meant to alter a
// simulated statistic.
func updateGolden() error {
	golden := map[string]string{}
	for _, w := range []string{sweepRepair, sweepQuiet} {
		for j := 0; j < sweepSeeds; j++ {
			rs, err := newSweepEngine().Execute(sweepQuery(w, defaultSeed, j).text())
			if err != nil {
				return err
			}
			golden[goldenKey(w, defaultSeed, j)] = tableHash(sweepOutput(rs.Render(), rs))
		}
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("golden.json", append(data, '\n'), 0o644)
}
