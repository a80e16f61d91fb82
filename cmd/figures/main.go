// Command figures regenerates every table and figure of the reproduction:
// the paper's Figure 1 plus the experiments E1–E9 derived from its in-text
// claims (see EXPERIMENTS.md). E1, E5 and E8 are WTQL queries, checked in
// under queries/ and run through wtql's parser and engine, the path
// `wtql -f`, the daemon and the fleet take; figures_test.go asserts each
// experiment's claim on the values it returns.
//
// Usage:
//
//	figures -exp f1          # one experiment
//	figures -exp all         # everything
//	figures -exp f1 -trials 20000
package main

import (
	"embed"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dist"
	"repro/internal/hardware"
	"repro/internal/opslog"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/validate"
	"repro/internal/workload"
	"repro/internal/wtql"
)

//go:embed queries/*.wtq
var queries embed.FS

func main() {
	exp := flag.String("exp", "all", "experiment id: f1,e1,e2,e3,e4,e5,e7,e8,e9,val,all")
	trials := flag.Int("trials", 0, "override Monte-Carlo trials (0 = experiment default)")
	seed := flag.Uint64("seed", 42, "base random seed")
	flag.Parse()

	experiments := []struct {
		id  string
		run func(io.Writer, int, uint64) error
	}{
		{"f1", figure1}, {"e1", printOnly(e1RepairTradeoff)},
		{"e2", printOnly(e2AnalyticError)}, {"e3", printOnly(e3Interference)},
		{"e4", printOnly(e4Provisioning)}, {"e5", printOnly(e5Pruning)},
		{"e7", printOnly(e7Limpware)}, {"e8", printOnly(e8ErasureVsReplication)},
		{"e9", printOnly(e9TraceFitting)}, {"val", validation},
	}
	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.id {
			continue
		}
		ran = true
		if err := e.run(os.Stdout, *trials, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", e.id, err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "figures: unknown experiment %q\n", *exp)
		os.Exit(1)
	}
}

// printOnly runs an experiment for what it prints; the values it returns
// are for figures_test.go.
func printOnly[T any](f func(io.Writer, int, uint64) (T, error)) func(io.Writer, int, uint64) error {
	return func(out io.Writer, trials int, seed uint64) error {
		_, err := f(out, trials, seed)
		return err
	}
}

func header(out io.Writer, title string) {
	fmt.Fprintf(out, "\n================ %s ================\n", title)
}

// orDefault is the -trials override when one was given, else def.
func orDefault(override, def int) int {
	if override > 0 {
		return override
	}
	return def
}

// runQuery runs queries/<name>.wtq with its seed, and its trials when
// trials > 0, overridden — a later WITH assignment wins — and prints the
// varied dimensions and the given metrics of its table. prune false drops
// the query's MONOTONE marks, so every point runs.
func runQuery(out io.Writer, name string, trials int, seed uint64, prune bool, metrics ...string) (*wtql.ResultSet, error) {
	text, err := queries.ReadFile("queries/" + name + ".wtq")
	if err != nil {
		return nil, err
	}
	q, err := wtql.Parse(string(text))
	if err != nil {
		return nil, err
	}
	q.With = append(q.With, wtql.Assign{Param: "seed", Value: float64(seed)})
	if trials > 0 {
		q.With = append(q.With, wtql.Assign{Param: "trials", Value: float64(trials)})
	}
	for i := range q.Vary {
		q.Vary[i].Monotone = q.Vary[i].Monotone && prune
	}
	rs, err := (&wtql.Engine{}).Run(q)
	if err != nil {
		return nil, err
	}
	rs.Columns = append(rs.Columns[:len(q.Vary):len(q.Vary)], metrics...)
	fmt.Fprint(out, rs.Render())
	return rs, nil
}

// figure1 regenerates the paper's Figure 1: P(>=1 of 10,000 users
// unavailable) vs failed nodes, for all 8 configurations, Monte Carlo
// alongside the exact combinatorics; internal/core's
// TestFigure1MCMatchesExact* assert it at smaller trial counts.
func figure1(out io.Writer, trialOverride int, seed uint64) error {
	header(out, "Figure 1: probability of data unavailability")
	trials := orDefault(trialOverride, 1000)
	type config struct {
		placement string
		n, N      int
	}
	configs := []config{{"random", 3, 10}, {"random", 3, 30}, {"random", 5, 10}, {"random", 5, 30},
		{"roundrobin", 3, 10}, {"roundrobin", 3, 30}, {"roundrobin", 5, 10}, {"roundrobin", 5, 30}}
	fmt.Fprintf(out, "%d users, %d trials per point; sim = Monte-Carlo wind tunnel, exact = combinatorics\n",
		10000, trials)
	for _, c := range configs {
		label := "R"
		if c.placement == "roundrobin" {
			label = "RR"
		}
		fmt.Fprintf(out, "\n%s-%d-%d (placement=%s, replicas=%d, nodes=%d)\n",
			label, c.n, c.N, c.placement, c.n, c.N)
		fmt.Fprintf(out, "%8s  %10s  %10s\n", "failures", "sim", "exact")
		curve, err := core.Figure1Curve(core.Figure1Config{N: c.N, Replicas: c.n, Users: 10000,
			Placement: c.placement, Trials: trials, Seed: seed})
		if err != nil {
			return err
		}
		for _, pt := range curve {
			// Print the informative region only: skip the long saturated
			// tail at exactly 1 (the figure's y range).
			if pt.Config.Failures > 1 && pt.Exact == 1 && pt.Probability == 1 &&
				pt.Config.Failures > c.n+4 {
				continue
			}
			fmt.Fprintf(out, "%8d  %10.4f  %10.4f\n", pt.Config.Failures, pt.Probability, pt.Exact)
		}
	}
	return nil
}

// e1RepairTradeoff is the §1 claim: can n-1 replicas with a faster
// network and parallel repair match n replicas with slow repair? Fast
// detection and large objects make the window of vulnerability mostly
// transfer time; a mean TTF of ~600 h resolves double failures at 8 trials.
func e1RepairTradeoff(out io.Writer, trials int, seed uint64) ([]wtql.Row, error) {
	header(out, "E1 (§1): replication factor vs repair speed")
	rs, err := runQuery(out, "e1", trials, seed, true,
		"zero_copy_fraction", "unavail_fraction", "repair_makespan", "storage.overhead", "cost.capex")
	if err != nil {
		return nil, err
	}
	return rs.Rows, nil
}

// e2AnalyticError is the §2.2 claim: exponential-assumption models
// mispredict when reality is Weibull/LogNormal. It returns each row's
// M/M/1 error in percent of the simulated wait.
func e2AnalyticError(out io.Writer, trialOverride int, seed uint64) ([]float64, error) {
	header(out, "E2 (§2.2): exponential-assumption analytic error")
	requests := orDefault(trialOverride, 300000)
	fmt.Fprintf(out, "G/G/1 mean wait (simulated) vs M/M/1 formula, rho=0.8\n")
	fmt.Fprintf(out, "%-34s %12s %12s %10s\n", "arrival/service distributions", "sim Wq", "M/M/1 Wq", "error")
	type cfg struct {
		label     string
		shape, cv float64
	}
	var errs []float64
	for _, c := range []cfg{
		{"exponential / exponential", 1.0, 1.0},
		{"Weibull(0.8) / LogNormal cv=1.2", 0.8, 1.2},
		{"Weibull(0.6) / LogNormal cv=1.5", 0.6, 1.5},
		{"Weibull(0.5) / LogNormal cv=2.0", 0.5, 2.0},
	} {
		simWq, mm1Wq, err := validate.ExponentialAssumptionError(c.shape, c.cv, 0.8, 1, requests, seed)
		if err != nil {
			return nil, err
		}
		errPct := (mm1Wq - simWq) / simWq * 100
		fmt.Fprintf(out, "%-34s %12.4f %12.4f %9.1f%%\n", c.label, simWq, mm1Wq, errPct)
		errs = append(errs, errPct)
	}
	return errs, nil
}

// quantiles is a latency sample's p50, p95 and p99, in seconds.
type quantiles [3]float64

func tail(lat *stats.Sample) quantiles {
	return quantiles{lat.Quantile(0.5), lat.Quantile(0.95), lat.Quantile(0.99)}
}

// openLoop runs one open-loop rig: a simulator seeded with seed, four
// node models of spec, and a workload issuing requests of profile at
// exponential gaps of mean gap seconds, run for slack times the
// requests' nominal span. extra, when not nil, adds what else the rig
// holds once the workload has started. It returns the workload, whose
// latencies are the rig's reading.
func openLoop(seed uint64, spec workload.NodeSpec, name string, profile workload.Profile, gap float64, requests int64, slack float64,
	extra func(*sim.Simulator, []*workload.NodeModel) error) (*workload.Workload, error) {
	s := sim.New(seed)
	nodes := make([]*workload.NodeModel, 4)
	for i := range nodes {
		var err error
		if nodes[i], err = workload.NewNodeModel(s, fmt.Sprintf("node-%d", i), spec); err != nil {
			return nil, err
		}
	}
	w, err := workload.NewWorkload(s, name, profile, nodes)
	if err != nil {
		return nil, err
	}
	if err := w.StartOpen(dist.Must(dist.ExpMean(gap)), requests); err != nil {
		return nil, err
	}
	if extra != nil {
		if err := extra(s, nodes); err != nil {
			return nil, err
		}
	}
	s.RunUntil(float64(requests) * gap * slack)
	return w, nil
}

// e3Interference is the §3 performance-SLA use case: co-location and
// cluster events (repair storms) shift tenant latency percentiles. It
// returns tenant A's quantiles alone, beside tenant B, and beside B in a
// repair storm.
func e3Interference(out io.Writer, trialOverride int, seed uint64) ([]quantiles, error) {
	header(out, "E3 (§3): workload interference and cluster events")
	requests := int64(orDefault(trialOverride, 40000))
	profileA := workload.Profile{Name: "oltp", CPU: dist.Must(dist.ExpMean(0.002)),
		Disk: dist.Must(dist.ExpMean(1.2)), Net: dist.Must(dist.ExpMean(0.05))}
	profileB := workload.Profile{Name: "analytics",
		CPU: dist.Must(dist.ExpMean(0.02)), Disk: dist.Must(dist.ExpMean(4))}
	fmt.Fprintf(out, "%-34s %10s %10s %10s\n", "tenant A sees", "p50 (s)", "p95 (s)", "p99 (s)")
	var rows []quantiles
	for _, c := range []struct {
		label        string
		withB, storm bool
	}{
		{"A alone", false, false},
		{"A + co-located tenant B", true, false},
		{"A + B + repair storm", true, true},
	} {
		w, err := openLoop(seed, workload.NodeSpec{Cores: 8, DiskIOPS: 210, NICMBps: 1250}, "A", profileA, 0.01, requests, 1.2,
			func(s *sim.Simulator, nodes []*workload.NodeModel) error {
				if c.withB {
					b, err := workload.NewWorkload(s, "B", profileB, nodes)
					if err != nil {
						return err
					}
					if err := b.StartOpen(dist.Must(dist.ExpMean(0.08)), requests/4); err != nil {
						return err
					}
				}
				if c.storm {
					for _, n := range nodes {
						if _, err := workload.BackgroundLoad(s, n, 0.25,
							workload.Demand{DiskOps: 12, NetMB: 24}); err != nil {
							return err
						}
					}
				}
				return nil
			})
		if err != nil {
			return nil, err
		}
		q := tail(w.Latencies())
		fmt.Fprintf(out, "%-34s %10.4f %10.4f %10.4f\n", c.label, q[0], q[1], q[2])
		rows = append(rows, q)
	}
	return rows, nil
}

// provision is one E4 configuration and whether it met the SLA.
type provision struct {
	disk, mem  string
	p95, capex float64
	met        bool
}

// e4Provisioning is the §3 hardware-provisioning question: cheapest
// (disk, memory) configuration meeting a p95 latency SLA.
func e4Provisioning(out io.Writer, trialOverride int, seed uint64) ([]provision, error) {
	header(out, "E4 (§3): hardware provisioning sweep")
	requests := int64(orDefault(trialOverride, 30000))
	cat := hardware.DefaultCatalog()
	// Larger memory caches more of the working set: cache hit ratio =
	// min(0.95, memGB/datasetGB); hits skip the disk stage.
	const datasetGB = 256.0
	const p95SLA = 0.025 // 25 ms
	var rows []provision
	for _, diskName := range []string{"hdd-7200", "ssd-sata"} {
		for _, memName := range []string{"mem-16g", "mem-64g", "mem-128g"} {
			diskSpec, err := cat.Get(diskName)
			if err != nil {
				return nil, err
			}
			memSpec, err := cat.Get(memName)
			if err != nil {
				return nil, err
			}
			hit := min(memSpec.CapacityGB/datasetGB, 0.95)
			profile := workload.Profile{Name: "kv",
				CPU: dist.Must(dist.ExpMean(0.001)), Disk: dist.Must(dist.ExpMean(1.0 * (1 - hit)))}
			w, err := openLoop(seed, workload.NodeSpec{Cores: 8, DiskIOPS: diskSpec.IOPS, NICMBps: 1250}, "kv", profile, 0.005, requests, 1.2, nil)
			if err != nil {
				return nil, err
			}
			p95 := w.Latencies().Quantile(0.95)

			ccfg := cluster.Config{Racks: 1, NodesPerRack: 4, DiskSpec: diskName, DisksPerNode: 4,
				NICSpec: "nic-10g", CPUSpec: "cpu-8c", MemSpec: memName, SwitchSpec: "switch-48p-10g"}
			breakdown, err := cost.Estimate(cat, ccfg, cost.DefaultPriceBook(), hardware.HoursPerYear)
			if err != nil {
				return nil, err
			}
			rows = append(rows, provision{diskName, memName, p95, breakdown.CapexUSD, p95 <= p95SLA})
		}
	}
	fmt.Fprintf(out, "p95 latency SLA: <= %.0f ms; dataset %v GB\n\n", p95SLA*1000, datasetGB)
	fmt.Fprintf(out, "%-10s %-10s %12s %10s %6s\n", "disk", "memory", "p95 (s)", "capex $", "SLA")
	best := -1
	for i, r := range rows {
		mark := "miss"
		if r.met {
			mark = "MET"
			if best < 0 || r.capex < rows[best].capex {
				best = i
			}
		}
		fmt.Fprintf(out, "%-10s %-10s %12.4f %10.0f %6s\n", r.disk, r.mem, r.p95, r.capex, mark)
	}
	if best >= 0 {
		fmt.Fprintf(out, "\ncheapest configuration meeting the SLA: %s + %s ($%.0f capex)\n",
			rows[best].disk, rows[best].mem, rows[best].capex)
	} else {
		fmt.Fprintln(out, "\nno configuration met the SLA")
	}
	return rows, nil
}

// e5Pruning is §4.2 dominance pruning: its query run without and with
// its MONOTONE marks, which must pass the same configurations.
func e5Pruning(out io.Writer, trials int, seed uint64) ([2]*wtql.ResultSet, error) {
	header(out, "E5 (§4.2): dominance pruning")
	var arms [2]*wtql.ResultSet
	for i, label := range []string{"exhaustive", "dominance pruning"} {
		fmt.Fprintf(out, "\n%s:\n", label)
		rs, err := runQuery(out, "e5", trials, seed, i == 1, "availability")
		if err != nil {
			return arms, err
		}
		arms[i] = rs
	}
	return arms, nil
}

// e7Limpware is the §4.5 degraded-hardware study. It returns the
// quantiles with one NIC of four at 100 %, 10 % and 1 % of its spec.
func e7Limpware(out io.Writer, trialOverride int, seed uint64) ([]quantiles, error) {
	header(out, "E7 (§4.5): limpware — degraded NIC impact")
	requests := int64(orDefault(trialOverride, 30000))
	fmt.Fprintf(out, "%-22s %10s %10s %10s\n", "NIC at % of spec", "p50 (s)", "p95 (s)", "p99 (s)")
	var rows []quantiles
	profile := workload.Profile{Name: "netbound",
		CPU: dist.Must(dist.ExpMean(0.0005)), Net: dist.Must(dist.ExpMean(0.5))}
	for _, factor := range []float64{1.0, 0.1, 0.01} {
		w, err := openLoop(seed, workload.NodeSpec{Cores: 8, DiskIOPS: 75000, NICMBps: 125}, "w", profile, 0.01, requests, 2,
			func(_ *sim.Simulator, nodes []*workload.NodeModel) error {
				if factor < 1 {
					// One limping NIC out of four — the Limplock scenario.
					return nodes[0].DegradeNIC(factor)
				}
				return nil
			})
		if err != nil {
			return nil, err
		}
		q := tail(w.Latencies())
		fmt.Fprintf(out, "%-22.0f %10.4f %10.4f %10.4f\n", factor*100, q[0], q[1], q[2])
		rows = append(rows, q)
	}
	return rows, nil
}

// e8ErasureVsReplication compares schemes on overhead, availability,
// durability and repair traffic. Its query fails nodes aggressively and
// detects them slowly, so scheme differences are resolvable (cf. E1).
func e8ErasureVsReplication(out io.Writer, trials int, seed uint64) ([]wtql.Row, error) {
	header(out, "E8 ([14]/§3): erasure coding vs replication")
	rs, err := runQuery(out, "e8", trials, seed, true,
		"storage.overhead", "unavail_fraction", "loss_prob", "repair_bytes_mb")
	if err != nil {
		return nil, err
	}
	return rs.Rows, nil
}

// e9TraceFitting is the §4.4 log-to-model pipeline. It returns the TTF
// and repair fits.
func e9TraceFitting(out io.Writer, trialOverride int, seed uint64) ([2]opslog.ModelReport, error) {
	header(out, "E9 (§4.4): operational-log model fitting")
	components := orDefault(trialOverride, 400)
	truthTTF := dist.Must(dist.NewWeibull(0.7, 1500))
	truthRep := dist.Must(dist.NewLogNormal(2.2, 0.9))
	events, err := opslog.Generate(opslog.GeneratorConfig{
		Components: components, Horizon: 50000,
		TTF: truthTTF, Repair: truthRep, Seed: seed,
	})
	if err != nil {
		return [2]opslog.ModelReport{}, err
	}
	ttf, rep, err := opslog.FitModels(events)
	if err != nil {
		return [2]opslog.ModelReport{}, err
	}
	fmt.Fprintf(out, "synthetic log: %d events from %d components over 50,000 h\n",
		len(events), components)
	fmt.Fprintf(out, "ground truth TTF: %v\n", truthTTF)
	fmt.Fprintf(out, "ground truth repair: %v\n\n", truthRep)
	fmt.Fprintf(out, "%-10s %-12s %-34s %10s %10s\n", "quantity", "n", "best fit", "KS", "p-value")
	fmt.Fprintf(out, "%-10s %-12d %-34s %10.4f %10.3f\n", "ttf", ttf.N, ttf.Best.Dist.String(), ttf.Best.KS, ttf.Best.PValue)
	fmt.Fprintf(out, "%-10s %-12d %-34s %10.4f %10.3f\n", "repair", rep.N, rep.Best.Dist.String(), rep.Best.KS, rep.Best.PValue)
	fmt.Fprintln(out, "\nfull candidate ranking (TTF):")
	for _, f := range ttf.All {
		if f.Err != nil {
			fmt.Fprintf(out, "  %-12s fit failed: %v\n", f.Name, f.Err)
			continue
		}
		fmt.Fprintf(out, "  %-12s KS=%.4f p=%.4f  %v\n", f.Name, f.KS, f.PValue, f.Dist)
	}
	return [2]opslog.ModelReport{ttf, rep}, nil
}

// validation runs the §4.3 suite; validate.TestRunAllPasses asserts it.
func validation(out io.Writer, _ int, seed uint64) error {
	header(out, "V1 (§4.3): simulator validation against closed forms")
	reports, err := validate.RunAll(seed)
	if err != nil {
		return err
	}
	for _, r := range reports {
		fmt.Fprintln(out, r)
	}
	return nil
}
