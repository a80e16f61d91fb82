// Command figures regenerates every table and figure of the reproduction:
// the paper's Figure 1 plus the experiments E1–E9 derived from its in-text
// claims (see EXPERIMENTS.md).
//
// Usage:
//
//	figures -exp f1          # one experiment
//	figures -exp all         # everything
//	figures -exp f1 -trials 20000
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/design"
	"repro/internal/dist"
	"repro/internal/hardware"
	"repro/internal/opslog"
	"repro/internal/repair"
	"repro/internal/sim"
	"repro/internal/sla"
	"repro/internal/storage"
	"repro/internal/validate"
	"repro/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: f1,e1,e2,e3,e4,e5,e6,e7,e8,e9,val,all")
	trials := flag.Int("trials", 0, "override Monte-Carlo trials (0 = experiment default)")
	seed := flag.Uint64("seed", 42, "base random seed")
	flag.Parse()

	runners := map[string]func(int, uint64) error{
		"f1":  figure1,
		"e1":  e1RepairTradeoff,
		"e2":  e2AnalyticError,
		"e3":  e3Interference,
		"e4":  e4Provisioning,
		"e5":  e5Pruning,
		"e6":  e6ParallelSweep,
		"e7":  e7Limpware,
		"e8":  e8ErasureVsReplication,
		"e9":  e9TraceFitting,
		"val": validation,
	}
	order := []string{"f1", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "val"}

	run := func(id string) {
		fn, ok := runners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "figures: unknown experiment %q\n", id)
			os.Exit(1)
		}
		if err := fn(*trials, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
	if *exp == "all" {
		for _, id := range order {
			run(id)
		}
		return
	}
	run(*exp)
}

func header(title string) {
	fmt.Printf("\n================ %s ================\n", title)
}

// figure1 regenerates the paper's Figure 1: P(>=1 of 10,000 users
// unavailable) vs failed nodes, for all 8 configurations, Monte Carlo
// alongside the exact combinatorics.
func figure1(trialOverride int, seed uint64) error {
	header("Figure 1: probability of data unavailability")
	trials := 1000
	if trialOverride > 0 {
		trials = trialOverride
	}
	type config struct {
		placement string
		n, N      int
	}
	configs := []config{
		{"random", 3, 10}, {"random", 3, 30},
		{"random", 5, 10}, {"random", 5, 30},
		{"roundrobin", 3, 10}, {"roundrobin", 3, 30},
		{"roundrobin", 5, 10}, {"roundrobin", 5, 30},
	}
	fmt.Printf("%d users, %d trials per point; sim = Monte-Carlo wind tunnel, exact = combinatorics\n",
		10000, trials)
	for _, c := range configs {
		label := "R"
		if c.placement == "roundrobin" {
			label = "RR"
		}
		fmt.Printf("\n%s-%d-%d (placement=%s, replicas=%d, nodes=%d)\n",
			label, c.n, c.N, c.placement, c.n, c.N)
		fmt.Printf("%8s  %10s  %10s\n", "failures", "sim", "exact")
		curve, err := core.Figure1Curve(core.Figure1Config{
			N: c.N, Replicas: c.n, Users: 10000,
			Placement: c.placement, Trials: trials, Seed: seed,
		})
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
			fmt.Printf("%8d  %10.4f  %10.4f\n", pt.Config.Failures, pt.Probability, pt.Exact)
		}
	}
	return nil
}

// scenarioBase is the shared E1/E5/E8 cluster (flat, 10 nodes unless
// overridden).
func scenarioBase() core.Scenario {
	sc := core.DefaultScenario()
	sc.Cluster.Racks = 2
	sc.Cluster.NodesPerRack = 10
	sc.Cluster.NodeTTF = dist.Must(dist.NewWeibull(0.7, 3000))
	sc.Cluster.NodeRepair = dist.Must(dist.LogNormalFromMoments(12, 1.2))
	sc.Users = 2000
	sc.ObjectSizeMB = 256
	sc.HorizonHours = hardware.HoursPerYear
	sc.Repair.Detection = dist.Must(dist.NewDeterministic(1))
	return sc
}

// e1RepairTradeoff is the §1 claim: can n-1 replicas with a faster
// network / parallel repair match n replicas with slow repair?
func e1RepairTradeoff(trialOverride int, seed uint64) error {
	header("E1 (§1): replication factor vs repair speed")
	trials := 8
	if trialOverride > 0 {
		trials = trialOverride
	}
	type cfg struct {
		label    string
		replicas int
		nic      string
		mode     repair.Mode
		conc     int
	}
	cases := []cfg{
		{"n=3, 1GbE, serial repair", 3, "nic-1g", repair.Serial, 1},
		{"n=3, 10GbE, parallel repair", 3, "nic-10g", repair.Parallel, 16},
		{"n=2, 1GbE, serial repair", 2, "nic-1g", repair.Serial, 1},
		{"n=2, 10GbE, parallel repair", 2, "nic-10g", repair.Parallel, 16},
	}
	fmt.Printf("%-30s %14s %14s %14s %10s %10s\n",
		"configuration", "zero-copy frac", "unavail frac", "repair max h", "storage x", "capex $")
	for _, c := range cases {
		sc := scenarioBase()
		sc.Seed = seed
		// Fast detection and large objects: the window of vulnerability is
		// dominated by transfer time, the quantity §1's argument varies.
		// An aggressive failure rate (mean TTF ~600 h) makes the rare
		// double-failure events resolvable at moderate trial counts.
		sc.Cluster.NodeTTF = dist.Must(dist.NewWeibull(0.7, 475))
		sc.Repair.Detection = dist.Must(dist.NewDeterministic(0.1))
		sc.ObjectSizeMB = 1024
		sc.Scheme = storage.ReplicationScheme(c.replicas)
		sc.Cluster.NICSpec = c.nic
		sc.Repair.Mode = c.mode
		sc.Repair.MaxConcurrent = c.conc
		res, err := core.Runner{Trials: trials}.Run(sc)
		if err != nil {
			return err
		}
		breakdown, err := cost.Estimate(hardware.DefaultCatalog(), sc.Cluster,
			cost.DefaultPriceBook(), sc.HorizonHours)
		if err != nil {
			return err
		}
		fmt.Printf("%-30s %14.4g %14.6g %14.4g %10.1f %10.0f\n",
			c.label, res.Metrics["zero_copy_fraction"], res.Metrics["unavail_fraction"],
			res.Metrics["repair_makespan"], sc.Scheme.Overhead(), breakdown.CapexUSD)
	}
	fmt.Println("\nShape check (§1): 'unavailable' here is zero up-to-date copies. Faster")
	fmt.Println("network + parallel repair shrinks the repair makespan ~10x, pulling n=2's")
	fmt.Println("zero-copy exposure toward n=3's at 2/3 the storage cost.")
	return nil
}

// e2AnalyticError is the §2.2 claim: exponential-assumption models
// mispredict when reality is Weibull/LogNormal.
func e2AnalyticError(trialOverride int, seed uint64) error {
	header("E2 (§2.2): exponential-assumption analytic error")
	requests := 300000
	if trialOverride > 0 {
		requests = trialOverride
	}
	fmt.Printf("G/G/1 mean wait (simulated) vs M/M/1 formula, rho=0.8\n")
	fmt.Printf("%-34s %12s %12s %10s\n", "arrival/service distributions", "sim Wq", "M/M/1 Wq", "error")
	type cfg struct {
		label     string
		shape, cv float64
	}
	for _, c := range []cfg{
		{"exponential / exponential", 1.0, 1.0},
		{"Weibull(0.8) / LogNormal cv=1.2", 0.8, 1.2},
		{"Weibull(0.6) / LogNormal cv=1.5", 0.6, 1.5},
		{"Weibull(0.5) / LogNormal cv=2.0", 0.5, 2.0},
	} {
		simWq, mm1Wq, err := validate.ExponentialAssumptionError(c.shape, c.cv, 0.8, 1, requests, seed)
		if err != nil {
			return err
		}
		errPct := (mm1Wq - simWq) / simWq * 100
		fmt.Printf("%-34s %12.4f %12.4f %9.1f%%\n", c.label, simWq, mm1Wq, errPct)
	}
	fmt.Println("\nShape check: the M/M/1 prediction degrades monotonically as the")
	fmt.Println("distributions depart from exponential — §2.2's argument for simulation.")
	return nil
}

// perfNodes builds a small workload cluster of node models.
func perfNodes(s *sim.Simulator, n int, spec workload.NodeSpec) ([]*workload.NodeModel, error) {
	nodes := make([]*workload.NodeModel, n)
	for i := range nodes {
		nm, err := workload.NewNodeModel(s, fmt.Sprintf("node-%d", i), spec)
		if err != nil {
			return nil, err
		}
		nodes[i] = nm
	}
	return nodes, nil
}

// e3Interference is the §3 performance-SLA use case: co-location and
// cluster events (repair storms) shift tenant latency percentiles.
func e3Interference(trialOverride int, seed uint64) error {
	header("E3 (§3): workload interference and cluster events")
	requests := int64(40000)
	if trialOverride > 0 {
		requests = int64(trialOverride)
	}
	run := func(withB, withStorm bool) (*workload.Workload, error) {
		s := sim.New(seed)
		nodes, err := perfNodes(s, 4, workload.NodeSpec{Cores: 8, DiskIOPS: 210, NICMBps: 1250})
		if err != nil {
			return nil, err
		}
		profileA := workload.Profile{
			Name: "oltp",
			CPU:  dist.Must(dist.ExpMean(0.002)),
			Disk: dist.Must(dist.ExpMean(1.2)),
			Net:  dist.Must(dist.ExpMean(0.05)),
		}
		a, err := workload.NewWorkload(s, "A", profileA, nodes)
		if err != nil {
			return nil, err
		}
		if err := a.StartOpen(dist.Must(dist.ExpMean(0.01)), requests); err != nil {
			return nil, err
		}
		if withB {
			profileB := workload.Profile{
				Name: "analytics",
				CPU:  dist.Must(dist.ExpMean(0.02)),
				Disk: dist.Must(dist.ExpMean(4)),
			}
			b, err := workload.NewWorkload(s, "B", profileB, nodes)
			if err != nil {
				return nil, err
			}
			if err := b.StartOpen(dist.Must(dist.ExpMean(0.08)), requests/4); err != nil {
				return nil, err
			}
		}
		if withStorm {
			for _, n := range nodes {
				if _, err := workload.BackgroundLoad(s, n, 0.25,
					workload.Demand{DiskOps: 12, NetMB: 24}); err != nil {
					return nil, err
				}
			}
		}
		s.RunUntil(float64(requests) * 0.01 * 1.2)
		return a, nil
	}
	fmt.Printf("%-34s %10s %10s %10s\n", "tenant A sees", "p50 (s)", "p95 (s)", "p99 (s)")
	for _, c := range []struct {
		label        string
		withB, storm bool
	}{
		{"A alone", false, false},
		{"A + co-located tenant B", true, false},
		{"A + B + repair storm", true, true},
	} {
		w, err := run(c.withB, c.storm)
		if err != nil {
			return err
		}
		lat := w.Latencies()
		fmt.Printf("%-34s %10.4f %10.4f %10.4f\n", c.label,
			lat.Quantile(0.5), lat.Quantile(0.95), lat.Quantile(0.99))
	}
	fmt.Println("\nShape check: each added cluster event shifts the tail upward; the")
	fmt.Println("repair storm hits p99 hardest — the effect §3 says prior predictors miss.")
	return nil
}

// e4Provisioning is the §3 hardware-provisioning question: cheapest
// (disk, memory) configuration meeting a p95 latency SLA.
func e4Provisioning(trialOverride int, seed uint64) error {
	header("E4 (§3): hardware provisioning sweep")
	requests := int64(30000)
	if trialOverride > 0 {
		requests = int64(trialOverride)
	}
	cat := hardware.DefaultCatalog()
	// Larger memory caches more of the working set: cache hit ratio =
	// min(0.95, memGB/datasetGB); hits skip the disk stage.
	const datasetGB = 256.0
	const p95SLA = 0.025 // 25 ms
	type row struct {
		disk, mem string
		p95       float64
		capex     float64
		met       bool
	}
	var rows []row
	for _, diskName := range []string{"hdd-7200", "ssd-sata"} {
		for _, memName := range []string{"mem-16g", "mem-64g", "mem-128g"} {
			diskSpec, err := cat.Get(diskName)
			if err != nil {
				return err
			}
			memSpec, err := cat.Get(memName)
			if err != nil {
				return err
			}
			hit := memSpec.CapacityGB / datasetGB
			if hit > 0.95 {
				hit = 0.95
			}
			s := sim.New(seed)
			nodes, err := perfNodes(s, 4, workload.NodeSpec{
				Cores: 8, DiskIOPS: diskSpec.IOPS, NICMBps: 1250,
			})
			if err != nil {
				return err
			}
			profile := workload.Profile{
				Name: "kv",
				CPU:  dist.Must(dist.ExpMean(0.001)),
				Disk: dist.Must(dist.ExpMean(1.0 * (1 - hit))),
			}
			w, err := workload.NewWorkload(s, "kv", profile, nodes)
			if err != nil {
				return err
			}
			if err := w.StartOpen(dist.Must(dist.ExpMean(0.005)), requests); err != nil {
				return err
			}
			s.RunUntil(float64(requests) * 0.005 * 1.2)
			p95 := w.Latencies().Quantile(0.95)

			ccfg := cluster.Config{
				Racks: 1, NodesPerRack: 4,
				DiskSpec: diskName, DisksPerNode: 4,
				NICSpec: "nic-10g", CPUSpec: "cpu-8c", MemSpec: memName,
				SwitchSpec: "switch-48p-10g",
			}
			breakdown, err := cost.Estimate(cat, ccfg, cost.DefaultPriceBook(), hardware.HoursPerYear)
			if err != nil {
				return err
			}
			rows = append(rows, row{diskName, memName, p95, breakdown.CapexUSD, p95 <= p95SLA})
		}
	}
	fmt.Printf("p95 latency SLA: <= %.0f ms; dataset %v GB\n\n", p95SLA*1000, datasetGB)
	fmt.Printf("%-10s %-10s %12s %10s %6s\n", "disk", "memory", "p95 (s)", "capex $", "SLA")
	bestIdx, bestCost := -1, 0.0
	for i, r := range rows {
		mark := "miss"
		if r.met {
			mark = "MET"
			if bestIdx < 0 || r.capex < bestCost {
				bestIdx, bestCost = i, r.capex
			}
		}
		fmt.Printf("%-10s %-10s %12.4f %10.0f %6s\n", r.disk, r.mem, r.p95, r.capex, mark)
	}
	if bestIdx >= 0 {
		fmt.Printf("\ncheapest configuration meeting the SLA: %s + %s ($%.0f capex)\n",
			rows[bestIdx].disk, rows[bestIdx].mem, rows[bestIdx].capex)
	} else {
		fmt.Println("\nno configuration met the SLA")
	}
	return nil
}

// e5Pruning measures §4.2 dominance pruning and early abort.
func e5Pruning(trialOverride int, seed uint64) error {
	header("E5 (§4.2): dominance pruning and early abort")
	trials := 2
	if trialOverride > 0 {
		trials = trialOverride
	}
	space, err := design.NewSpace(
		design.Dimension{Name: "nic", Values: []design.Value{"nic-1g", "nic-10g", "nic-40g"}, Monotone: true},
		design.Dimension{Name: "replicas", Values: []design.Value{2, 3, 5}, Monotone: true},
		design.Dimension{Name: "placement", Values: []design.Value{"random", "roundrobin"}},
	)
	if err != nil {
		return err
	}
	target, err := sla.NewAvailability(0.9999)
	if err != nil {
		return err
	}
	build := func(p design.Point) (core.Scenario, []sla.SLA, error) {
		sc := scenarioBase()
		sc.Seed = seed
		sc.Users = 500
		sc.Cluster.NodeTTF = dist.Must(dist.ExpMean(800))
		sc.Repair.Detection = dist.Must(dist.NewDeterministic(12))
		sc.Cluster.NICSpec = p.MustValue("nic").(string)
		sc.Scheme = storage.ReplicationScheme(p.MustValue("replicas").(int))
		sc.Placement = p.MustValue("placement").(string)
		return sc, []sla.SLA{target}, nil
	}
	for _, mode := range []struct {
		label string
		prune bool
		abort *core.AbortRule
	}{
		{"exhaustive", false, nil},
		{"dominance pruning", true, nil},
		{"pruning + early abort", true, &core.AbortRule{MinAvailability: 0.9999, CheckEvery: 256}},
	} {
		ex := &core.Explorer{
			Space: space, Build: build,
			Runner: core.Runner{Trials: trials, Abort: mode.abort},
			Prune:  mode.prune, Workers: 1,
		}
		start := time.Now()
		res, err := ex.Run()
		if err != nil {
			return err
		}
		fmt.Printf("%-24s configs executed %2d / %2d, pruned %2d, events %9d, wall %v\n",
			mode.label, res.Executed, space.Size(), res.Pruned, res.Events,
			time.Since(start).Round(time.Millisecond))
	}
	fmt.Println("\nShape check: pruning executes strictly fewer configurations with an")
	fmt.Println("identical passing frontier; early abort cuts events per failing run.")
	return nil
}

// e6ParallelSweep measures run-level parallel scaling (§4.2).
func e6ParallelSweep(trialOverride int, seed uint64) error {
	header("E6 (§4.2): parallel sweep scaling")
	trials := 4
	if trialOverride > 0 {
		trials = trialOverride
	}
	space, err := design.NewSpace(
		design.Dimension{Name: "replicas", Values: []design.Value{2, 3, 5}},
		design.Dimension{Name: "placement", Values: []design.Value{"random", "roundrobin"}},
	)
	if err != nil {
		return err
	}
	build := func(p design.Point) (core.Scenario, []sla.SLA, error) {
		sc := scenarioBase()
		sc.Seed = seed
		sc.Users = 1000
		sc.Scheme = storage.ReplicationScheme(p.MustValue("replicas").(int))
		sc.Placement = p.MustValue("placement").(string)
		return sc, nil, nil
	}
	var base time.Duration
	for _, workers := range []int{1, 2, 4} {
		ex := &core.Explorer{
			Space: space, Build: build,
			Runner:  core.Runner{Trials: trials, Workers: 1},
			Workers: workers,
		}
		start := time.Now()
		if _, err := ex.Run(); err != nil {
			return err
		}
		elapsed := time.Since(start)
		if workers == 1 {
			base = elapsed
		}
		speedup := float64(base) / float64(elapsed)
		fmt.Printf("workers=%d  wall=%8v  speedup=%.2fx\n",
			workers, elapsed.Round(time.Millisecond), speedup)
	}
	fmt.Printf("(host has %d CPUs; scaling saturates there)\n", runtime.NumCPU())
	return nil
}

// e7Limpware is the §4.5 degraded-hardware study.
func e7Limpware(trialOverride int, seed uint64) error {
	header("E7 (§4.5): limpware — degraded NIC impact")
	requests := int64(30000)
	if trialOverride > 0 {
		requests = int64(trialOverride)
	}
	fmt.Printf("%-22s %10s %10s %10s\n", "NIC at % of spec", "p50 (s)", "p95 (s)", "p99 (s)")
	for _, factor := range []float64{1.0, 0.1, 0.01} {
		s := sim.New(seed)
		nodes, err := perfNodes(s, 4, workload.NodeSpec{Cores: 8, DiskIOPS: 75000, NICMBps: 125})
		if err != nil {
			return err
		}
		if factor < 1 {
			// One limping NIC out of four — the Limplock scenario.
			if err := nodes[0].DegradeNIC(factor); err != nil {
				return err
			}
		}
		profile := workload.Profile{
			Name: "netbound",
			CPU:  dist.Must(dist.ExpMean(0.0005)),
			Net:  dist.Must(dist.ExpMean(0.5)),
		}
		w, err := workload.NewWorkload(s, "w", profile, nodes)
		if err != nil {
			return err
		}
		if err := w.StartOpen(dist.Must(dist.ExpMean(0.01)), requests); err != nil {
			return err
		}
		s.RunUntil(float64(requests) * 0.01 * 2)
		lat := w.Latencies()
		fmt.Printf("%-22.0f %10.4f %10.4f %10.4f\n", factor*100,
			lat.Quantile(0.5), lat.Quantile(0.95), lat.Quantile(0.99))
	}
	fmt.Println("\nShape check: a single NIC at 1% of spec dominates the p99 tail even")
	fmt.Println("though 3 of 4 nodes are healthy — the limpware effect of the paper's [5].")
	return nil
}

// e8ErasureVsReplication compares schemes on overhead/availability/traffic.
func e8ErasureVsReplication(trialOverride int, seed uint64) error {
	header("E8 ([14]/§3): erasure coding vs replication")
	trials := 6
	if trialOverride > 0 {
		trials = trialOverride
	}
	type cfg struct {
		label  string
		scheme storage.Scheme
	}
	cases := []cfg{
		{"3-way replication", storage.ReplicationScheme(3)},
		{"5-way replication", storage.ReplicationScheme(5)},
		{"RS(6,3)", storage.RSScheme(6, 3)},
		{"RS(10,4)", storage.RSScheme(10, 4)},
	}
	fmt.Printf("%-20s %10s %14s %12s %16s\n",
		"scheme", "storage x", "unavail frac", "loss prob", "repair MB/trial")
	for _, c := range cases {
		sc := scenarioBase()
		sc.Seed = seed
		sc.Cluster.Racks = 3
		sc.Cluster.NodesPerRack = 10
		sc.Users = 1000
		// Aggressive failures + slow detection make scheme differences
		// resolvable (cf. E1).
		sc.Cluster.NodeTTF = dist.Must(dist.NewWeibull(0.7, 475))
		sc.Repair.Detection = dist.Must(dist.NewDeterministic(6))
		sc.Scheme = c.scheme
		res, err := core.Runner{Trials: trials}.Run(sc)
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %10.2f %14.6g %12.4g %16.0f\n",
			c.label, c.scheme.Overhead(), res.Metrics["unavail_fraction"],
			res.Metrics["loss_prob"], res.Metrics["repair_bytes_mb"])
	}
	fmt.Println("\nShape check: RS codes cut storage 2x vs 3-way replication at comparable")
	fmt.Println("or better durability, paying with higher repair traffic — the [14] trade-off.")
	return nil
}

// e9TraceFitting is the §4.4 log-to-model pipeline.
func e9TraceFitting(trialOverride int, seed uint64) error {
	header("E9 (§4.4): operational-log model fitting")
	components := 400
	if trialOverride > 0 {
		components = trialOverride
	}
	truthTTF := dist.Must(dist.NewWeibull(0.7, 1500))
	truthRep := dist.Must(dist.NewLogNormal(2.2, 0.9))
	events, err := opslog.Generate(opslog.GeneratorConfig{
		Components: components, Horizon: 50000,
		TTF: truthTTF, Repair: truthRep, Seed: seed,
	})
	if err != nil {
		return err
	}
	ttf, rep, err := opslog.FitModels(events)
	if err != nil {
		return err
	}
	fmt.Printf("synthetic log: %d events from %d components over 50,000 h\n",
		len(events), components)
	fmt.Printf("ground truth TTF: %v\n", truthTTF)
	fmt.Printf("ground truth repair: %v\n\n", truthRep)
	fmt.Printf("%-10s %-12s %-34s %10s %10s\n", "quantity", "n", "best fit", "KS", "p-value")
	fmt.Printf("%-10s %-12d %-34s %10.4f %10.3f\n", "ttf", ttf.N, ttf.Best.Dist.String(), ttf.Best.KS, ttf.Best.PValue)
	fmt.Printf("%-10s %-12d %-34s %10.4f %10.3f\n", "repair", rep.N, rep.Best.Dist.String(), rep.Best.KS, rep.Best.PValue)
	fmt.Println("\nfull candidate ranking (TTF):")
	for _, f := range ttf.All {
		if f.Err != nil {
			fmt.Printf("  %-12s fit failed: %v\n", f.Name, f.Err)
			continue
		}
		fmt.Printf("  %-12s KS=%.4f p=%.4f  %v\n", f.Name, f.KS, f.PValue, f.Dist)
	}
	return nil
}

// validation runs the §4.3 suite.
func validation(_ int, seed uint64) error {
	header("V1 (§4.3): simulator validation against closed forms")
	reports, err := validate.RunAll(seed)
	if err != nil {
		return err
	}
	for _, r := range reports {
		fmt.Println(r)
	}
	return nil
}
