package main

import (
	"math"
	"sort"
)

// metricDef names one metric of the benchmark. BENCHMARK.json at the
// repository root lists the same names, units and bounds; bench_test.go
// fails when the two drift apart.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" | "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, from the untraced run. An operation is one
// whole sweep (parse to rendered table) on sweep_* and one HTTP request
// (POST to terminal result line) on serve_*.
//
// Tail latencies are per-layer metrics, reported but not gated: on this
// kind of host their run-to-run spread reaches 18 %, too close to the
// widest bound a metric may have.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.20},
}

// perLayer are the metrics of single layers, from the traced run. Layer
// names are this repository's packages. A metric that does not apply to
// a workload (the journal on a sweep) reads 0 there.
var perLayer = []metricDef{
	// wtql: direct calls on the workload's own queries.
	{"wtql.parse_us", "us", "lower", 0},
	{"wtql.plan_us", "us", "lower", 0},
	{"wtql.assemble_us", "us", "lower", 0},
	{"wtql.render_us", "us", "lower", 0},
	{"design.points_per_sweep", "count", "lower", 0},
	{"core.cache_key_us", "us", "lower", 0},
	// core: per-point timings from Engine.Progress on the traced sweeps.
	{"core.point_ms", "ms", "lower", 0},
	{"core.trial_us", "us", "lower", 0},
	{"core.sweep_p90_ms", "ms", "lower", 0},
	{"core.sweep_overhead_ms", "ms", "lower", 0},
	{"core.trials_per_s", "1/s", "higher", 0},
	{"core.alloc_kb_per_trial", "KB", "lower", 0},
	{"core.allocs_per_trial", "count", "lower", 0},
	// replay: the benchmark rebuilds each trial from the public
	// constructors and times them itself.
	{"cluster.build_us", "us", "lower", 0},
	{"storage.place_us", "us", "lower", 0},
	{"repair.attach_us", "us", "lower", 0},
	{"sim.run_us", "us", "lower", 0},
	{"sim.events_per_trial", "count", "lower", 0},
	{"sim.us_per_event", "us", "lower", 0},
	{"repair.completed_per_trial", "count", "lower", 0},
	{"repair.mb_moved_per_trial", "MB", "lower", 0},
	{"cluster.node_failures_per_trial", "count", "lower", 0},
	// profile: CPU samples charged to the innermost repro/internal frame.
	{"netsim.cpu_share", "ratio", "lower", 0},
	{"repair.cpu_share", "ratio", "lower", 0},
	{"storage.cpu_share", "ratio", "lower", 0},
	{"cluster.cpu_share", "ratio", "lower", 0},
	{"hardware.cpu_share", "ratio", "lower", 0},
	{"sim.cpu_share", "ratio", "lower", 0},
	{"rng.cpu_share", "ratio", "lower", 0},
	{"core.cpu_share", "ratio", "lower", 0},
	{"wtql.cpu_share", "ratio", "lower", 0},
	{"service.cpu_share", "ratio", "lower", 0},
	{"obs.cpu_share", "ratio", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"unattributed.cpu_share", "ratio", "lower", 0},
	{"runtime.heap_peak_mb", "MB", "lower", 0},
	// service: client spans, scrapes of the daemon's own endpoints and
	// direct calls into Cache and Journal.
	{"service.warm_p50_ms", "ms", "lower", 0},
	{"service.warm_p99_ms", "ms", "lower", 0},
	{"service.fresh_p50_ms", "ms", "lower", 0},
	{"service.fresh_p95_ms", "ms", "lower", 0},
	{"service.http.admit_ms", "ms", "lower", 0},
	{"service.http.stream_ms", "ms", "lower", 0},
	{"service.overhead_ms", "ms", "lower", 0},
	{"service.cache.get_us", "us", "lower", 0},
	{"service.cache.get_disk_us", "us", "lower", 0},
	{"service.cache.put_us", "us", "lower", 0},
	{"service.cache.mem_hit_share", "ratio", "higher", 0},
	{"service.cache.disk_hit_share", "ratio", "lower", 0},
	{"service.cache.miss_share", "ratio", "lower", 0},
	{"service.cache.evictions_per_query", "count", "lower", 0},
	{"service.cache.disk_bytes_per_entry", "B", "lower", 0},
	{"service.journal.bytes_per_point", "B", "lower", 0},
	{"service.journal.point_us", "us", "lower", 0},
	{"service.journal.appends_per_query", "count", "lower", 0},
	{"service.journal.fsync_ms_per_query", "ms", "lower", 0},
	{"service.journal.recover_ms_per_job", "ms", "lower", 0},
	{"service.pool.wait_ms_per_query", "ms", "lower", 0},
	{"service.sim_trials", "count", "lower", 0},
	{"service.sim_events", "count", "lower", 0},
	{"service.points_per_s", "1/s", "higher", 0},
	{"service.span.job_ms", "ms", "lower", 0},
	{"service.span.cache_hit_ms", "ms", "lower", 0},
	{"service.span.simulate_ms", "ms", "lower", 0},
	{"service.span.journal_append_ms", "ms", "lower", 0},
	{"obs.scrape_ms", "ms", "lower", 0},
	{"obs.series", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	// host: how many times slower than nominal the benchmark's reference
	// kernels ran, median of the traced run's samples (hostref.go).
	{"host.slowdown", "ratio", "lower", 0},
}

// cpuSharePackages are the repro/internal packages with a cpu_share
// metric; samples in any other package count as unattributed.
var cpuSharePackages = []string{"netsim", "repair", "storage", "cluster", "hardware", "sim", "rng", "core", "wtql", "service", "obs"}

// reading is one measured metric. N is the sample count behind it (0
// for a single measurement such as a scrape delta).
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// readings collects a run's metrics by name.
type readings map[string]reading

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is not defined in metrics.go")
}

func (r readings) set(name string, value float64, n int) {
	r[name] = reading{Value: value, Unit: unitOf(name), N: n}
}

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
