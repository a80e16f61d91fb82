// Package workload implements the performance half of the wind tunnel
// (§3 of the paper): synthetic request workloads executing against
// per-node resource models, so that performance SLAs, co-location
// interference, limpware and repair-traffic effects can be simulated.
//
// The paper's position (citing DBSeer) is that predictions are possible
// "as long as the key resources are simulated": each node is modelled as
// three service centers — CPU (multi-server), disk and NIC — and every
// request consumes a sampled amount of each in series. Co-located
// workloads interfere by queueing at the same stations; degraded hardware
// slows a station through its speed factor; repair storms inject extra
// disk and NIC work.
//
// Time unit: seconds.
package workload

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// NodeModel is the resource model of one server: CPU with `cores`
// parallel servers, a disk and a NIC.
type NodeModel struct {
	Name string
	CPU  *sim.Station
	Disk *sim.Station
	NIC  *sim.Station

	sim          *sim.Simulator
	diskSecPerOp float64
	nicSecPerMB  float64
}

// NodeSpec parameterizes a NodeModel from hardware numbers.
type NodeSpec struct {
	Cores    int
	DiskIOPS float64
	NICMBps  float64
}

// NewNodeModel builds a node resource model on simulator s.
func NewNodeModel(s *sim.Simulator, name string, spec NodeSpec) (*NodeModel, error) {
	if spec.Cores < 1 {
		return nil, fmt.Errorf("workload: node %q needs >= 1 core, got %d", name, spec.Cores)
	}
	if spec.DiskIOPS <= 0 || spec.NICMBps <= 0 {
		return nil, fmt.Errorf("workload: node %q needs positive disk IOPS and NIC MBps", name)
	}
	cpu, err := sim.NewStation(s, name+"/cpu", spec.Cores)
	if err != nil {
		return nil, err
	}
	disk, err := sim.NewStation(s, name+"/disk", 1)
	if err != nil {
		return nil, err
	}
	nic, err := sim.NewStation(s, name+"/nic", 1)
	if err != nil {
		return nil, err
	}
	return &NodeModel{
		Name: name, CPU: cpu, Disk: disk, NIC: nic, sim: s,
		diskSecPerOp: 1 / spec.DiskIOPS,
		nicSecPerMB:  1 / spec.NICMBps,
	}, nil
}

// Demand is one request's resource consumption.
type Demand struct {
	CPUSeconds float64
	DiskOps    float64
	NetMB      float64
}

// Process runs a request through CPU -> disk -> NIC and reports the
// end-to-end latency to done (which may be nil). Zero-demand stages are
// skipped.
func (n *NodeModel) Process(d Demand, done func(latency float64)) {
	t0 := n.sim.Now()
	run := func(st *sim.Station, work float64, next func()) {
		if work <= 0 {
			next()
			return
		}
		st.Submit(work, func(_, _ float64) { next() })
	}
	run(n.CPU, d.CPUSeconds, func() {
		run(n.Disk, d.DiskOps*n.diskSecPerOp, func() {
			run(n.NIC, d.NetMB*n.nicSecPerMB, func() {
				if done != nil {
					done(n.sim.Now() - t0)
				}
			})
		})
	})
}

// DegradeNIC applies a limpware factor to the node's NIC (§4.5): 0.01
// means the NIC runs at 1% of its specified throughput. Factor 1 restores
// full speed.
func (n *NodeModel) DegradeNIC(factor float64) error {
	if factor <= 0 || factor > 1 {
		return fmt.Errorf("workload: degrade factor %v outside (0, 1]", factor)
	}
	n.NIC.SetSpeed(factor)
	return nil
}

// Profile is a request class: sampled resource demands.
type Profile struct {
	Name string
	CPU  dist.Dist // CPU seconds per request (nil = none)
	Disk dist.Dist // disk operations per request (nil = none)
	Net  dist.Dist // network MB per request (nil = none)
}

// sample draws one request's demand.
func (p Profile) sample(r *rng.Source) Demand {
	var d Demand
	if p.CPU != nil {
		d.CPUSeconds = p.CPU.Sample(r)
	}
	if p.Disk != nil {
		d.DiskOps = p.Disk.Sample(r)
	}
	if p.Net != nil {
		d.NetMB = p.Net.Sample(r)
	}
	return d
}

// Workload drives requests from one profile onto a set of nodes and
// collects latency statistics.
type Workload struct {
	Name    string
	Profile Profile

	sim     *sim.Simulator
	nodes   []*NodeModel
	rng     *rng.Source
	route   int
	lat     stats.Sample
	started int64
	done    int64
}

// NewWorkload creates a workload targeting nodes (round-robin routing).
func NewWorkload(s *sim.Simulator, name string, p Profile, nodes []*NodeModel) (*Workload, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("workload: %q has no target nodes", name)
	}
	return &Workload{
		Name: name, Profile: p, sim: s, nodes: nodes,
		rng: s.Stream("workload/" + name),
	}, nil
}

// next returns the next target node round-robin.
func (w *Workload) next() *NodeModel {
	n := w.nodes[w.route%len(w.nodes)]
	w.route++
	return n
}

// submit issues one request.
func (w *Workload) submit() {
	w.started++
	d := w.Profile.sample(w.rng)
	w.next().Process(d, func(latency float64) {
		w.done++
		w.lat.Add(latency)
	})
}

// StartOpen begins an open-loop arrival process with the given
// interarrival distribution (seconds), running until the simulator stops
// or `count` requests have been issued (count <= 0 = unlimited).
func (w *Workload) StartOpen(interarrival dist.Dist, count int64) error {
	if interarrival == nil {
		return fmt.Errorf("workload: %q open loop needs an interarrival distribution", w.Name)
	}
	var arrive func()
	arrive = func() {
		if count > 0 && w.started >= count {
			return
		}
		w.submit()
		w.sim.Schedule(interarrival.Sample(w.rng), w.Name+"/arrival", arrive)
	}
	w.sim.Schedule(interarrival.Sample(w.rng), w.Name+"/arrival", arrive)
	return nil
}

// Latencies returns the collected latency sample.
func (w *Workload) Latencies() *stats.Sample { return &w.lat }

// Completed returns the number of finished requests.
func (w *Workload) Completed() int64 { return w.done }

// BackgroundLoad injects constant-rate disk and NIC work on a node,
// modelling repair storms or control operations whose impact on tenant
// latency the paper calls out as unmodelled in prior work (§3). Returns a
// stop function.
func BackgroundLoad(s *sim.Simulator, node *NodeModel, period float64, d Demand) (stop func(), err error) {
	if period <= 0 {
		return nil, fmt.Errorf("workload: background period must be > 0, got %v", period)
	}
	return s.Every(period, period, node.Name+"/background", func(sim.Time) {
		node.Process(d, nil)
	}), nil
}
