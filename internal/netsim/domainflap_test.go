package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
)

// checkMaxMin asserts the two max–min invariants over the current
// active flow set: per-link feasibility and the bottleneck property.
// Flows whose route crosses a down link must not be active at all. It
// then holds the incremental state to a full rebuild (checkIncremental)
// and compares every rate with the reference allocator's.
func checkMaxMin(t *testing.T, fs *FlowSim, seed uint64, step int) bool {
	t.Helper()
	const eps = 1e-9
	load := map[*Link]float64{}
	for _, fl := range fs.Flows() {
		if !fl.IsActive() {
			continue
		}
		for _, l := range fl.Route() {
			if !l.Up() {
				t.Logf("seed %d step %d: active flow %d routed over a down link", seed, step, fl.ID)
				return false
			}
			load[l] += fl.Rate()
		}
	}
	for l, used := range load {
		if used > l.Capacity()+eps {
			t.Logf("seed %d step %d: link over capacity: %v > %v", seed, step, used, l.Capacity())
			return false
		}
	}
	for _, fl := range fs.Flows() {
		if !fl.IsActive() {
			continue
		}
		bottlenecked := false
		for _, l := range fl.Route() {
			if load[l] >= l.Capacity()-eps {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			t.Logf("seed %d step %d: flow %d (rate %v) crosses no saturated link",
				seed, step, fl.ID, fl.Rate())
			return false
		}
	}
	if err := checkIncremental(fs); err != nil {
		t.Logf("seed %d step %d: %v", seed, step, err)
		return false
	}
	return checkAgainstReference(t, fs, seed, step)
}

// TestMaxMinUnderDomainFlaps is the correlated-outage property test: a
// whole rack's links (uplink + every access link, the set a ToR or PDU
// failure domain forces down) flap repeatedly while cross-rack flows
// are in flight. After every flap the allocation must be recomputed to
// a valid max–min fair state — surviving flows feasible and
// bottlenecked, severed flows aborted (two-tier has no alternate
// routes), and restored capacity reused by new flows.
func TestMaxMinUnderDomainFlaps(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		racks := 3 + r.Intn(3)
		perRack := 2 + r.Intn(3)
		topo, hosts, tors, err := twoTier(TwoTierConfig{
			Racks: racks, HostsPerRack: perRack,
			HostLinkCap: 100 + 100*r.Float64(),
			UplinkCap:   50 + 100*r.Float64(),
			LinkLatency: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := sim.New(seed)
		fs := NewFlowSim(s, topo)

		// rackLinks[r] is the link set a failure domain over rack r
		// forces down: every link touching its ToR — the uplink and all
		// access links.
		rackLinks := make([][]*Link, racks)
		for _, l := range topo.Links() {
			for ri, tor := range tors {
				if l.A == tor || l.B == tor {
					rackLinks[ri] = append(rackLinks[ri], l)
				}
			}
		}

		aborted := 0
		startFlows := func(n int) {
			for i := 0; i < n; i++ {
				src := hosts[r.Intn(len(hosts))]
				dst := hosts[r.Intn(len(hosts))]
				if src == dst {
					continue
				}
				// Huge sizes keep flows alive across the whole test.
				_, err := fs.Start(src, dst, 1e12,
					nil, func(*Flow, error) { aborted++ })
				if err != nil {
					// Source or destination currently partitioned.
					continue
				}
			}
		}

		startFlows(4 + r.Intn(8))
		s.RunUntil(0)
		if !checkMaxMin(t, fs, seed, -1) {
			return false
		}

		down := make([]bool, racks)
		for step := 0; step < 12; step++ {
			ri := r.Intn(racks)
			down[ri] = !down[ri]
			for _, l := range rackLinks[ri] {
				topo.SetLinkUp(l, !down[ri])
			}
			fs.OnLinkChange()
			// Add fresh flows so restored racks re-attract traffic.
			startFlows(1 + r.Intn(3))
			s.RunUntil(s.Now())
			if !checkMaxMin(t, fs, seed, step) {
				return false
			}
		}
		// Restore everything: a final allocation over all surviving and
		// new flows must still be max–min fair.
		for ri := range down {
			if down[ri] {
				for _, l := range rackLinks[ri] {
					topo.SetLinkUp(l, true)
				}
				down[ri] = false
			}
		}
		fs.OnLinkChange()
		startFlows(3)
		s.RunUntil(s.Now())
		return checkMaxMin(t, fs, seed, 999)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}
