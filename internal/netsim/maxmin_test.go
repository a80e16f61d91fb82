package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
)

// TestMaxMinFairnessProperties verifies the two defining invariants of a
// max–min fair allocation on randomized topologies and flow sets:
//
//  1. Feasibility: on every link, the allocated rates sum to at most the
//     capacity.
//  2. Bottleneck (Pareto) property: every flow crosses at least one
//     saturated link, so no flow's rate can be raised without lowering
//     another's.
//
// and that every rate matches the reference allocator's (checkMaxMin).
func TestMaxMinFairnessProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		racks := 2 + r.Intn(3)
		perRack := 2 + r.Intn(3)
		topo, hosts, _, err := twoTier(TwoTierConfig{
			Racks: racks, HostsPerRack: perRack,
			HostLinkCap: 50 + 200*r.Float64(),
			UplinkCap:   30 + 100*r.Float64(),
			LinkLatency: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := sim.New(seed)
		fs := NewFlowSim(s, topo)
		nflows := 2 + r.Intn(10)
		for i := 0; i < nflows; i++ {
			src := hosts[r.Intn(len(hosts))]
			dst := hosts[r.Intn(len(hosts))]
			if src == dst {
				continue
			}
			// Large sizes so flows are still in flight when probed.
			if _, err := fs.Start(src, dst, 1e9, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Flows activate at t=0 (zero latency); allocation happens on the
		// first events.
		s.RunUntil(0)

		return checkMaxMin(t, fs, seed, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

// TestEqualShareSymmetricFlows pins the textbook case: k identical flows
// into one host share its access link equally.
func TestEqualShareSymmetricFlows(t *testing.T) {
	topo, hosts, err := SingleSwitch(5, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	fs := NewFlowSim(s, topo)
	for i := 0; i < 4; i++ {
		if _, err := fs.Start(hosts[i], hosts[4], 1e9, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(0)
	for _, fl := range fs.Flows() {
		if !fl.IsActive() {
			t.Fatal("flow not active at t=0 with zero latency")
		}
		if fl.Rate() < 25-1e-9 || fl.Rate() > 25+1e-9 {
			t.Fatalf("flow rate %v, want 25 (100/4)", fl.Rate())
		}
	}
}
