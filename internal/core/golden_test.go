package core

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sla"
)

// TestGoldenFixedSeedScenario pins the exact trajectory of a fixed-seed
// scenario: availability, repair activity and event counts must be
// byte-identical across engine refactors. The event calendar and the
// trial scheduler are allowed to change *how* they execute (heap layout,
// worker pooling) but never *what* executes — (time, seq) event order and
// trial-index aggregation order are part of the engine's contract.
//
// If this test fails, the change being made altered simulation semantics,
// not just performance. Do not update the constants without establishing
// which model-level change (new draw, reordered stream, different tie
// break) moved them, and saying so in the commit.
func TestGoldenFixedSeedScenario(t *testing.T) {
	sc := quickScenario()
	sc.Seed = 12345
	// Workers: 2 exercises the concurrent trial scheduler; aggregation
	// must still happen in trial-index order so the result matches a
	// sequential run exactly.
	res, err := Runner{Trials: 3, Workers: 2}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}

	exact := func(name string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %.17g, want exactly %.17g (diff %g)", name, got, want, got-want)
		}
	}
	exact("availability", res.Metrics["availability"], 0.99503457932580275)
	exact("zero_copy_fraction", res.Metrics["zero_copy_fraction"], 0)
	exact("loss_prob", res.Metrics["loss_prob"], 0)
	exact("repairs", res.Metrics["repairs"], 1131.6666666666667)
	exact("repair_bytes_mb", res.Metrics["repair_bytes_mb"], 11316.666666666666)
	exact("node_failures", res.Metrics["node_failures"], 34)
	if res.EventsTotal != 10389 {
		t.Errorf("events_total = %d, want exactly 10389", res.EventsTotal)
	}
	// The tenant pool is held against the dense pool the parent commit
	// (df413d7) reported for this run, one value per tenant per trial in
	// trial order. The fixture is regenerated only from a checkout of that
	// commit, never from this tree: its sum in recorded order is the
	// constant this test always pinned, and the pool must be its multiset.
	data, err := os.ReadFile(filepath.Join("testdata", "tenant_pool_df413d7.json"))
	if err != nil {
		t.Fatal(err)
	}
	var dense []float64
	if err := json.Unmarshal(data, &dense); err != nil {
		t.Fatal(err)
	}
	if len(dense) != 300 {
		t.Fatalf("fixture holds %d values, want 300", len(dense))
	}
	sum := 0.0
	for _, v := range dense {
		sum += v
	}
	exact("tenant_availability_sum", sum, 299.88663243254626)
	if got := res.Tenants.Len(); got != 300 {
		t.Fatalf("tenant pool size = %d, want 300", got)
	}
	want := sla.SplitTenants(dense)
	if res.Tenants.Ones != want.Ones || len(res.Tenants.Below) != len(want.Below) {
		t.Fatalf("tenant pool holds %d ones and %d others, the parent's %d and %d", res.Tenants.Ones, len(res.Tenants.Below), want.Ones, len(want.Below))
	}
	for i, v := range want.Below {
		if math.Float64bits(res.Tenants.Below[i]) != math.Float64bits(v) {
			t.Fatalf("tenant pool value %d is %.17g, the parent's %.17g", i, res.Tenants.Below[i], v)
		}
	}

	// The same scenario run sequentially must agree bit-for-bit with the
	// concurrent run above.
	seq, err := Runner{Trials: 3, Workers: 1}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"availability", "repairs", "node_failures", "events"} {
		if a, b := res.Metrics[name], seq.Metrics[name]; a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Errorf("workers=2 vs workers=1 diverge on %s: %.17g vs %.17g", name, a, b)
		}
	}
	if res.EventsTotal != seq.EventsTotal {
		t.Errorf("workers=2 vs workers=1 diverge on events: %d vs %d", res.EventsTotal, seq.EventsTotal)
	}
}
