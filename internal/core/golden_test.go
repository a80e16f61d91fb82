package core

import (
	"math"
	"testing"
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
