package core

import (
	"context"
	"testing"

	"repro/internal/design"
	"repro/internal/dist"
	"repro/internal/sla"
	"repro/internal/storage"
)

// TestExplorerSpeculativePruneMatchesSequential checks that dominance
// pruning composes with the worker pool: a parallel pruned sweep must
// produce the same outcomes, executed/pruned counts and event totals as
// the sequential best-first visit.
func TestExplorerSpeculativePruneMatchesSequential(t *testing.T) {
	space, err := design.NewSpace(
		design.Dimension{Name: "replicas", Values: []design.Value{2, 3, 5}, Monotone: true},
		design.Dimension{Name: "placement", Values: []design.Value{"random", "roundrobin"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	target, err := sla.NewAvailability(0.99999)
	if err != nil {
		t.Fatal(err)
	}
	build := func(p design.Point) (Scenario, []sla.SLA, error) {
		sc := quickScenario()
		sc.Seed = 4242
		sc.Cluster.NodeTTF = dist.Must(dist.ExpMean(300))
		sc.Scheme = storage.ReplicationScheme(p.MustValue("replicas").(int))
		sc.Placement = p.MustValue("placement").(string)
		return sc, []sla.SLA{target}, nil
	}
	run := func(workers int) *Exploration {
		ex := &Explorer{
			Space: space, Build: build,
			Runner:  Runner{Trials: 2, Workers: 1},
			Prune:   true,
			Workers: workers,
		}
		res, err := ex.RunPoints(context.Background(), nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	if seq.Pruned == 0 {
		t.Fatal("scenario prunes nothing; test needs a harsher SLA")
	}
	par := run(4)
	if par.Executed != seq.Executed || par.Pruned != seq.Pruned || par.Events != seq.Events {
		t.Fatalf("parallel prune diverged: executed %d/%d, pruned %d/%d, events %d/%d",
			par.Executed, seq.Executed, par.Pruned, seq.Pruned, par.Events, seq.Events)
	}
	if len(par.Outcomes) != len(seq.Outcomes) {
		t.Fatalf("outcome count %d vs %d", len(par.Outcomes), len(seq.Outcomes))
	}
	for i := range seq.Outcomes {
		s, p := seq.Outcomes[i], par.Outcomes[i]
		if s.Point.Key() != p.Point.Key() || s.Pruned != p.Pruned || s.AllMet != p.AllMet {
			t.Fatalf("outcome %d diverged: %s/%v/%v vs %s/%v/%v", i,
				s.Point.Key(), s.Pruned, s.AllMet, p.Point.Key(), p.Pruned, p.AllMet)
		}
		if !s.Pruned {
			if s.Result.Metrics["availability"] != p.Result.Metrics["availability"] {
				t.Fatalf("outcome %d availability diverged", i)
			}
		}
	}
}
