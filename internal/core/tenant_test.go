package core

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/sla"
)

func TestTenantAvailabilityPooled(t *testing.T) {
	res, err := Runner{Trials: 3, Workers: 1}.Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	// One availability value per tenant per trial.
	if got, want := res.Tenants.Len(), int64(3*100); got != want {
		t.Fatalf("tenant pool size = %d, want %d", got, want)
	}
	if err := res.Tenants.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStoppedRunReservesNothing: a run allowed 100 000 trials and
// cancelled at its second commit pays for the trials it ran, not for the
// pool the ones it was allowed would have filled — 100 000 trials x 100
// tenants was 80 MB reserved at the first commit.
func TestStoppedRunReservesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	committed := 0
	r := Runner{Trials: 100_000, Workers: 1, Progress: func(done, total int) {
		if committed = done; done == 2 {
			cancel()
		}
	}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := r.RunContext(ctx, quickScenario())
	runtime.ReadMemStats(&after)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if committed != 2 {
		t.Fatalf("the run stopped after %d trials, want 2", committed)
	}
	if total := after.TotalAlloc - before.TotalAlloc; total >= 1<<20 {
		t.Fatalf("a run stopped at 2 trials allocated %d KB, want < 1 MB", total>>10)
	}
}

func TestTenantAvailabilityConsistentWithGlobal(t *testing.T) {
	// If global availability < 1, some tenant must be below 1 too; if all
	// tenants are at 1, the any-unavailable fraction must be 0.
	res, err := Runner{Trials: 4, Workers: 1}.Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	anyBelow := len(res.Tenants.Below) > 0
	globalBelow := res.Metrics["availability"] < 1
	if globalBelow != anyBelow {
		t.Fatalf("global availability %v but tenant-below-1 = %v",
			res.Metrics["availability"], anyBelow)
	}
}

func TestTenantDistributionSLAEndToEnd(t *testing.T) {
	// §3's question form: do 95% of customers see >= 99.5%? (The quick
	// scenario's 6-hour detection windows put ~25% of tenant-trials below
	// three nines, but every tenant stays above 0.995, so this threshold
	// separates cleanly from the impossible 100%-at-1.0 SLA below.)
	easySLA := TenantAvailabilitySLA(0.95, 0.995)
	hardSLA := TenantAvailabilitySLA(1.0, 1.0)
	res, err := Runner{Trials: 4, Workers: 1, SLAs: nil}.Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	easy, err := easySLA.Check(res)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := hardSLA.Check(res)
	if err != nil {
		t.Fatal(err)
	}
	// The quick scenario has some unavailability windows (detection 6h);
	// most tenants are untouched and none drops far, so the 95%@0.995 SLA
	// holds while the 100%@perfect SLA fails.
	if !easy.Met {
		t.Errorf("95%%-of-tenants SLA should be met: %v", easy)
	}
	if hard.Met {
		t.Errorf("100%%-at-1.0 SLA should fail: %v", hard)
	}
	// Checking against a non-RunResult errors.
	if _, err := easySLA.Check(sla.MapResult{}); err == nil {
		t.Error("tenant SLA accepted a result without tenant data")
	}
}
