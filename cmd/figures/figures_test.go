// Each experiment's claim, asserted on the values the experiment returns
// at its default size and seed — exactly what `figures -exp <id>` prints.
// F1 and V1 are asserted in their own packages: internal/core's
// TestFigure1MCMatchesExact* and internal/validate's TestRunAllPasses.
package main

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/dist"
	"repro/internal/wtql"
)

const seed = 42

// metricsOf returns the metrics of the row whose config has every given
// name, value pair.
func metricsOf(t *testing.T, rows []wtql.Row, pairs ...string) map[string]float64 {
	t.Helper()
	for _, r := range rows {
		match := true
		for i := 0; i < len(pairs); i += 2 {
			match = match && r.Config[pairs[i]] == pairs[i+1]
		}
		if match {
			return r.Metrics
		}
	}
	t.Fatalf("no row with %v", pairs)
	return nil
}

// TestE1FastRepairNarrowsTheReplicaGap: 10GbE with parallel repair cuts
// the repair makespan more than tenfold at either replication factor, and
// at least halves n=2's zero-copy exposure, toward n=3's, at 2/3 the
// storage. (The cut was 2.4x to 8.1x at seeds 1–5 and 42; EXPERIMENTS.md,
// E35.)
func TestE1FastRepairNarrowsTheReplicaGap(t *testing.T) {
	rows, err := e1RepairTradeoff(io.Discard, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	for _, n := range []string{"3", "2"} {
		slow := metricsOf(t, rows, "storage.replication", n, "net.nic", "nic-1g", "repair.mode", "serial")
		fast := metricsOf(t, rows, "storage.replication", n, "net.nic", "nic-10g", "repair.mode", "parallel")
		if fast["repair_makespan"]*10 >= slow["repair_makespan"] {
			t.Errorf("n=%s: repair makespan %v h fast vs %v h slow, want over 10x shorter", n, fast["repair_makespan"], slow["repair_makespan"])
		}
		if fast["unavail_fraction"] >= slow["unavail_fraction"] {
			t.Errorf("n=%s: unavailability %v fast vs %v slow, want lower", n, fast["unavail_fraction"], slow["unavail_fraction"])
		}
		if fast["cost.capex"] <= slow["cost.capex"] {
			t.Errorf("n=%s: capex %v with 10GbE vs %v with 1GbE, want the faster network to cost more", n, fast["cost.capex"], slow["cost.capex"])
		}
	}
	slow2 := metricsOf(t, rows, "storage.replication", "2", "net.nic", "nic-1g", "repair.mode", "serial")
	fast2 := metricsOf(t, rows, "storage.replication", "2", "net.nic", "nic-10g", "repair.mode", "parallel")
	fast3 := metricsOf(t, rows, "storage.replication", "3", "net.nic", "nic-10g", "repair.mode", "parallel")
	if z := fast2["zero_copy_fraction"]; z <= 0 || z > slow2["zero_copy_fraction"]/2 {
		t.Errorf("n=2 zero-copy fraction %v fast vs %v slow, want positive and at most half of it", z, slow2["zero_copy_fraction"])
	}
	if fast3["zero_copy_fraction"] > fast2["zero_copy_fraction"] {
		t.Errorf("n=3 zero-copy fraction %v above n=2's %v", fast3["zero_copy_fraction"], fast2["zero_copy_fraction"])
	}
	if got := fast2["storage.overhead"] / fast3["storage.overhead"]; got != 2.0/3 {
		t.Errorf("n=2 stores %v of n=3's bytes, want 2/3", got)
	}
}

// TestE2ExponentialErrorGrows: the M/M/1 formula is right when the
// distributions are exponential and underpredicts the wait more the
// further they depart from it.
func TestE2ExponentialErrorGrows(t *testing.T) {
	errs, err := e2AnalyticError(io.Discard, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	if e := errs[0]; e < -5 || e > 5 {
		t.Errorf("exponential/exponential error %.1f %%, want within 5 %%", e)
	}
	for i := 1; i < len(errs); i++ {
		if errs[i] >= errs[i-1] {
			t.Errorf("row %d error %.1f %% not below row %d's %.1f %%", i, errs[i], i-1, errs[i-1])
		}
	}
	if last := errs[len(errs)-1]; last > -50 {
		t.Errorf("heaviest-tailed row error %.1f %%, want below -50 %%", last)
	}
}

// TestE3EachEventShiftsTheTail: a co-located tenant, then a repair storm
// on top, each raise tenant A's p50, p95 and p99.
func TestE3EachEventShiftsTheTail(t *testing.T) {
	rows, err := e3Interference(io.Discard, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		for k, name := range []string{"p50", "p95", "p99"} {
			if rows[i][k] <= rows[i-1][k] {
				t.Errorf("row %d %s %.4f s not above row %d's %.4f s", i, name, rows[i][k], i-1, rows[i-1][k])
			}
		}
	}
}

// TestE4CheapestConfigurationMeetingTheSLA: more memory lowers an HDD
// node's p95, the smallest misses the SLA, every SSD meets it, and
// hdd-7200 + mem-64g is the cheapest that does.
func TestE4CheapestConfigurationMeetingTheSLA(t *testing.T) {
	rows, err := e4Provisioning(io.Discard, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	best := -1
	for i, r := range rows {
		if r.met && (best < 0 || r.capex < rows[best].capex) {
			best = i
		}
		if r.disk == "ssd-sata" && !r.met {
			t.Errorf("%s + %s missed the SLA at p95 %.4f s", r.disk, r.mem, r.p95)
		}
	}
	if best < 0 || rows[best].disk != "hdd-7200" || rows[best].mem != "mem-64g" {
		t.Fatalf("cheapest configuration meeting the SLA is row %d, want hdd-7200 + mem-64g: %+v", best, rows)
	}
	if rows[0].met || !(rows[0].p95 > rows[1].p95 && rows[1].p95 > rows[2].p95) {
		t.Errorf("hdd-7200 p95 by memory %.4f, %.4f, %.4f s: want falling, the first above the SLA", rows[0].p95, rows[1].p95, rows[2].p95)
	}
}

// TestE5PruningKeepsThePassingSet: the query with its MONOTONE marks
// executes strictly fewer points and passes exactly the configurations
// the exhaustive sweep does.
func TestE5PruningKeepsThePassingSet(t *testing.T) {
	arms, err := e5Pruning(io.Discard, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	full, pruned := arms[0], arms[1]
	if full.Executed != 18 || full.Pruned != 0 {
		t.Errorf("exhaustive: %d executed, %d pruned; want 18 and 0", full.Executed, full.Pruned)
	}
	if pruned.Pruned == 0 || pruned.Executed+pruned.Pruned != 18 {
		t.Errorf("pruned: %d executed, %d pruned; want some pruned of 18", pruned.Executed, pruned.Pruned)
	}
	passing := func(rows []wtql.Row) map[string]bool {
		set := map[string]bool{}
		for _, r := range rows {
			set[fmt.Sprint(r.Config)] = true
		}
		return set
	}
	want, got := passing(full.Rows), passing(pruned.Rows)
	if len(want) == 0 || len(want) == 18 || len(got) != len(want) {
		t.Fatalf("%d configurations pass exhaustively, %d pruned: want the same number, some but not all", len(want), len(got))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("%s passes exhaustively but not with pruning", k)
		}
	}
}

// TestE7OneLimpingNICOwnsTheTail: one NIC of four degraded tenfold, then
// a hundredfold, multiplies the p99 at least tenfold each time, while the
// median stays within 2x of the healthy cluster's.
func TestE7OneLimpingNICOwnsTheTail(t *testing.T) {
	rows, err := e7Limpware(io.Discard, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][2] < 10*rows[i-1][2] {
			t.Errorf("row %d p99 %.4f s is not 10x row %d's %.4f s", i, rows[i][2], i-1, rows[i-1][2])
		}
		if rows[i][0] > 2*rows[0][0] {
			t.Errorf("row %d p50 %.4f s is over 2x the healthy %.4f s", i, rows[i][0], rows[0][0])
		}
	}
}

// TestE8ErasureCodingTradeoff holds what was found at every seed tried:
// against 3-way replication, RS(6,3) and RS(10,4) store at most 0.55x the
// bytes, are at least as available, and move more repair traffic.
// Durability (loss_prob) is not asserted: RS(6,3) lost more objects than
// rep-3 at most seeds tried (EXPERIMENTS.md, E35).
func TestE8ErasureCodingTradeoff(t *testing.T) {
	rows, err := e8ErasureVsReplication(io.Discard, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	rep3 := metricsOf(t, rows, "storage.scheme", "rep-3")
	for _, scheme := range []string{"rs-6-3", "rs-10-4"} {
		rs := metricsOf(t, rows, "storage.scheme", scheme)
		if rs["storage.overhead"] > 0.55*rep3["storage.overhead"] {
			t.Errorf("%s storage %vx vs rep-3's %vx, want at most 0.55 of it", scheme, rs["storage.overhead"], rep3["storage.overhead"])
		}
		if rs["availability"] < rep3["availability"] {
			t.Errorf("%s availability %v below rep-3's %v", scheme, rs["availability"], rep3["availability"])
		}
		if rs["repair_bytes_mb"] <= rep3["repair_bytes_mb"] {
			t.Errorf("%s repair traffic %v MB not above rep-3's %v MB", scheme, rs["repair_bytes_mb"], rep3["repair_bytes_mb"])
		}
	}
}

// TestE9FitsRecoverTheTruth: the pipeline ranks the generating families
// first — Weibull for time to failure, lognormal for repair — neither
// rejected by its KS test, with the Weibull shape within 0.05 of 0.7.
func TestE9FitsRecoverTheTruth(t *testing.T) {
	fits, err := e9TraceFitting(io.Discard, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"weibull", "lognormal"} {
		if best := fits[i].Best; best.Name != want || best.PValue < 0.05 {
			t.Errorf("%s: best fit %s (p = %.3f), want %s not rejected at 5 %%", fits[i].Quantity, best.Name, best.PValue, want)
		}
	}
	if w, ok := fits[0].Best.Dist.(dist.Weibull); !ok || w.Shape < 0.65 || w.Shape > 0.75 {
		t.Errorf("time-to-failure fit %v, want a Weibull of shape 0.7 ± 0.05", fits[0].Best.Dist)
	}
}
