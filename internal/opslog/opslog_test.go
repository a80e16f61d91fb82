package opslog

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
)

func genConfig() GeneratorConfig {
	return GeneratorConfig{
		Components: 200,
		Horizon:    50000,
		TTF:        dist.Must(dist.NewWeibull(0.7, 1500)),
		Repair:     dist.Must(dist.NewLogNormal(2.0, 0.8)),
		Seed:       42,
	}
}

func TestGenerateProducesOrderedAlternatingEvents(t *testing.T) {
	events, err := Generate(genConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 1000 {
		t.Fatalf("only %d events generated", len(events))
	}
	last := -1.0
	for i, e := range events {
		if e.Time < last {
			t.Fatalf("event %d out of order", i)
		}
		last = e.Time
	}
	// Per component, kinds must alternate FAIL/REPAIR.
	lastKind := map[string]EventKind{}
	for _, e := range events {
		if prev, ok := lastKind[e.Component]; ok && prev == e.Kind {
			t.Fatalf("component %s has consecutive %s events", e.Component, e.Kind)
		}
		lastKind[e.Component] = e.Kind
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := genConfig()
	bad.Components = 0
	if _, err := Generate(bad); err == nil {
		t.Error("0 components accepted")
	}
	bad = genConfig()
	bad.Horizon = 0
	if _, err := Generate(bad); err == nil {
		t.Error("0 horizon accepted")
	}
	bad = genConfig()
	bad.TTF = nil
	if _, err := Generate(bad); err == nil {
		t.Error("nil TTF accepted")
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	events, err := Generate(genConfig())
	if err != nil {
		t.Fatal(err)
	}
	events = events[:500]
	var buf bytes.Buffer
	if err := WriteLog(&buf, events); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(events) {
		t.Fatalf("parsed %d of %d events", len(parsed), len(events))
	}
	for i := range events {
		if parsed[i].Component != events[i].Component || parsed[i].Kind != events[i].Kind {
			t.Fatalf("event %d mismatch: %v vs %v", i, parsed[i], events[i])
		}
		if math.Abs(parsed[i].Time-events[i].Time) > 1e-5 {
			t.Fatalf("event %d time mismatch", i)
		}
	}
}

func TestParseLogRejectsMalformed(t *testing.T) {
	cases := []string{
		"1.0,disk-1",              // missing field
		"abc,disk-1,FAIL",         // bad timestamp
		"1.0,disk-1,EXPLODED",     // unknown kind
		"1.0,,FAIL",               // empty component
		"1.0,disk-1,FAIL,extra,x", // too many fields
	}
	for _, c := range cases {
		if _, err := ParseLog(strings.NewReader(c)); err == nil {
			t.Errorf("malformed line %q accepted", c)
		}
	}
	// Comments and blanks are fine.
	ok := "# header\n\n1.0,disk-1,FAIL\n2.0,disk-1,REPAIR\n"
	events, err := ParseLog(strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("parsed %d events, want 2", len(events))
	}
}

func TestExtractDurations(t *testing.T) {
	events := []Event{
		{Time: 10, Component: "d1", Kind: EventFail},
		{Time: 12, Component: "d1", Kind: EventRepair},
		{Time: 20, Component: "d2", Kind: EventFail},
		{Time: 30, Component: "d1", Kind: EventFail},
		{Time: 31, Component: "d2", Kind: EventRepair},
	}
	d, err := Extract(events)
	if err != nil {
		t.Fatal(err)
	}
	// TBF: d1 0->10, d2 0->20, d1 12->30 = 18.
	if len(d.TimeBetweenFailures) != 3 {
		t.Fatalf("TBF count = %d, want 3", len(d.TimeBetweenFailures))
	}
	// Repairs: d1 2h, d2 11h.
	if len(d.RepairDurations) != 2 {
		t.Fatalf("repair count = %d, want 2", len(d.RepairDurations))
	}
	if d.RepairDurations[0] != 2 || d.RepairDurations[1] != 11 {
		t.Fatalf("repairs = %v", d.RepairDurations)
	}
}

func TestExtractRejectsInconsistentLogs(t *testing.T) {
	doubleFail := []Event{
		{Time: 1, Component: "d", Kind: EventFail},
		{Time: 2, Component: "d", Kind: EventFail},
	}
	if _, err := Extract(doubleFail); err == nil {
		t.Error("double fail accepted")
	}
	orphanRepair := []Event{{Time: 1, Component: "d", Kind: EventRepair}}
	if _, err := Extract(orphanRepair); err == nil {
		t.Error("repair-while-healthy accepted")
	}
	outOfOrder := []Event{
		{Time: 5, Component: "d", Kind: EventFail},
		{Time: 1, Component: "e", Kind: EventFail},
	}
	if _, err := Extract(outOfOrder); err == nil {
		t.Error("out-of-order log accepted")
	}
}

func TestFitModelsRecoversGroundTruth(t *testing.T) {
	// E9: the pipeline must identify the generating families and recover
	// parameters within a few percent.
	events, err := Generate(genConfig())
	if err != nil {
		t.Fatal(err)
	}
	ttf, rep, err := FitModels(events)
	if err != nil {
		t.Fatal(err)
	}
	if ttf.Best.Name != "weibull" {
		t.Errorf("TTF best fit = %s (KS %v), want weibull", ttf.Best.Name, ttf.Best.KS)
	}
	if rep.Best.Name != "lognormal" {
		t.Errorf("repair best fit = %s (KS %v), want lognormal", rep.Best.Name, rep.Best.KS)
	}
	w, ok := ttf.Best.Dist.(dist.Weibull)
	if !ok {
		t.Fatalf("TTF dist is %T", ttf.Best.Dist)
	}
	if math.Abs(w.Shape-0.7)/0.7 > 0.1 {
		t.Errorf("recovered shape %v, want ~0.7", w.Shape)
	}
	ln, ok := rep.Best.Dist.(dist.LogNormal)
	if !ok {
		t.Fatalf("repair dist is %T", rep.Best.Dist)
	}
	if math.Abs(ln.Mu-2.0) > 0.15 || math.Abs(ln.Sigma-0.8) > 0.15 {
		t.Errorf("recovered lognormal (%v, %v), want (2.0, 0.8)", ln.Mu, ln.Sigma)
	}
}

func TestFitModelsNeedsData(t *testing.T) {
	events := []Event{
		{Time: 1, Component: "d", Kind: EventFail},
		{Time: 2, Component: "d", Kind: EventRepair},
	}
	if _, _, err := FitModels(events); err == nil {
		t.Error("tiny log accepted")
	}
}
