package sla

import (
	"fmt"
	"testing"
)

// MapResult is a Result backed by a map.
type MapResult struct {
	Metrics map[string]float64
}

// Metric implements Result.
func (m MapResult) Metric(name string) (float64, error) {
	v, ok := m.Metrics[name]
	if !ok {
		return 0, fmt.Errorf("sla: metric %q not present in result", name)
	}
	return v, nil
}

func result(av, peakKW float64) MapResult {
	return MapResult{Metrics: map[string]float64{"availability": av, "peak_kw": peakKW}}
}

func TestAvailabilitySLA(t *testing.T) {
	a, err := NewAvailability(0.999)
	if err != nil {
		t.Fatal(err)
	}
	v, err := a.Check(result(0.9995, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Met || v.Margin <= 0 {
		t.Errorf("verdict %v, want met with positive margin", v)
	}
	v, err = a.Check(result(0.99, 0))
	if err != nil {
		t.Fatal(err)
	}
	if v.Met || v.Margin >= 0 {
		t.Errorf("verdict %v, want violated with negative margin", v)
	}
}

func TestAvailabilityValidation(t *testing.T) {
	if _, err := NewAvailability(0); err == nil {
		t.Error("0 accepted")
	}
	if _, err := NewAvailability(1.5); err == nil {
		t.Error("1.5 accepted")
	}
}

func TestCheckAll(t *testing.T) {
	a, err := NewAvailability(0.99)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPowerBudget(50)
	if err != nil {
		t.Fatal(err)
	}
	r := result(0.999, 42)
	verdicts, all, err := CheckAll(r, []SLA{a, p})
	if err != nil {
		t.Fatal(err)
	}
	if !all || len(verdicts) != 2 {
		t.Errorf("all=%v verdicts=%d, want true/2", all, len(verdicts))
	}
	r2 := result(0.9, 42)
	_, all, err = CheckAll(r2, []SLA{a, p})
	if err != nil {
		t.Fatal(err)
	}
	if all {
		t.Error("violated availability not detected")
	}
	// Missing metric errors out.
	bad := MapResult{Metrics: map[string]float64{}}
	if _, _, err := CheckAll(bad, []SLA{a}); err == nil {
		t.Error("missing metric did not error")
	}
}

func TestVerdictString(t *testing.T) {
	v := Verdict{SLA: "x", Met: true, Observed: 1, Target: 0.9, Margin: 0.1}
	if s := v.String(); s == "" {
		t.Error("empty verdict string")
	}
	v.Met = false
	if s := v.String(); s == "" {
		t.Error("empty verdict string")
	}
}

func TestPowerBudget(t *testing.T) {
	if _, err := NewPowerBudget(0); err == nil {
		t.Error("zero budget accepted")
	}
	s, err := NewPowerBudget(50)
	if err != nil {
		t.Fatal(err)
	}
	res := MapResult{Metrics: map[string]float64{"peak_kw": 42}}
	v, err := s.Check(res)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Met || v.Observed != 42 || v.Margin != 8 {
		t.Errorf("verdict %+v", v)
	}
	res.Metrics["peak_kw"] = 60
	if v, _ := s.Check(res); v.Met {
		t.Error("over-budget peak passed")
	}
	if _, err := s.Check(MapResult{Metrics: map[string]float64{}}); err == nil {
		t.Error("missing peak_kw metric not an error")
	}
}
