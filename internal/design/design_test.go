package design

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

func space(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace(
		Dimension{Name: "net", Values: []Value{"1g", "10g", "40g"}, Monotone: true},
		Dimension{Name: "replicas", Values: []Value{2, 3, 5}, Monotone: true},
		Dimension{Name: "placement", Values: []Value{"random", "roundrobin"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// pointFor returns the point of s that assigns every dimension the value
// assign gives it.
func pointFor(t *testing.T, s *Space, assign map[string]Value) Point {
	t.Helper()
	for _, p := range s.Points() {
		a := p.Assignments()
		match := len(a) == len(assign)
		for name, v := range assign {
			match = match && FormatValue(a[name]) == FormatValue(v)
		}
		if match {
			return p
		}
	}
	t.Fatalf("no point assigns %v", assign)
	return Point{}
}

func TestSpaceSize(t *testing.T) {
	s := space(t)
	if s.Size() != 18 {
		t.Fatalf("size = %d, want 18", s.Size())
	}
	pts := s.Points()
	if len(pts) != 18 {
		t.Fatalf("enumerated %d points, want 18", len(pts))
	}
	// All distinct.
	seen := map[string]bool{}
	for _, p := range pts {
		if seen[p.Key()] {
			t.Fatalf("duplicate point %s", p.Key())
		}
		seen[p.Key()] = true
	}
}

func TestEnumerationBestFirst(t *testing.T) {
	s := space(t)
	pts := s.Points()
	// First point must have the best monotone values: 40g, 5 replicas.
	first := pts[0]
	if v := first.MustValue("net"); v != "40g" {
		t.Errorf("first point net = %v, want 40g", v)
	}
	if v := first.MustValue("replicas"); v != 5 {
		t.Errorf("first point replicas = %v, want 5", v)
	}
	// Last point has the worst: 1g, 2.
	last := pts[len(pts)-1]
	if v := last.MustValue("net"); v != "1g" {
		t.Errorf("last point net = %v, want 1g", v)
	}
}

func TestSpaceValidation(t *testing.T) {
	// No dimensions is the one-point space: the point that assigns nothing.
	empty, err := NewSpace()
	if err != nil {
		t.Fatal(err)
	}
	if pts := empty.Points(); empty.Size() != 1 || len(pts) != 1 || pts[0].Len() != 0 || pts[0].Key() != "" {
		t.Errorf("empty space: size %d, points %v, want one point keyed \"\"", empty.Size(), pts)
	}
	if _, err := NewSpace(Dimension{Name: "", Values: []Value{1}}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSpace(Dimension{Name: "x", Values: nil}); err == nil {
		t.Error("no values accepted")
	}
	if _, err := NewSpace(Dimension{Name: "x", Values: []Value{1, 1}}); err == nil {
		t.Error("duplicate values accepted")
	}
	if _, err := NewSpace(
		Dimension{Name: "x", Values: []Value{1}},
		Dimension{Name: "x", Values: []Value{2}},
	); err == nil {
		t.Error("duplicate dimension accepted")
	}
}

func TestPointAccessors(t *testing.T) {
	s := space(t)
	p := pointFor(t, s, map[string]Value{"net": "10g", "replicas": 3, "placement": "random"})
	if v, err := p.Value("net"); err != nil || v != "10g" {
		t.Errorf("net = %v (%v)", v, err)
	}
	if _, err := p.Value("bogus"); err == nil {
		t.Error("unknown dimension accepted")
	}
	a := p.Assignments()
	if len(a) != 3 || a["replicas"] != 3 {
		t.Errorf("assignments = %v", a)
	}
	// Key is canonical and order-independent.
	if p.Key() != "net=10g,placement=random,replicas=3" {
		t.Errorf("key = %q", p.Key())
	}
	// At walks the dimensions in declaration order and agrees with the map;
	// Key, made of labels formatted once per space, is still the sorted
	// "name=value" list for every point.
	for _, pt := range s.Points() {
		var parts []string
		for i := 0; i < pt.Len(); i++ {
			name, v := pt.At(i)
			if name != s.dims[i].Name || v != pt.Assignments()[name] {
				t.Fatalf("At(%d) = %s, %v; assignments %v", i, name, v, pt.Assignments())
			}
			parts = append(parts, name+"="+FormatValue(v))
		}
		sort.Strings(parts)
		if want := strings.Join(parts, ","); pt.Key() != want {
			t.Fatalf("key = %q, want %q", pt.Key(), want)
		}
	}
}

func TestDominancePruning(t *testing.T) {
	s := space(t)
	pr := NewPruner()
	// 10g + 3 replicas + random failed.
	pr.RecordFailure(pointFor(t, s, map[string]Value{"net": "10g", "replicas": 3, "placement": "random"}))

	cases := []struct {
		assign map[string]Value
		want   bool
	}{
		// Worse network, same everything else: dominated (§4.2 example).
		{map[string]Value{"net": "1g", "replicas": 3, "placement": "random"}, true},
		// Same point: dominated.
		{map[string]Value{"net": "10g", "replicas": 3, "placement": "random"}, true},
		// Worse on both monotone dims: dominated.
		{map[string]Value{"net": "1g", "replicas": 2, "placement": "random"}, true},
		// Better network: not dominated.
		{map[string]Value{"net": "40g", "replicas": 3, "placement": "random"}, false},
		// Worse net but more replicas: not dominated (incomparable).
		{map[string]Value{"net": "1g", "replicas": 5, "placement": "random"}, false},
		// Different categorical value: not dominated.
		{map[string]Value{"net": "1g", "replicas": 3, "placement": "roundrobin"}, false},
	}
	for _, c := range cases {
		p := pointFor(t, s, c.assign)
		if got := pr.Dominated(p); got != c.want {
			t.Errorf("Dominated(%s) = %v, want %v", p.Key(), got, c.want)
		}
	}
}

func TestPruningSavesRunsInBestFirstOrder(t *testing.T) {
	// Simulate a sweep where points with net=1g or replicas=2 fail: with
	// best-first enumeration and pruning, strictly fewer points should be
	// executed than the full cartesian product.
	s := space(t)
	pr := NewPruner()
	executed := 0
	fails := func(p Point) bool {
		return p.MustValue("net") == "1g" || p.MustValue("replicas") == 2
	}
	for _, p := range s.Points() {
		if pr.Dominated(p) {
			continue
		}
		executed++
		if fails(p) {
			pr.RecordFailure(p)
		}
	}
	if executed >= s.Size() {
		t.Fatalf("pruning executed %d of %d points — saved nothing", executed, s.Size())
	}
	// Verify no pruned point would actually have passed: re-check by
	// exhaustive evaluation.
	for _, p := range s.Points() {
		if pr.Dominated(p) && !fails(p) {
			t.Fatalf("pruned point %s would have passed", p.Key())
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{"x", "x"}, {3, "3"}, {2.5, "2.5"}, {true, "true"},
	}
	for _, c := range cases {
		if got := FormatValue(c.v); got != c.want {
			t.Errorf("FormatValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	// Formatted values are table cells, stream events and store keys: the
	// strconv forms must print what the fmt verbs they replaced print.
	for _, v := range []Value{0.0, 1e21, 1e-7, 123456789.0, 0.1 + 0.2, math.Inf(-1), math.NaN(),
		-7, math.MaxInt64, false, int8(3), []int{1}, nil} {
		want := fmt.Sprintf("%v", v)
		if f, ok := v.(float64); ok {
			want = fmt.Sprintf("%g", f)
		}
		if got := FormatValue(v); got != want {
			t.Errorf("FormatValue(%#v) = %q, fmt prints %q", v, got, want)
		}
	}
}
