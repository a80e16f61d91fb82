package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical draws out of 100", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPerm(t *testing.T) {
	r := New(9)
	p := r.Perm(50)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate element %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 50 {
		t.Fatalf("Perm covered %d elements, want 50", len(seen))
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(13)
	f := func(seed uint64) bool {
		rr := New(seed)
		n := 1 + rr.Intn(200)
		k := rr.Intn(n + 1)
		s := r.Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleUniformCoverage(t *testing.T) {
	// Each element should appear in Sample(10, 3) with probability 3/10.
	r := New(21)
	const draws = 60000
	counts := make([]int, 10)
	for i := 0; i < draws; i++ {
		for _, v := range r.Sample(10, 3) {
			counts[v]++
		}
	}
	want := float64(draws) * 0.3
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("element %d chosen %d times, want ~%v", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const n = 300000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(19)
	const n = 300000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.01 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestDeriveIndependence(t *testing.T) {
	root := New(42)
	a := root.Derive("disk-failures")
	b := root.Derive("network")
	if a.Uint64() == b.Uint64() {
		t.Fatal("derived streams with different names produced same first draw")
	}
	// Derivation must be stable: same name twice gives the same stream.
	c := root.Derive("disk-failures")
	a2 := New(42).Derive("disk-failures")
	_ = a2.Uint64() // consumed one above for a; align by fresh source
	c1, a21 := c.Uint64(), New(42).Derive("disk-failures").Uint64()
	if c1 != a21 {
		t.Fatal("Derive is not a pure function of (state, name)")
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	a, b := New(42), New(42)
	a.Derive("x")
	a.Derive("y")
	if a.Uint64() != b.Uint64() {
		t.Fatal("Derive advanced the parent stream")
	}
}

func TestForkAdvancesParent(t *testing.T) {
	a := New(42)
	f1 := a.Fork()
	f2 := a.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("successive forks produced identical streams")
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(23)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed the multiset: sum %d -> %d", sum, got)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

func TestAntitheticComplement(t *testing.T) {
	plain := New(99)
	anti := New(99)
	anti.SetAntithetic(true)
	if !anti.Antithetic() || plain.Antithetic() {
		t.Fatal("antithetic flags wrong")
	}
	for i := 0; i < 1000; i++ {
		u := plain.Float64()
		v := anti.Float64()
		// Exact lattice complement: u + v == 1 - 2^-53.
		if u+v != 1-0x1p-53 {
			t.Fatalf("draw %d: %v + %v != 1-2^-53", i, u, v)
		}
	}
}

func TestAntitheticDeriveInherits(t *testing.T) {
	plain := New(7).Derive("x")
	anti := New(7)
	anti.SetAntithetic(true)
	antiD := anti.Derive("x")
	if !antiD.Antithetic() {
		t.Fatal("derived stream lost the antithetic flag")
	}
	// Derived states are identical, so outputs are exact complements.
	for i := 0; i < 100; i++ {
		if plain.Uint64() != ^antiD.Uint64() {
			t.Fatalf("derived antithetic stream is not the complement at draw %d", i)
		}
	}
	// Forked children also mirror.
	pf := New(7).Fork()
	af := New(7)
	af.SetAntithetic(true)
	aff := af.Fork()
	for i := 0; i < 100; i++ {
		if pf.Uint64() != ^aff.Uint64() {
			t.Fatalf("forked antithetic stream is not the complement at draw %d", i)
		}
	}
}

func TestAntitheticStillUniform(t *testing.T) {
	r := New(3)
	r.SetAntithetic(true)
	n := 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("antithetic uniform mean = %v", mean)
	}
	counts := make([]int, 10)
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for d, c := range counts {
		if c < n/10-1500 || c > n/10+1500 {
			t.Fatalf("antithetic Intn digit %d count %d far from %d", d, c, n/10)
		}
	}
}

func TestKeyedPureFunction(t *testing.T) {
	a := Keyed(1, 2, "node-0")
	b := Keyed(1, 2, "node-0")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Keyed is not a pure function of its arguments")
		}
	}
	// Distinct coordinates give distinct streams.
	base := Keyed(1, 2, "node-0").Uint64()
	if Keyed(1, 3, "node-0").Uint64() == base {
		t.Error("trial does not decorrelate keyed streams")
	}
	if Keyed(2, 2, "node-0").Uint64() == base {
		t.Error("seed does not decorrelate keyed streams")
	}
	if Keyed(1, 2, "node-1").Uint64() == base {
		t.Error("name does not decorrelate keyed streams")
	}
}

// TestInPlaceVariantsMatchConstructors: Reseed, Rekey and DeriveInto put
// a used source into exactly the state New, Keyed and Derive return —
// antithetic flag and cached normal variate included.
func TestInPlaceVariantsMatchConstructors(t *testing.T) {
	same := func(name string, got, want *Source) {
		t.Helper()
		if *got != *want {
			t.Fatalf("%s: in-place state %+v, constructor state %+v", name, *got, *want)
		}
		if got.NormFloat64() != want.NormFloat64() || got.Uint64() != want.Uint64() {
			t.Fatalf("%s: draws differ", name)
		}
	}
	used := New(1)
	used.SetAntithetic(true)
	used.NormFloat64() // caches the paired variate
	used.Reseed(42)
	same("Reseed", used, New(42))

	used.SetAntithetic(true)
	used.NormFloat64()
	used.Rekey(5, 9, "node-3/ttf")
	same("Rekey", used, Keyed(5, 9, "node-3/ttf"))

	parent := New(7)
	parent.SetAntithetic(true)
	used.NormFloat64()
	parent.DeriveInto(used, "disk")
	same("DeriveInto", used, parent.Derive("disk"))
	if !used.Antithetic() {
		t.Fatal("DeriveInto dropped the parent's antithetic setting")
	}
}

// TestSampleIntoMatchesSample: same values from the same draws on all
// three paths (rejection, dense, sparse), with and without the identity
// scratch, which must come back as the identity.
func TestSampleIntoMatchesSample(t *testing.T) {
	identity := make([]int, 5000)
	for i := range identity {
		identity[i] = i
	}
	shape := New(3)
	for round := 0; round < 2000; round++ {
		n := 1 + shape.Intn(60)
		if round%50 == 0 {
			n = 1025 + shape.Intn(3000) // beyond the dense limit without scratch
		}
		k := shape.Intn(n + 1)
		if round%3 == 0 {
			k = shape.Intn(min(n, 8) + 1) // small k: the rejection path when n is large enough
		}
		seed := shape.Uint64()
		want := New(seed).Sample(n, k)
		for _, scratch := range [][]int{nil, identity} {
			got := make([]int, k)
			r := New(seed)
			r.SampleInto(got, n, scratch)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d scratch=%v: SampleInto %v, Sample %v", n, k, scratch != nil, got, want)
				}
			}
			after := New(seed)
			after.Sample(n, k)
			if r.Uint64() != after.Uint64() {
				t.Fatalf("n=%d k=%d scratch=%v: SampleInto consumed different draws", n, k, scratch != nil)
			}
		}
		for i, v := range identity {
			if v != i {
				t.Fatalf("n=%d k=%d: identity[%d] = %d after SampleInto", n, k, i, v)
			}
		}
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	for n := 0; n < 40; n++ {
		want := New(uint64(n)).Perm(n)
		got := make([]int, n)
		for i := range got {
			got[i] = -1 // PermInto must not depend on what p held
		}
		New(uint64(n)).PermInto(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: PermInto %v, Perm %v", n, got, want)
			}
		}
	}
}
