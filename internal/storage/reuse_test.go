package storage

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// referenceRackAwarePlace is RackAware.Place as it was before the view
// grouped its nodes once: regroup every node by rack and allocate a
// chosen set for every object. Kept as the reference the scratch-based
// implementation must agree with draw for draw.
func referenceRackAwarePlace(count int, view View, r *rng.Source) ([]int, error) {
	if view.RackOf == nil {
		return r.Sample(view.Nodes, count), nil
	}
	racks := view.Racks()
	byRack := make([][]int, racks)
	for n, rk := range view.RackOf {
		byRack[rk] = append(byRack[rk], n)
	}
	chosen := make(map[int]bool, count)
	out := make([]int, 0, count)
	rackOrder := r.Perm(racks)
	for len(out) < count {
		progressed := false
		for _, rk := range rackOrder {
			if len(out) == count {
				break
			}
			nodes := byRack[rk]
			start := r.Intn(len(nodes))
			for i := 0; i < len(nodes); i++ {
				n := nodes[(start+i)%len(nodes)]
				if !chosen[n] {
					chosen[n] = true
					out = append(out, n)
					progressed = true
					break
				}
			}
		}
		if !progressed {
			return nil, fmt.Errorf("storage: rack-aware placement could not find %d distinct nodes", count)
		}
	}
	return out, nil
}

// TestRackAwareMatchesReference: same placements from the same stream,
// and the stream left in the same state, over views with uneven and
// interleaved racks and counts from one node to all of them.
func TestRackAwareMatchesReference(t *testing.T) {
	shape := rng.New(99)
	for round := 0; round < 200; round++ {
		racks := 1 + shape.Intn(6)
		view := View{}
		for rk := 0; rk < racks; rk++ {
			for i := 1 + shape.Intn(7); i > 0; i-- {
				view.RackOf = append(view.RackOf, rk)
			}
		}
		view.Nodes = len(view.RackOf)
		shape.Shuffle(view.Nodes, func(i, j int) { view.RackOf[i], view.RackOf[j] = view.RackOf[j], view.RackOf[i] })
		if round%10 == 0 {
			view.RackOf = nil // flat: falls through to Random
		}
		seed := shape.Uint64()
		got, want := rng.New(seed), rng.New(seed)
		for obj := 0; obj < 20; obj++ {
			count := 1 + shape.Intn(view.Nodes)
			locs, err := place(RackAware{}, obj, count, &view, got)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := referenceRackAwarePlace(count, view, want)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(locs, ref) {
				t.Fatalf("round %d object %d: %d of %d nodes over racks %v placed at %v, reference %v",
					round, obj, count, view.Nodes, view.RackOf, locs, ref)
			}
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("round %d: the two implementations consumed different draws", round)
		}
	}
}

// populate fills a fresh store the way a trial does.
func populate(t *testing.T, view View, policy Policy, users int, scheme Scheme, seed uint64) *Store {
	t.Helper()
	st, err := NewStore(view, policy)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddObjects(users, 64, scheme, rng.New(seed)); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestResetStoreMatchesFresh: a store that was populated, indexed,
// relocated in and reset is, after the next AddObjects, the store a
// fresh build with that stream would be — objects, placements, index.
func TestResetStoreMatchesFresh(t *testing.T) {
	view := rackView(3, 8)
	for _, policy := range []Policy{Random{}, RoundRobin{}, RackAware{}} {
		for _, scheme := range []Scheme{ReplicationScheme(3), RSScheme(6, 3)} {
			reused := populate(t, view, policy, 300, scheme, 1)
			// Dirty it: an index, relocations that grow index lists, a
			// second batch of objects.
			for _, obj := range slices.Clone(reused.ObjectsOn(0)) {
				for to := 0; to < view.Nodes; to++ {
					if reused.Relocate(obj, 0, to) == nil {
						break
					}
				}
			}
			if err := reused.AddObjects(50, 1, ReplicationScheme(2), rng.New(2)); err != nil {
				t.Fatal(err)
			}
			// Fewer objects, more objects, a wider scheme than before.
			for i, users := range []int{120, 500, 300} {
				seed := uint64(10 + i)
				reused.Reset()
				if reused.Len() != 0 {
					t.Fatalf("a reset store holds %d objects", reused.Len())
				}
				if err := reused.AddObjects(users, 64, scheme, rng.New(seed)); err != nil {
					t.Fatal(err)
				}
				fresh := populate(t, view, policy, users, scheme, seed)
				if reused.Len() != fresh.Len() {
					t.Fatalf("%s %v: %d objects, fresh %d", policy.Name(), scheme, reused.Len(), fresh.Len())
				}
				for id, want := range fresh.Objects() {
					got := reused.Objects()[id]
					if got.ID != want.ID || got.SizeMB != want.SizeMB || got.Scheme != want.Scheme || !slices.Equal(got.Locations, want.Locations) {
						t.Fatalf("%s %v: object %d is %+v, fresh %+v", policy.Name(), scheme, id, *got, *want)
					}
				}
				for n := 0; n < view.Nodes; n++ {
					ids := func(objs []*Object) (out []int) {
						for _, o := range objs {
							out = append(out, o.ID)
						}
						return out
					}
					if got, want := ids(reused.ObjectsOn(n)), ids(fresh.ObjectsOn(n)); !slices.Equal(got, want) {
						t.Fatalf("%s %v: node %d indexes %v, fresh %v", policy.Name(), scheme, n, got, want)
					}
				}
			}
		}
	}
}

// TestReplacingAllocatesNothing pins the reset path of placement: putting
// 1000 objects back on a store that has held them allocates nothing, for
// every built-in policy, on the rejection-sampling path (3 of 120 nodes)
// and on the dense one (9 of 40).
func TestReplacingAllocatesNothing(t *testing.T) {
	cases := []struct {
		view   View
		scheme Scheme
	}{
		{rackView(3, 40), ReplicationScheme(3)},
		{rackView(2, 20), RSScheme(6, 3)},
	}
	for _, c := range cases {
		for _, policy := range []Policy{Random{}, RoundRobin{}, RackAware{}} {
			st := populate(t, c.view, policy, 1000, c.scheme, 1)
			st.ObjectsOn(0)
			var r rng.Source
			trial := uint64(0)
			allocs := testing.AllocsPerRun(10, func() {
				trial++
				r.Reseed(trial)
				st.Reset()
				if err := st.AddObjects(1000, 64, c.scheme, &r); err != nil {
					t.Fatal(err)
				}
				st.ObjectsOn(0) // rebuilds the index in place
			})
			if allocs != 0 {
				t.Errorf("%s %v on %d nodes: re-placing 1000 objects allocates %.0f times, want 0",
					policy.Name(), c.scheme, c.view.Nodes, allocs)
			}
		}
	}
}
