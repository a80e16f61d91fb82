package storage

import (
	"fmt"
	"math"
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

// sameObjects fails the test unless got holds want's objects, field for
// field and location for location, in the same order.
func sameObjects(t *testing.T, what string, got, want []*Object) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d objects, want %d", what, len(got), len(want))
	}
	for i := range want {
		if g, w := got[i], want[i]; g.ID != w.ID || g.SizeMB != w.SizeMB || g.Scheme != w.Scheme || !slices.Equal(g.Locations, w.Locations) {
			t.Fatalf("%s: entry %d is %+v, want %+v", what, i, *g, *w)
		}
	}
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
				what := fmt.Sprintf("%s %v after Reset vs fresh", policy.Name(), scheme)
				if reused.Len() != fresh.Len() {
					t.Fatalf("%s: Len %d, fresh %d", what, reused.Len(), fresh.Len())
				}
				sameObjects(t, what, reused.Objects(), fresh.Objects())
				for n := 0; n < view.Nodes; n++ {
					sameObjects(t, fmt.Sprintf("%s, index of node %d", what, n), reused.ObjectsOn(n), fresh.ObjectsOn(n))
				}
			}
		}
	}
}

// TestPlaceRedrawsOnlyLocations: a store re-populated round after round —
// each round read through its index and relocated in before the next
// Reset — is after every AddObjects the store a fresh build gives, object
// for object (the size by its bits) and index entry for index entry,
// whether the population keeps its shape or changes its size, its scheme
// at the same width, or its count. Place reuses each object and its
// Locations in place; nothing from the round before may show through.
func TestPlaceRedrawsOnlyLocations(t *testing.T) {
	view := rackView(3, 8)
	rounds := []struct {
		users  int
		sizeMB float64
		scheme Scheme
	}{
		{200, 64, ReplicationScheme(3)},
		{200, 64, ReplicationScheme(3)},
		{200, 64, RSScheme(2, 1)},
		{200, 32, RSScheme(2, 1)},
		{200, math.Copysign(0, -1), RSScheme(2, 1)},
		{200, 0, RSScheme(2, 1)},
		{150, 0, RSScheme(2, 1)},
		{260, 64, ReplicationScheme(3)},
		{260, 64, RSScheme(4, 2)},
		{260, 64, ReplicationScheme(2)},
	}
	for _, policy := range []Policy{Random{}, RoundRobin{}, RackAware{}} {
		reused, err := NewStore(view, policy)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range rounds {
			reused.Reset()
			if err := reused.AddObjects(p.users, p.sizeMB, p.scheme, rng.New(uint64(i+1))); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewStore(view, policy)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.AddObjects(p.users, p.sizeMB, p.scheme, rng.New(uint64(i+1))); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s round %d (%d x %v MB %v)", policy.Name(), i, p.users, p.sizeMB, p.scheme)
			sameObjects(t, what, reused.Objects(), fresh.Objects())
			for j, obj := range reused.Objects() {
				if math.Float64bits(obj.SizeMB) != math.Float64bits(fresh.Objects()[j].SizeMB) {
					t.Fatalf("%s: object %d is %v MB, fresh %v MB", what, j, obj.SizeMB, fresh.Objects()[j].SizeMB)
				}
			}
			for n := 0; n < view.Nodes; n++ {
				sameObjects(t, fmt.Sprintf("%s, index of node %d", what, n), reused.ObjectsOn(n), fresh.ObjectsOn(n))
			}
			// Dirty the next round's starting point: move node 0's shards away.
			for _, obj := range slices.Clone(reused.ObjectsOn(0)) {
				for to := 1; to < view.Nodes; to++ {
					if reused.Relocate(obj, 0, to) == nil {
						break
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

// TestRelocationOverflowAllocatesNothing: a repair storm that drains a
// node onto the lowest-numbered nodes holding no shard of each object
// moves more shards onto node 1 than its list has room for. The first
// trial grows the store's index; every repeat of the trial after a Reset
// allocates nothing, because the outgrown list is carved again from the
// kept index, not moved to storage the next Reset drops.
func TestRelocationOverflowAllocatesNothing(t *testing.T) {
	view := rackView(3, 5)
	st, err := NewStore(view, Random{})
	if err != nil {
		t.Fatal(err)
	}
	var place rng.Source
	overflowed := false
	trial := func() {
		st.Reset()
		place.Reseed(1)
		if err := st.AddObjects(300, 64, ReplicationScheme(3), &place); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < view.Nodes; n++ {
			st.ObjectsOn(n)
		}
		room := cap(st.ObjectsOn(1))
		for _, o := range st.Objects() {
			if !slices.Contains(o.Locations, 0) {
				continue
			}
			to := 1
			for slices.Contains(o.Locations, to) {
				to++
			}
			if err := st.Relocate(o, 0, to); err != nil {
				t.Fatal(err)
			}
		}
		overflowed = len(st.ObjectsOn(1)) > room
		if len(st.ObjectsOn(0)) != 0 {
			t.Fatalf("node 0 still lists %d objects after the drain", len(st.ObjectsOn(0)))
		}
	}
	trial()
	if !overflowed {
		t.Fatal("the drain fits node 1's room: the test no longer overflows a list")
	}
	if allocs := testing.AllocsPerRun(10, trial); allocs != 0 {
		t.Fatalf("a warm trial whose relocations overflow a list allocates %v times, want 0", allocs)
	}
}

// TestDeferredStoreMatchesEager: a population the store was told of with
// Defer is, once anything reads an object, the population AddObjects
// places — object for object, index entry for index entry — whichever
// read comes first; until then nothing is placed and nothing drawn, Len
// answers from the request, and a Reset drops it.
func TestDeferredStoreMatchesEager(t *testing.T) {
	view := rackView(3, 8)
	up := func(int) bool { return false }
	reads := map[string]func(*Store){
		"Objects":          func(st *Store) { st.Objects() },
		"ObjectsOn":        func(st *Store) { st.ObjectsOn(5) },
		"UnavailableCount": func(st *Store) { st.UnavailableCount(up) },
		"AnyUnavailable":   func(st *Store) { st.AnyUnavailable(up) },
		"LostCount":        func(st *Store) { st.LostCount(up) },
		"Place":            func(st *Store) { _ = st.Place() },
		"Defer": func(st *Store) {
			if err := st.Defer(10, 1, ReplicationScheme(2), rng.New(3)); err != nil {
				t.Fatal(err)
			}
		},
	}
	for _, policy := range []Policy{Random{}, RoundRobin{}, RackAware{}} {
		for name, read := range reads {
			t.Run(policy.Name()+"/"+name, func(t *testing.T) {
				scheme := RSScheme(4, 2)
				eager := populate(t, view, policy, 200, scheme, 9)
				st, err := NewStore(view, policy)
				if err != nil {
					t.Fatal(err)
				}
				r, untouched := rng.New(9), rng.New(9)
				if err := st.Defer(200, 64, scheme, r); err != nil {
					t.Fatal(err)
				}
				if st.Len() != 200 || len(st.objects) != 0 || st.owned != 0 {
					t.Fatalf("after Defer: Len %d, %d objects placed, %d allocated", st.Len(), len(st.objects), st.owned)
				}
				if *r != *untouched {
					t.Fatal("Defer, or Len, drew from the placement stream")
				}
				read(st)
				if len(st.objects) != 200 || st.Err() != nil {
					t.Fatalf("%s placed %d objects, error %v", name, len(st.objects), st.Err())
				}
				if name == "Defer" { // the second request stays deferred; it is not part of the comparison
					st.pending = population{}
				}
				sameObjects(t, "deferred vs eager", st.Objects(), eager.Objects())
				for n := 0; n < view.Nodes; n++ {
					sameObjects(t, fmt.Sprintf("deferred vs eager, index of node %d", n), st.ObjectsOn(n), eager.ObjectsOn(n))
				}

				// Reset before the first read: the request is gone, nothing
				// was drawn, and the store is a fresh one again.
				st.Reset()
				r.Reseed(21)
				untouched.Reseed(21)
				if err := st.Defer(500, 64, scheme, r); err != nil {
					t.Fatal(err)
				}
				st.Reset()
				if st.Len() != 0 || len(st.Objects()) != 0 || *r != *untouched {
					t.Fatalf("Reset kept a deferred population: Len %d, %d objects", st.Len(), len(st.Objects()))
				}
				if err := st.AddObjects(200, 64, scheme, rng.New(9)); err != nil {
					t.Fatal(err)
				}
				sameObjects(t, "eager after a dropped request", st.Objects(), eager.Objects())
			})
		}
	}
}

// TestDeferredPlacementFailureIsKept: what Defer can check it refuses at
// once, with AddObjects' words; a policy that fails while a read places
// leaves the store short and says why through Err until the next Reset.
func TestDeferredPlacementFailureIsKept(t *testing.T) {
	st, err := NewStore(View{Nodes: 5}, Random{})
	if err != nil {
		t.Fatal(err)
	}
	for want, deferBad := range map[string]func() error{
		"storage: AddObjects count must be >= 1, got 0":    func() error { return st.Defer(0, 1, ReplicationScheme(3), rng.New(1)) },
		"storage: object size must be >= 0, got -1":        func() error { return st.Defer(1, -1, ReplicationScheme(3), rng.New(1)) },
		"storage: replication needs >= 1 replica, got 0":   func() error { return st.Defer(1, 1, ReplicationScheme(0), rng.New(1)) },
		"storage: scheme rs-6-3 needs 9 nodes, view has 5": func() error { return st.Defer(1, 1, RSScheme(6, 3), rng.New(1)) },
	} {
		if err := deferBad(); err == nil || err.Error() != want {
			t.Errorf("Defer: error %v, want %q", err, want)
		}
	}
	if st.Len() != 0 {
		t.Fatalf("a refused Defer left %d objects requested", st.Len())
	}

	if st, err = NewStore(View{Nodes: 9}, oneWidth(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.AddObjects(4, 1, ReplicationScheme(3), rng.New(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Defer(6, 1, ReplicationScheme(2), rng.New(1)); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 10 || st.Err() != nil {
		t.Fatalf("before the read: Len %d, Err %v", st.Len(), st.Err())
	}
	const want = "storage: placing object 4: policy places groups of 3 only, asked for 2"
	if n := len(st.Objects()); n != 4 || st.Len() != 4 || st.Err() == nil || st.Err().Error() != want {
		t.Fatalf("after the read: %d objects, Len %d, Err %v; want 4, 4, %q", n, st.Len(), st.Err(), want)
	}
	st.Reset()
	if st.Err() != nil {
		t.Fatalf("Reset kept the placement error: %v", st.Err())
	}
}

// oneWidth is a policy that places groups of one width only, round-robin,
// and fails on any other width.
type oneWidth int

func (oneWidth) Name() string { return "onewidth" }

func (w oneWidth) Place(dst []int, objectID int, view *View, r *rng.Source) error {
	if len(dst) != int(w) {
		return fmt.Errorf("policy places groups of %d only, asked for %d", int(w), len(dst))
	}
	return RoundRobin{}.Place(dst, objectID, view, r)
}

// TestKeptLayoutMatchesFresh: a roundrobin store whose objects were read,
// relocated (some twice, some there and back) and reset revives its layout
// at the next Defer of the identical population — nothing pending,
// nothing drawn, no allocation — and is then the store a fresh build
// gives, object for object and list for list. A population that differs in
// count, size (-0 included), scheme or policy is placed afresh, and equal
// to a fresh build too.
func TestKeptLayoutMatchesFresh(t *testing.T) {
	view := rackView(3, 8)
	scheme := ReplicationScheme(3)
	check := func(t *testing.T, what string, st *Store, policy Policy, users int, sizeMB float64, scheme Scheme) {
		t.Helper()
		fresh, err := NewStore(view, policy)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.AddObjects(users, sizeMB, scheme, rng.New(5)); err != nil {
			t.Fatal(err)
		}
		sameObjects(t, what, st.Objects(), fresh.Objects())
		for j, obj := range st.Objects() {
			if math.Float64bits(obj.SizeMB) != math.Float64bits(sizeMB) {
				t.Fatalf("%s: object %d is %v MB, want %v MB", what, j, obj.SizeMB, sizeMB)
			}
		}
		for n := 0; n < view.Nodes; n++ {
			sameObjects(t, fmt.Sprintf("%s, list of node %d", what, n), st.ObjectsOn(n), fresh.ObjectsOn(n))
		}
	}
	// dirty reads lists and moves shards: node 0's away, one object there
	// and back, one object twice.
	dirty := func(t *testing.T, st *Store) {
		t.Helper()
		st.ObjectsOn(3)
		for _, obj := range slices.Clone(st.ObjectsOn(0)) {
			for to := 1; to < view.Nodes; to++ {
				if st.Relocate(obj, 0, to) == nil {
					break
				}
			}
		}
		hop := func(obj *Object, from int) int {
			t.Helper()
			for to := view.Nodes - 1; ; to-- {
				if !slices.Contains(obj.Locations, to) {
					if err := st.Relocate(obj, from, to); err != nil {
						t.Fatal(err)
					}
					return to
				}
			}
		}
		obj := st.Objects()[7]
		from := obj.Locations[0]
		if err := st.Relocate(obj, hop(obj, hop(obj, from)), from); err != nil {
			t.Fatal(err)
		}
		hop(st.Objects()[11], st.Objects()[11].Locations[1])
	}

	st := populate(t, view, RoundRobin{}, 200, scheme, 1)
	for round := 0; round < 3; round++ {
		dirty(t, st)
		st.Reset()
		r, untouched := rng.New(uint64(round)), rng.New(uint64(round))
		if err := st.Defer(200, 64, scheme, r); err != nil {
			t.Fatal(err)
		}
		if st.pending.count != 0 || len(st.objects) != 200 || *r != *untouched {
			t.Fatalf("round %d: the identical population was not revived (%d pending, %d objects)",
				round, st.pending.count, len(st.objects))
		}
		check(t, fmt.Sprintf("revived, round %d", round), st, RoundRobin{}, 200, 64, scheme)
	}

	// A revived trial that moves shards and resets allocates nothing: the
	// list of moved objects keeps its storage.
	var r rng.Source
	allocs := testing.AllocsPerRun(10, func() {
		st.Reset()
		if err := st.Defer(200, 64, scheme, &r); err != nil {
			t.Fatal(err)
		}
		obj := st.Objects()[7]
		if err := st.Relocate(obj, obj.Locations[0], 20); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a revived population with a relocation allocates %.0f times a trial, want 0", allocs)
	}

	for _, c := range []struct {
		what   string
		users  int
		sizeMB float64
		scheme Scheme
	}{
		{"count", 199, 64, scheme},
		{"size", 200, 32, scheme},
		{"size -0 after 0", 200, math.Copysign(0, -1), scheme},
		{"scheme of the same width", 200, 64, RSScheme(2, 1)},
		{"scheme", 200, 64, ReplicationScheme(2)},
	} {
		t.Run(c.what, func(t *testing.T) {
			st := populate(t, view, RoundRobin{}, 200, scheme, 1)
			if c.what == "size -0 after 0" {
				st.Reset()
				if err := st.AddObjects(200, 0, scheme, rng.New(1)); err != nil {
					t.Fatal(err)
				}
			}
			dirty(t, st)
			st.Reset()
			if err := st.Defer(c.users, c.sizeMB, c.scheme, rng.New(5)); err != nil {
				t.Fatal(err)
			}
			if st.pending.count != c.users {
				t.Fatalf("a changed %s revived the kept layout", c.what)
			}
			check(t, "placed afresh", st, RoundRobin{}, c.users, c.sizeMB, c.scheme)
		})
	}
	for _, policy := range []Policy{Random{}, RackAware{}, oneWidth(3)} {
		st := populate(t, view, policy, 200, scheme, 5)
		dirty(t, st)
		st.Reset()
		if err := st.Defer(200, 64, scheme, rng.New(5)); err != nil {
			t.Fatal(err)
		}
		if st.pending.count != 200 {
			t.Fatalf("%s kept a layout", policy.Name())
		}
		check(t, policy.Name()+" placed afresh", st, policy, 200, 64, scheme)
	}
}
