package storage

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func flatView(n int) View { return View{Nodes: n} }

// place runs p.Place into a slice of its own.
func place(p Policy, obj, count int, view *View, r *rng.Source) ([]int, error) {
	locs := make([]int, count)
	return locs, p.Place(locs, obj, view, r)
}

// distinct is the map-based check View.distinct replaced, kept as the
// tests' independent judge of a placement.
func distinct(locs []int, nodes int) error {
	seen := make(map[int]bool, len(locs))
	for _, l := range locs {
		if l < 0 || l >= nodes {
			return fmt.Errorf("node %d out of range", l)
		}
		if seen[l] {
			return fmt.Errorf("duplicate node %d in placement", l)
		}
		seen[l] = true
	}
	return nil
}

func rackView(racks, perRack int) View {
	v := View{Nodes: racks * perRack, RackOf: make([]int, racks*perRack)}
	for i := range v.RackOf {
		v.RackOf[i] = i / perRack
	}
	return v
}

func TestPoliciesProduceDistinctValidNodes(t *testing.T) {
	r := rng.New(7)
	policies := []Policy{Random{}, RoundRobin{}, RackAware{}}
	view := rackView(5, 6)
	for _, p := range policies {
		for obj := 0; obj < 200; obj++ {
			locs, err := place(p, obj, 3, &view, r)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if len(locs) != 3 {
				t.Fatalf("%s: got %d locations, want 3", p.Name(), len(locs))
			}
			if err := distinct(locs, view.Nodes); err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
		}
	}
}

func TestRoundRobinDeterministicWindows(t *testing.T) {
	view := flatView(10)
	p := RoundRobin{}
	locs, err := place(p, 8, 3, &view, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8, 9, 0}
	for i := range want {
		if locs[i] != want[i] {
			t.Fatalf("object 8 placed at %v, want %v", locs, want)
		}
	}
}

func TestRackAwareSpreadsAcrossRacks(t *testing.T) {
	r := rng.New(3)
	view := rackView(3, 4)
	p := RackAware{}
	for obj := 0; obj < 100; obj++ {
		locs, err := place(p, obj, 3, &view, r)
		if err != nil {
			t.Fatal(err)
		}
		racks := map[int]bool{}
		for _, n := range locs {
			racks[view.RackOf[n]] = true
		}
		if len(racks) != 3 {
			t.Fatalf("object %d spans %d racks, want 3: %v", obj, len(racks), locs)
		}
	}
}

func TestRackAwareWrapsWhenFewRacks(t *testing.T) {
	r := rng.New(3)
	view := rackView(2, 5)
	locs, err := place(RackAware{}, 0, 4, &view, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := distinct(locs, view.Nodes); err != nil {
		t.Fatal(err)
	}
}

func TestSchemeSemantics(t *testing.T) {
	rep3 := ReplicationScheme(3)
	if rep3.MinAvailable() != 2 {
		t.Errorf("rep-3 quorum = %d, want 2", rep3.MinAvailable())
	}
	rep5 := ReplicationScheme(5)
	if rep5.MinAvailable() != 3 {
		t.Errorf("rep-5 quorum = %d, want 3", rep5.MinAvailable())
	}
	rs := RSScheme(10, 4)
	if rs.MinAvailable() != 10 || rs.Width() != 14 {
		t.Errorf("rs-10-4 min/width = %d/%d, want 10/14", rs.MinAvailable(), rs.Width())
	}
	if rs.Overhead() != 1.4 || rep3.Overhead() != 3 {
		t.Error("overhead wrong")
	}
	if ReplicationScheme(0).Validate() == nil {
		t.Error("rep-0 accepted")
	}
	if RSScheme(0, 2).Validate() == nil {
		t.Error("rs k=0 accepted")
	}
	// The String form is a cache-key field; Append writes it in place.
	for s, want := range map[Scheme]string{
		rep3: "rep-3", rs: "rs-10-4", ReplicationScheme(-1): "rep--1", RSScheme(0, 12): "rs-0-12",
	} {
		if got := string(s.Append([]byte("scheme="))); got != "scheme="+want || s.String() != want {
			t.Errorf("Append/String = %q/%q, want %q", got, s.String(), want)
		}
	}
}

// TestParseScheme: ParseScheme reads back exactly what String writes, and
// nothing else — not a scheme that would not validate, not a second
// spelling of one that would, not a count too large to add up.
func TestParseScheme(t *testing.T) {
	for _, want := range []Scheme{
		ReplicationScheme(1), ReplicationScheme(3), RSScheme(6, 3), RSScheme(10, 4), RSScheme(4, 0), RSScheme(2147483647, 2147483647),
	} {
		got, err := ParseScheme(want.String())
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v", want.String(), got, err)
		}
	}
	for _, bad := range []string{
		"rs-0-3", "rep-0", "rs-6", "raid5", "", "rep-", "rs-", "rs--", "rep--1", "rs-6--3", "rs-6-3-1", "rep-3 ", " rep-3",
		"rep-03", "rep-+3", "REP-3", "rs-6-3.0", "rep-2147483648", "rs-1-99999999999999999999",
	} {
		if got, err := ParseScheme(bad); err == nil {
			t.Errorf("ParseScheme(%q) = %v, want an error", bad, got)
		} else if !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Errorf("ParseScheme(%q): %v does not quote what it was given", bad, err)
		}
	}
}

func TestStoreQuorumAvailability(t *testing.T) {
	r := rng.New(5)
	st, err := NewStore(flatView(10), RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddObjects(1, 100, ReplicationScheme(3), r); err != nil {
		t.Fatal(err)
	}
	obj := st.Objects()[0] // placed on 0, 1, 2
	downSet := map[int]bool{}
	down := func(n int) bool { return downSet[n] }
	if !st.Available(obj, down) {
		t.Fatal("object unavailable with no failures")
	}
	downSet[0] = true
	if !st.Available(obj, down) {
		t.Fatal("object should survive one failure (majority 2 of 3 up)")
	}
	downSet[1] = true
	if st.Available(obj, down) {
		t.Fatal("object should be unavailable with majority down")
	}
	if st.Lost(obj, down) {
		t.Fatal("object not lost while one replica remains")
	}
	downSet[2] = true
	if !st.Lost(obj, down) {
		t.Fatal("object should be lost with all replicas down")
	}
}

func TestStoreRSAvailability(t *testing.T) {
	r := rng.New(5)
	st, err := NewStore(flatView(10), Random{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddObjects(1, 100, RSScheme(4, 2), r); err != nil {
		t.Fatal(err)
	}
	obj := st.Objects()[0]
	downSet := map[int]bool{}
	down := func(n int) bool { return downSet[n] }
	// Fail 2 shards: still readable (4 of 6 left).
	downSet[obj.Locations[0]] = true
	downSet[obj.Locations[1]] = true
	if !st.Available(obj, down) {
		t.Fatal("RS(4,2) should survive 2 erasures")
	}
	// Fail a third: unreadable AND lost (RS loss == unavailability).
	downSet[obj.Locations[2]] = true
	if st.Available(obj, down) {
		t.Fatal("RS(4,2) should not survive 3 erasures")
	}
	if !st.Lost(obj, down) {
		t.Fatal("RS(4,2) with 3 erasures is unrecoverable")
	}
}

func TestStoreCounts(t *testing.T) {
	r := rng.New(9)
	st, err := NewStore(flatView(10), RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddObjects(10, 50, ReplicationScheme(3), r); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 10 {
		t.Fatalf("len = %d, want 10", st.Len())
	}
	// Nodes 0,1,2 down: objects 0 (0,1,2), 1 (1,2,3), 9 (9,0,1), 2 (2,3,4)...
	down := func(n int) bool { return n <= 2 }
	got := st.UnavailableCount(down)
	// Object i occupies i, i+1, i+2 (mod 10); unavailable iff >= 2 of its
	// nodes in {0,1,2}: objects 0, 1, 8(8,9,0)? no ->1 of set. obj 9: 9,0,1 -> 2. obj 2: 2,3,4 -> 1.
	// So objects 0 (3 down), 1 (2 down), 9 (2 down) = 3 unavailable.
	if got != 3 {
		t.Fatalf("unavailable = %d, want 3", got)
	}
	if !st.AnyUnavailable(down) {
		t.Fatal("AnyUnavailable false with 3 unavailable objects")
	}
	if st.AnyUnavailable(func(int) bool { return false }) {
		t.Fatal("AnyUnavailable true with no failures")
	}
}

func TestObjectsOn(t *testing.T) {
	r := rng.New(9)
	st, err := NewStore(flatView(10), RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddObjects(10, 1, ReplicationScheme(3), r); err != nil {
		t.Fatal(err)
	}
	// Node 5 holds shards of objects 3, 4, 5 under round-robin.
	objs := st.ObjectsOn(5)
	if len(objs) != 3 {
		t.Fatalf("node 5 holds %d objects, want 3", len(objs))
	}
	ids := map[int]bool{}
	for _, o := range objs {
		ids[o.ID] = true
	}
	for _, want := range []int{3, 4, 5} {
		if !ids[want] {
			t.Errorf("node 5 missing object %d", want)
		}
	}
}

// TestObjectsOnIndexTracksStore holds the node index ObjectsOn answers
// from against a scan of every object's Locations, through relocations
// (including onto a node whose window of the index is full) and a second
// AddObjects, and pins a lookup at zero allocations.
func TestObjectsOnIndexTracksStore(t *testing.T) {
	r := rng.New(4)
	st, err := NewStore(flatView(8), Random{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddObjects(60, 1, ReplicationScheme(3), r); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for n := 0; n < 8; n++ {
			var want []int
			for _, o := range st.Objects() {
				for _, loc := range o.Locations {
					if loc == n {
						want = append(want, o.ID)
					}
				}
			}
			got := st.ObjectsOn(n)
			if len(got) != len(want) {
				t.Fatalf("%s: node %d indexes %d objects, scan finds %d", when, n, len(got), len(want))
			}
			for i, o := range got {
				if o.ID != want[i] {
					t.Fatalf("%s: node %d entry %d is object %d, scan (ascending ID) says %d", when, n, i, o.ID, want[i])
				}
			}
		}
	}
	check("after first lookup")
	for step := 0; step < 200; step++ {
		obj := st.Objects()[r.Intn(st.Len())]
		from := obj.Locations[r.Intn(len(obj.Locations))]
		if err := st.Relocate(obj, from, r.Intn(8)); err != nil {
			continue // target already holds a shard
		}
		check("after relocate")
	}
	if err := st.AddObjects(20, 1, RSScheme(2, 2), r); err != nil {
		t.Fatal(err)
	}
	check("after second AddObjects")
	if allocs := testing.AllocsPerRun(100, func() { _ = st.ObjectsOn(3) }); allocs != 0 {
		t.Fatalf("ObjectsOn allocated %v times per call, want 0", allocs)
	}
}

// TestRelocateIndexMatchesScan: however many relocations pile up on a node
// between two reads of it — shards arriving, leaving, leaving and coming
// back, the source read before its shard moves and after — a read of the
// node gives what a scan of every object's Locations gives: ascending IDs,
// each once. Most nodes go unread through most relocations, so their lists
// are put right from many writes at once.
func TestRelocateIndexMatchesScan(t *testing.T) {
	const nodes = 12
	for seed := uint64(1); seed <= 5; seed++ {
		r := rng.New(seed)
		st, err := NewStore(flatView(nodes), Random{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AddObjects(80, 1, ReplicationScheme(3), r); err != nil {
			t.Fatal(err)
		}
		read := func(when string, n int) {
			t.Helper()
			var want []int
			for _, o := range st.Objects() {
				if slices.Contains(o.Locations, n) {
					want = append(want, o.ID)
				}
			}
			var got []int
			for _, o := range st.ObjectsOn(n) {
				got = append(got, o.ID)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d, %s: node %d lists %v, a scan finds %v", seed, when, n, got, want)
			}
		}
		read("first lookup", 0)
		for step := 0; step < 600; step++ {
			obj := st.Objects()[r.Intn(st.Len())]
			from := obj.Locations[r.Intn(len(obj.Locations))]
			to := r.Intn(nodes)
			if step%3 == 0 {
				read("source before the move", from)
			}
			if err := st.Relocate(obj, from, to); err != nil {
				continue // target already holds a shard
			}
			switch step % 5 {
			case 0:
				read("source after the move", from)
			case 1:
				read("target after the move", to)
			case 2: // away and back, unread in between
				if err := st.Relocate(obj, to, from); err != nil {
					t.Fatal(err)
				}
				if step%2 == 0 {
					read("node the shard came back to", from)
				}
			case 3:
				read("bystander", r.Intn(nodes))
			}
		}
		if err := st.AddObjects(10, 1, ReplicationScheme(2), r); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < nodes; n++ {
			read("after a second AddObjects", n)
		}
	}
}

func TestRelocate(t *testing.T) {
	r := rng.New(9)
	st, err := NewStore(flatView(10), RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddObjects(1, 1, ReplicationScheme(3), r); err != nil {
		t.Fatal(err)
	}
	obj := st.Objects()[0] // on 0,1,2
	if err := st.Relocate(obj, 0, 7); err != nil {
		t.Fatal(err)
	}
	if obj.Locations[0] != 7 {
		t.Fatalf("locations = %v, want [7 1 2]", obj.Locations)
	}
	if err := st.Relocate(obj, 0, 8); err == nil {
		t.Error("relocating from a non-location succeeded")
	}
	if err := st.Relocate(obj, 1, 2); err == nil {
		t.Error("relocating onto an existing location succeeded")
	}
	if err := st.Relocate(obj, 1, 99); err == nil {
		t.Error("relocating out of range succeeded")
	}
}

func TestAddObjectsValidation(t *testing.T) {
	r := rng.New(1)
	st, err := NewStore(flatView(3), Random{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddObjects(0, 1, ReplicationScheme(3), r); err == nil {
		t.Error("count 0 accepted")
	}
	if err := st.AddObjects(1, -1, ReplicationScheme(3), r); err == nil {
		t.Error("negative size accepted")
	}
	if err := st.AddObjects(1, 1, ReplicationScheme(5), r); err == nil {
		t.Error("scheme wider than cluster accepted")
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"random", "roundrobin", "rackaware"} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := PolicyByName("bogus"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestPlacementPropertyRandomViews(t *testing.T) {
	// Property: every policy returns count distinct in-range nodes for
	// any feasible (view, count).
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nodes := 2 + r.Intn(40)
		count := 1 + r.Intn(nodes)
		view := flatView(nodes)
		for _, p := range []Policy{Random{}, RoundRobin{}} {
			locs, err := place(p, r.Intn(1000), count, &view, r)
			if err != nil {
				return false
			}
			if distinct(locs, nodes) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
