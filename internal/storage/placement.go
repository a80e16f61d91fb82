package storage

import (
	"fmt"

	"repro/internal/rng"
)

// View is the placement-relevant summary of a cluster: how many nodes and
// which rack each lives in. A view must not be modified once it has been
// placed over: the first placement groups its nodes by rack and later
// ones reuse the grouping.
type View struct {
	Nodes  int
	RackOf []int // len Nodes; nil means a single flat rack

	// work is built by the first placement over the view and shared by
	// the view's copies, so that placing an object allocates nothing.
	work *viewWork
}

// viewWork is a view's derived grouping plus the scratch its placements
// share. A view, like a Store, serves one goroutine.
type viewWork struct {
	byRack   [][]int  // node ids of each rack, ascending; nil for a flat view
	order    []int    // RackAware: the rack permutation of the current object
	identity []int    // identity[i] == i, for rng.SampleInto
	stamp    []uint64 // stamp[n] == epoch: node n is in the current set
	epoch    uint64
}

// scratch returns the view's work area, building it on first use. Every
// Random.Place calls it, so the built case is small enough to inline.
func (v *View) scratch() *viewWork {
	if v.work == nil {
		v.work = v.build()
	}
	return v.work
}

func (v *View) build() *viewWork {
	w := &viewWork{identity: make([]int, v.Nodes), stamp: make([]uint64, v.Nodes)}
	for i := range w.identity {
		w.identity[i] = i
	}
	if v.RackOf != nil {
		racks := v.Racks()
		sizes := make([]int, racks)
		for _, rk := range v.RackOf {
			sizes[rk]++
		}
		// One backing array, carved by rack.
		backing := make([]int, 0, v.Nodes)
		w.byRack = make([][]int, racks)
		for rk, size := range sizes {
			w.byRack[rk] = backing[len(backing) : len(backing) : len(backing)+size]
			backing = backing[:len(backing)+size]
		}
		for n, rk := range v.RackOf {
			w.byRack[rk] = append(w.byRack[rk], n)
		}
		w.order = make([]int, racks)
	}
	return w
}

// newSet empties the node set that add fills.
func (w *viewWork) newSet() { w.epoch++ }

// add puts node n into the current set and reports whether it was new.
func (w *viewWork) add(n int) bool {
	if w.stamp[n] == w.epoch {
		return false
	}
	w.stamp[n] = w.epoch
	return true
}

// distinct checks that locs are in-range, pairwise different node ids of
// a view of nodes nodes.
func (w *viewWork) distinct(nodes int, locs []int) error {
	w.newSet()
	for _, l := range locs {
		if l < 0 || l >= nodes {
			return fmt.Errorf("node %d out of range", l)
		}
		if !w.add(l) {
			return fmt.Errorf("duplicate node %d in placement", l)
		}
	}
	return nil
}

// Validate checks internal consistency.
func (v View) Validate() error {
	if v.Nodes < 1 {
		return fmt.Errorf("storage: view needs >= 1 node, got %d", v.Nodes)
	}
	if v.RackOf != nil && len(v.RackOf) != v.Nodes {
		return fmt.Errorf("storage: RackOf has %d entries for %d nodes", len(v.RackOf), v.Nodes)
	}
	return nil
}

// Racks returns the number of distinct racks (1 when flat).
func (v View) Racks() int {
	if v.RackOf == nil {
		return 1
	}
	max := 0
	for _, r := range v.RackOf {
		if r > max {
			max = r
		}
	}
	return max + 1
}

// Policy decides which nodes hold an object's shards/replicas. Placements
// must consist of distinct nodes.
type Policy interface {
	// Name identifies the policy ("random", "roundrobin", ...).
	Name() string
	// Place fills dst, which the caller owns, with len(dst) distinct node
	// ids for the object.
	Place(dst []int, objectID int, view *View, r *rng.Source) error
}

// Random places each object's replicas on a uniformly random set of
// distinct nodes — the "R" policy of Figure 1.
type Random struct{}

func (Random) Name() string { return "random" }

func (Random) Place(dst []int, _ int, view *View, r *rng.Source) error {
	if err := checkCount(len(dst), view); err != nil {
		return err
	}
	r.SampleInto(dst, view.Nodes, view.scratch().identity)
	return nil
}

// RoundRobin places object i's replicas on nodes i, i+1, ..., i+count-1
// (mod N) — the "RR" policy of Figure 1.
type RoundRobin struct{}

func (RoundRobin) Name() string { return "roundrobin" }

func (RoundRobin) Place(dst []int, objectID int, view *View, _ *rng.Source) error {
	if err := checkCount(len(dst), view); err != nil {
		return err
	}
	for j := range dst {
		dst[j] = (objectID + j) % view.Nodes
	}
	return nil
}

// RackAware places replicas on distinct racks when possible (the policy
// real systems use to survive correlated ToR/rack failures, §2.1): racks
// are chosen uniformly without replacement, then a random node within
// each; when count exceeds the rack count it wraps around.
type RackAware struct{}

func (RackAware) Name() string { return "rackaware" }

func (RackAware) Place(dst []int, objectID int, view *View, r *rng.Source) error {
	if err := checkCount(len(dst), view); err != nil {
		return err
	}
	if view.RackOf == nil {
		return Random{}.Place(dst, objectID, view, r)
	}
	w := view.scratch()
	w.newSet()
	r.PermInto(w.order)
	placed := 0
	for placed < len(dst) {
		progressed := false
		for _, rk := range w.order {
			if placed == len(dst) {
				break
			}
			nodes := w.byRack[rk]
			// Pick an unchosen node in this rack, if any.
			start := r.Intn(len(nodes))
			for i := range nodes {
				if n := nodes[(start+i)%len(nodes)]; w.add(n) {
					dst[placed] = n
					placed++
					progressed = true
					break
				}
			}
		}
		if !progressed {
			return fmt.Errorf("storage: rack-aware placement could not find %d distinct nodes", len(dst))
		}
	}
	return nil
}

// CopySet restricts placements to a small set of precomputed replica
// groups (Cidon et al.'s copysets), trading a higher per-group loss
// probability for far fewer distinct groups — the classic illustration
// that placement policy interacts with availability (§4.6). Scatter
// controls how many permutations are used (>= 1).
type CopySet struct {
	GroupSize int
	Scatter   int

	sets    [][]int
	forView int // view size the sets were built for
}

// NewCopySet builds a copyset policy for groups of size groupSize using
// `scatter` random permutations.
func NewCopySet(groupSize, scatter int) (*CopySet, error) {
	if groupSize < 1 {
		return nil, fmt.Errorf("storage: copyset group size must be >= 1, got %d", groupSize)
	}
	if scatter < 1 {
		return nil, fmt.Errorf("storage: copyset scatter must be >= 1, got %d", scatter)
	}
	return &CopySet{GroupSize: groupSize, Scatter: scatter}, nil
}

func (c *CopySet) Name() string { return "copyset" }

// Reset forgets the groups, which were drawn from an earlier population's
// stream: the next placement draws its own, as a new policy's first does.
// Store.Reset calls it.
func (c *CopySet) Reset() { c.sets = nil }

func (c *CopySet) Place(dst []int, objectID int, view *View, r *rng.Source) error {
	if err := checkCount(len(dst), view); err != nil {
		return err
	}
	if len(dst) != c.GroupSize {
		return fmt.Errorf("storage: copyset built for group size %d, asked for %d", c.GroupSize, len(dst))
	}
	if c.sets == nil || c.forView != view.Nodes {
		c.build(view.Nodes, r)
	}
	copy(dst, c.sets[r.Intn(len(c.sets))])
	return nil
}

// build partitions `scatter` random permutations into groups.
func (c *CopySet) build(nodes int, r *rng.Source) {
	c.sets = nil
	c.forView = nodes
	for s := 0; s < c.Scatter; s++ {
		perm := r.Perm(nodes)
		for i := 0; i+c.GroupSize <= nodes; i += c.GroupSize {
			group := make([]int, c.GroupSize)
			copy(group, perm[i:i+c.GroupSize])
			c.sets = append(c.sets, group)
		}
	}
	if len(c.sets) == 0 {
		// Fewer nodes than the group size is rejected by checkCount
		// before build; guard anyway.
		c.sets = [][]int{{0}}
	}
}

// checkCount reports whether count distinct nodes can be chosen from a
// valid view. Every Place calls it for every object, so a passing count
// costs three compares; countError works out which check failed.
func checkCount(count int, view *View) error {
	if count >= 1 && count <= view.Nodes && (view.RackOf == nil || len(view.RackOf) == view.Nodes) {
		return nil
	}
	return countError(count, view)
}

func countError(count int, view *View) error {
	if err := view.Validate(); err != nil {
		return err
	}
	return fmt.Errorf("storage: placement count %d outside [1, %d]", count, view.Nodes)
}

// PolicyByName returns a fresh policy instance for the given name.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "random":
		return Random{}, nil
	case "roundrobin":
		return RoundRobin{}, nil
	case "rackaware":
		return RackAware{}, nil
	default:
		return nil, fmt.Errorf("storage: unknown placement policy %q", name)
	}
}
