// Package storage implements the software side of the wind tunnel's
// availability story (§1, §3, §4.6 of the paper): the placement and
// availability of customer data objects protected by n-way replication or
// Reed–Solomon erasure coding (the "XORing elephants" alternative the paper
// cites as [14]). Objects are distributed across cluster nodes by pluggable
// placement policies — Random and RoundRobin as in Figure 1, plus a
// rack-aware variant — and judged available under a majority-quorum
// protocol for replicas, or while K of an rs-K-M object's shards are
// reachable. No byte is ever encoded: a scheme is its width, overhead and
// survival rule.
//
// A Store is built once and can then be populated any number of times:
// Reset empties it, in place, to the state NewStore left it in — equal to
// a freshly built store — and the next AddObjects places, with whatever
// stream it is given, into the Objects and Locations the store already
// owns. Every handle from before the Reset (*Object, ObjectsOn slices) is
// dead. Policies place into storage the caller owns and keep their
// scratch in the View, so re-placing a population allocates nothing. A
// re-population of the same shape draws locations and nothing else: an
// object's ID, size and scheme are written over the old ones in place,
// and its Locations are placed again, through the policy's Place, with
// the draws a fresh store would take.
//
// The store's node index (ObjectsOn) is written far more often than it is
// read — every finished repair relocates a shard, a node's list is read
// when that node changes state — so Relocate only appends the object to
// its new node's list and marks the two nodes; a marked node's list is
// filtered, sorted by ID and de-duplicated at the next ObjectsOn of that
// node, and of no other.
package storage

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// SchemeKind distinguishes redundancy schemes.
type SchemeKind int

const (
	// Replication keeps Replicas full copies; an object is readable while
	// a majority of copies is reachable (quorum protocol, Figure 1).
	Replication SchemeKind = iota
	// ErasureRS keeps K data + M parity shards; an object is readable
	// while at least K shards are reachable.
	ErasureRS
)

// Scheme is an object's redundancy configuration.
type Scheme struct {
	Kind     SchemeKind
	Replicas int // Replication
	K, M     int // ErasureRS
}

// ReplicationScheme returns an n-way replication scheme.
func ReplicationScheme(n int) Scheme { return Scheme{Kind: Replication, Replicas: n} }

// RSScheme returns an RS(k, m) scheme.
func RSScheme(k, m int) Scheme { return Scheme{Kind: ErasureRS, K: k, M: m} }

// Validate checks the scheme parameters.
func (s Scheme) Validate() error {
	switch s.Kind {
	case Replication:
		if s.Replicas < 1 {
			return fmt.Errorf("storage: replication needs >= 1 replica, got %d", s.Replicas)
		}
	case ErasureRS:
		if s.K < 1 || s.M < 0 {
			return fmt.Errorf("storage: RS needs k >= 1, m >= 0; got k=%d m=%d", s.K, s.M)
		}
	default:
		return fmt.Errorf("storage: unknown scheme kind %d", int(s.Kind))
	}
	return nil
}

// Width returns the number of placed shards/replicas.
func (s Scheme) Width() int {
	if s.Kind == Replication {
		return s.Replicas
	}
	return s.K + s.M
}

// Overhead returns the storage expansion factor.
func (s Scheme) Overhead() float64 {
	if s.Kind == Replication {
		return float64(s.Replicas)
	}
	return float64(s.K+s.M) / float64(s.K)
}

// MinAvailable returns the minimum number of reachable shards needed for
// the object to be readable. The replication rule follows the paper's
// Figure-1 criterion exactly: the customer cannot operate when a MAJORITY
// of replicas is unavailable, i.e. when more than half are down
// (down >= floor(n/2)+1); the object is therefore readable while
// up >= ceil(n/2). For odd n this equals the familiar majority-up quorum;
// for n=2 a single surviving replica keeps the data readable.
func (s Scheme) MinAvailable() int {
	if s.Kind == Replication {
		return (s.Replicas + 1) / 2
	}
	return s.K
}

// MinRecoverable returns the minimum number of surviving shards from
// which the object can still be reconstructed: one copy under
// replication, K shards under RS.
func (s Scheme) MinRecoverable() int {
	if s.Kind == Replication {
		return 1
	}
	return s.K
}

func (s Scheme) String() string { return string(s.Append(nil)) }

// Append appends the String form ("rep-3", "rs-6-3") to dst.
func (s Scheme) Append(dst []byte) []byte {
	if s.Kind == Replication {
		return strconv.AppendInt(append(dst, "rep-"...), int64(s.Replicas), 10)
	}
	dst = strconv.AppendInt(append(dst, "rs-"...), int64(s.K), 10)
	return strconv.AppendInt(append(dst, '-'), int64(s.M), 10)
}

// ParseScheme reads the String form back: "rep-3" or "rs-6-3". The
// scheme it returns is valid, has that String, and no count in it is
// beyond an int32, so its Width cannot overflow.
func ParseScheme(s string) (Scheme, error) {
	// A count that does not parse leaves a zero or a clamped value behind:
	// the scheme then fails Validate, or prints as something other than s.
	count := func(digits string) int {
		n, _ := strconv.ParseInt(digits, 10, 32)
		return int(n)
	}
	var sch Scheme
	if n, ok := strings.CutPrefix(s, "rep-"); ok {
		sch.Replicas = count(n)
	} else if km, ok := strings.CutPrefix(s, "rs-"); ok {
		k, m, _ := strings.Cut(km, "-")
		sch = RSScheme(count(k), count(m))
	}
	if sch.Validate() != nil || sch.String() != s {
		return Scheme{}, fmt.Errorf("storage: scheme %q is not 'rep-N' or 'rs-K-M' (N, K >= 1; M >= 0)", s)
	}
	return sch, nil
}

// Object is one customer's data item.
type Object struct {
	ID        int
	SizeMB    float64
	Scheme    Scheme
	Locations []int // node ids, len == Scheme.Width()
}

// Store tracks every object's placement and answers availability and
// durability questions against a node-state predicate.
//
// A store can be reused for any number of simulations: Reset empties it
// and the next population places into the Objects and Locations the
// store already owns.
//
// Population can be deferred. Defer checks and records a population;
// the placing itself runs at the first read of an object — Objects,
// ObjectsOn, the counting predicates, TotalStoredMB — or at Place, and a
// simulation in which nothing ever looks at an object never pays for it.
// Len answers from the recorded count without placing. Deferring only
// moves WHEN the placement draws are taken from the stream, so it gives
// the eager store, object for object, if and only if nothing else draws
// from that stream in between: hand Defer a stream the placement has to
// itself. AddObjects, for callers whose stream is shared with other
// draws, is Defer followed by Place at once.
type Store struct {
	view    View
	policy  Policy
	objects []*Object
	// pending is the population Defer recorded and nothing has placed yet
	// (count 0: none); err is what placing one failed with when a read
	// forced it, kept for Err until the next Reset.
	pending population
	err     error
	// owned counts the Objects this store has allocated: the first owned
	// entries of st.objects' backing array (past len after a Reset) each
	// point at one.
	owned int
	// byNode[n] lists the objects with a shard on node n, in ascending ID
	// order unless stale[n]. Built by the first ObjectsOn (indexed says
	// whether it has been); AddObjects appends to it; Relocate appends the
	// object to its new node's list, leaves it on the old one's and marks
	// both stale, and the next ObjectsOn of a stale node puts that one list
	// right (tidy). The lists are read at node transitions, a handful a
	// trial, and written at every finished repair, hundreds: the write is
	// O(1) and the read pays for the writes to its own node only. index is
	// the one backing array the build carves the lists from and perNode its
	// counting scratch; both are kept between builds.
	byNode  [][]*Object
	stale   []bool
	index   []*Object
	perNode []int
	indexed bool
}

// NewStore creates a store over the given view with the given policy.
func NewStore(view View, policy Policy) (*Store, error) {
	if err := view.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("storage: nil placement policy")
	}
	return &Store{view: view, policy: policy}, nil
}

// Reset empties the store, in place, to the state NewStore left it in,
// keeping what it has allocated for the next population. A deferred
// population that nothing has read yet is dropped unplaced and a placement
// error is forgotten.
//
// A reset store is equal to a freshly built one, and every handle from
// before is dead: each *Object will be handed out again, with a new
// placement, by the next population, and so will the ObjectsOn slices.
func (st *Store) Reset() {
	st.objects = st.objects[:0]
	st.indexed = false
	st.pending, st.err = population{}, nil
}

// View returns the placement view.
func (st *Store) View() View { return st.view }

// population is one Defer call's arguments, already checked.
type population struct {
	count  int
	sizeMB float64
	scheme Scheme
	r      *rng.Source
}

// AddObjects creates and places count objects of sizeMB each under scheme,
// drawing placement randomness from r. Object ids continue from the
// current population (supporting the 10,000-user setup of Figure 1).
func (st *Store) AddObjects(count int, sizeMB float64, scheme Scheme, r *rng.Source) error {
	if err := st.Defer(count, sizeMB, scheme, r); err != nil {
		return err
	}
	return st.Place()
}

// Defer is AddObjects with the placing put off until the first read of an
// object (see Store): the arguments are checked now, against the same
// rules, and r is drawn from later — it must stay valid, and untouched by
// anyone else, until then or until Reset. A population deferred earlier
// is placed first, so ids stay in call order.
func (st *Store) Defer(count int, sizeMB float64, scheme Scheme, r *rng.Source) error {
	if count < 1 {
		return fmt.Errorf("storage: AddObjects count must be >= 1, got %d", count)
	}
	if sizeMB < 0 {
		return fmt.Errorf("storage: object size must be >= 0, got %v", sizeMB)
	}
	if err := scheme.Validate(); err != nil {
		return err
	}
	if width := scheme.Width(); width > st.view.Nodes {
		return fmt.Errorf("storage: scheme %v needs %d nodes, view has %d",
			scheme, width, st.view.Nodes)
	}
	if err := st.Place(); err != nil {
		return err
	}
	st.pending = population{count, sizeMB, scheme, r}
	return nil
}

// Place places the deferred population now, if there is one. A failed
// placement keeps the objects placed before the failing one.
func (st *Store) Place() error {
	if st.pending.count == 0 {
		return nil
	}
	p := st.pending
	st.pending = population{}
	count, width := p.count, p.scheme.Width()
	base := len(st.objects)
	w := st.view.scratch()
	// Objects a Reset left behind are reused; the rest come in one block.
	st.objects = st.objects[:min(base+count, st.owned)]
	if missing := base + count - st.owned; missing > 0 {
		block := make([]Object, missing)
		for i := range block {
			st.objects = append(st.objects, &block[i])
		}
		st.owned = base + count
	}
	var locBlock []int // Locations for the objects that own none wide enough
	for i, obj := range st.objects[base:] {
		id := base + i
		if cap(obj.Locations) < width {
			if len(locBlock) == 0 {
				locBlock = make([]int, (count-i)*width)
			}
			obj.Locations, locBlock = locBlock[:width:width], locBlock[width:]
		}
		obj.Locations = obj.Locations[:width]
		obj.ID, obj.SizeMB, obj.Scheme = id, p.sizeMB, p.scheme
		err := st.policy.Place(obj.Locations, id, &st.view, p.r)
		if err != nil {
			err = fmt.Errorf("storage: placing object %d: %w", id, err)
		} else if err = w.distinct(st.view.Nodes, obj.Locations); err != nil {
			err = fmt.Errorf("storage: policy %s for object %d: %w", st.policy.Name(), id, err)
		}
		if err != nil {
			st.objects = st.objects[:id]
			return err
		}
		if st.indexed {
			for _, n := range obj.Locations {
				st.byNode[n] = append(st.byNode[n], obj)
			}
		}
	}
	return nil
}

// Err returns the error that a placement forced by a read has failed
// with since the last Reset — a store that reads as short, not as the
// population it was told of. It places nothing.
func (st *Store) Err() error { return st.err }

// placed returns the objects, placing a deferred population first: every
// read of st.objects outside Place goes through it.
func (st *Store) placed() []*Object {
	// A read has nowhere to return a failure: Err reports the first.
	if err := st.Place(); err != nil && st.err == nil {
		st.err = err
	}
	return st.objects
}

// Objects returns all objects.
func (st *Store) Objects() []*Object { return st.placed() }

// Len returns the object count, a deferred population's included.
func (st *Store) Len() int { return len(st.objects) + st.pending.count }

// Available reports whether obj is readable given down(node) telling which
// nodes are unreachable.
func (st *Store) Available(obj *Object, down func(int) bool) bool {
	up := 0
	for _, n := range obj.Locations {
		if !down(n) {
			up++
		}
	}
	return up >= obj.Scheme.MinAvailable()
}

// UnavailableCount returns how many objects are unreadable under down.
func (st *Store) UnavailableCount(down func(int) bool) int {
	count := 0
	for _, o := range st.placed() {
		if !st.Available(o, down) {
			count++
		}
	}
	return count
}

// AnyUnavailable reports whether at least one object is unreadable under
// down — the Figure-1 event ("at least one customer's data becomes
// unavailable").
func (st *Store) AnyUnavailable(down func(int) bool) bool {
	for _, o := range st.placed() {
		if !st.Available(o, down) {
			return true
		}
	}
	return false
}

// LostCount returns how many objects currently have zero recoverable
// copies under down — the §1 notion of unavailability ("the system has
// zero up-to-date copies of the data"). Unlike Lost-driven permanent
// accounting, this is a transient predicate: objects recover when their
// nodes return.
func (st *Store) LostCount(down func(int) bool) int {
	count := 0
	for _, o := range st.placed() {
		if st.Lost(o, down) {
			count++
		}
	}
	return count
}

// Lost reports whether obj is unrecoverable under down (fewer surviving
// shards than the reconstruction minimum — for replication, zero copies).
func (st *Store) Lost(obj *Object, down func(int) bool) bool {
	up := 0
	for _, n := range obj.Locations {
		if !down(n) {
			up++
		}
	}
	return up < obj.Scheme.MinRecoverable()
}

// ObjectsOn returns the objects having a shard/replica on node n, in
// ascending ID order. The slice is the store's own index: it must not be
// modified and is valid only until the next Relocate or AddObjects.
func (st *Store) ObjectsOn(n int) []*Object {
	st.placed()
	if !st.indexed {
		st.buildIndex()
	}
	if st.stale[n] {
		st.tidy(n)
	}
	return st.byNode[n]
}

// tidy puts node n's list right after the Relocates that touched it: the
// objects that moved away are dropped, the arrivals sorted in, and an
// object that left and came back is listed once. It costs O(list · log
// list) of that node's list, whatever the store holds elsewhere.
func (st *Store) tidy(n int) {
	list := st.byNode[n][:0]
	for _, o := range st.byNode[n] {
		if slices.Contains(o.Locations, n) {
			list = append(list, o)
		}
	}
	slices.SortFunc(list, func(a, b *Object) int { return a.ID - b.ID })
	st.byNode[n] = slices.Compact(list)
	st.stale[n] = false
}

// buildIndex fills byNode from the current placements. Every node's list
// is carved out of one backing array with the same room to grow by before
// an append has to move it to storage of its own: the shards a repair
// storm relocates onto one node between two reads of it are a fraction of
// what a node holds. The room depends on the population's shape only, not
// on how the shards fall, so a store re-populated with the same shape
// never allocates here.
func (st *Store) buildIndex() {
	st.indexed = true
	if st.byNode == nil {
		st.byNode = make([][]*Object, st.view.Nodes)
		st.stale = make([]bool, st.view.Nodes)
		st.perNode = make([]int, st.view.Nodes)
	}
	clear(st.stale)
	clear(st.perNode)
	shards := 0
	for _, o := range st.objects {
		for _, loc := range o.Locations {
			st.perNode[loc]++
		}
		shards += len(o.Locations)
	}
	room := shards/(2*len(st.perNode)) + 8
	if need := shards + room*len(st.perNode); cap(st.index) < need {
		st.index = make([]*Object, need)
	}
	// Each list is carved at its final length, and perNode turns into the
	// position its next entry is written at.
	start := 0
	for node, c := range st.perNode {
		st.byNode[node] = st.index[start : start+c : start+c+room]
		st.perNode[node] = start
		start += c + room
	}
	for _, o := range st.objects {
		for _, loc := range o.Locations {
			st.index[st.perNode[loc]] = o
			st.perNode[loc]++
		}
	}
}

// Relocate moves obj's shard from node `from` to node `to` (repair
// completion), in O(1) beyond the scan of obj's own Locations: the node
// index is put right by the next ObjectsOn of either node. It returns an
// error if from is not a location or to already holds a shard.
func (st *Store) Relocate(obj *Object, from, to int) error {
	if to < 0 || to >= st.view.Nodes {
		return fmt.Errorf("storage: relocate target %d out of range", to)
	}
	fromIdx := -1
	for i, l := range obj.Locations {
		if l == from {
			fromIdx = i
		}
		if l == to {
			return fmt.Errorf("storage: node %d already holds a shard of object %d", to, obj.ID)
		}
	}
	if fromIdx < 0 {
		return fmt.Errorf("storage: node %d holds no shard of object %d", from, obj.ID)
	}
	obj.Locations[fromIdx] = to
	if st.indexed {
		st.byNode[to] = append(st.byNode[to], obj)
		st.stale[from], st.stale[to] = true, true
	}
	return nil
}
