package service

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over fleet member URLs. Every member —
// workers and coordinator alike — builds the ring from the same -peers
// list, so they agree on which worker owns a key: the coordinator shards
// a sweep's design points (hashed on core.CacheKey) to their owners, and
// a worker that misses locally knows which peer to ask before
// simulating. Virtual nodes smooth the key distribution; adding or
// removing a worker moves only ~1/N of the keyspace, which is exactly
// when the cache-peering tier earns its keep.
type Ring struct {
	points ringPoints
}

type ringPoint struct {
	hash uint64
	node string
}

type ringPoints []ringPoint

func (p ringPoints) Len() int      { return len(p) }
func (p ringPoints) Swap(i, j int) { p[i], p[j] = p[j], p[i] }
func (p ringPoints) Less(i, j int) bool {
	if p[i].hash != p[j].hash {
		return p[i].hash < p[j].hash
	}
	// Ties (astronomically rare with 64-bit FNV) break on the node name
	// so construction order never matters.
	return p[i].node < p[j].node
}

// ringReplicas is the virtual-node count per member: enough that a
// 2–3 worker fleet shards a sweep evenly, cheap enough to rebuild on
// every membership change.
const ringReplicas = 64

// NewRing builds a ring over the given member URLs (duplicates are
// collapsed). An empty list yields an empty ring whose lookups return
// ok=false.
func NewRing(nodes []string) *Ring {
	seen := make(map[string]bool, len(nodes))
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		for i := 0; i < ringReplicas; i++ {
			r.points = append(r.points, ringPoint{
				hash: ringHash(n + "#" + strconv.Itoa(i)),
				node: n,
			})
		}
	}
	sort.Sort(r.points)
	return r
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Owner returns the member owning key: the first virtual node clockwise
// from the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	return r.OwnerExcluding(key, "")
}

// OwnerExcluding returns the first member clockwise from the key's hash
// whose node differs from exclude — the peer a worker asks on a local
// miss. When the worker itself owns the key, the successor is the
// natural fallback: in a re-sharded or restarted fleet it is the member
// most likely to hold the key's previous copy. ok is false when no such
// member exists (empty ring, or exclude is the only member).
func (r *Ring) OwnerExcluding(key, exclude string) (string, bool) {
	return r.OwnerSkipping(key, func(node string) bool { return node == exclude })
}

// OwnerSkipping returns the first member clockwise from the key's hash
// for which skip returns false — the failover owner of a key whose
// preferred members are down, draining or already tried. Walking the
// ring (instead of picking an arbitrary survivor) keeps reassignment
// deterministic and minimal: keys skip to their successor, exactly the
// member the cache-peering tier predicts holds the next copy. ok is
// false when every member is skipped.
func (r *Ring) OwnerSkipping(key string, skip func(node string) bool) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !skip(p.node) {
			return p.node, true
		}
	}
	return "", false
}
