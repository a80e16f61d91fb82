package core

import (
	"crypto/sha256"
	"slices"
	"sync"
)

// worldKey is the content address of what a trial world is built from: a
// point's CacheKey encoding without seed, runner.trials and
// runner.target_ci (walkKeys derives both in one walk). Name and Workers
// are already outside CacheKey. Two points with one worldKey differ only
// in what a trial resets or never reads, so each can run on the other's
// world.
type worldKey [sha256.Size]byte

// worldBudget bounds the bytes the idle worlds of the process hold, by
// worldBytes' estimate: 52 worlds of a 120-node, 1 000-tenant,
// replication-3 sweep_quiet point (1.29 MB each by the estimate, 0.43 MB
// on the heap), 150 of a 15-node, 300-tenant, replication-5 sweep_repair
// point (0.44 MB by the estimate, 0.42 MB on the heap after 256 trials),
// or one world of 10 000 nodes.
const worldBudget = 64 << 20

// worlds is the process's pool of idle trial worlds.
var worlds = newWorldPool(worldBudget)

// worldPool keeps built trial worlds between runs, keyed by worldKey, so
// that a process asked about the same data centre again — another seed,
// another trial count, an overlapping sweep — resets a world instead of
// building one. A run takes a world per worker and gives it back when its
// point ends. Idle worlds are bounded by budget bytes, by worldBytes'
// estimate, and the least recently given back go first; a world bigger
// than the whole budget is never kept. Safe for concurrent use.
type worldPool struct {
	mu     sync.Mutex
	budget int64
	bytes  int64         // held by the idle worlds
	idle   []*trialWorld // in the order they were given back, the oldest first
}

func newWorldPool(budget int64) *worldPool {
	return &worldPool{budget: budget}
}

// take returns an idle world of key k, ready for a run of r on sc, or a
// new unbuilt one when there is none. The budget holds at most about
// 2 500 of the smallest worlds, so a scan costs microseconds at worst
// against the milliseconds of a point's run.
func (p *worldPool) take(k worldKey, r Runner, sc Scenario) *trialWorld {
	p.mu.Lock()
	i := len(p.idle) - 1
	for i >= 0 && p.idle[i].key != k {
		i--
	}
	if i < 0 {
		p.mu.Unlock()
		return newWorld(k, r, sc)
	}
	w := p.idle[i]
	p.remove(i)
	p.mu.Unlock()
	// The key covers everything else the world was built from. Its first
	// population went in without error, so every later one will: whether a
	// population can be placed depends on the view, scheme and policy only.
	w.sc.Seed, w.sc.Name = sc.Seed, sc.Name
	return w
}

// give returns a world at the end of its run. A world that was never
// built, or whose trial failed with anything but its run's cancellation,
// is dropped.
func (p *worldPool) give(w *trialWorld) {
	if w.sim == nil || w.failed {
		return
	}
	size := worldBytes(&w.sc)
	if size > p.budget {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle = append(p.idle, w)
	p.bytes += size
	for p.bytes > p.budget {
		p.remove(0)
	}
}

// remove takes the i-th idle world out of the pool. p.mu is held.
func (p *worldPool) remove(i int) {
	p.bytes -= worldBytes(&p.idle[i].sc)
	p.idle = slices.Delete(p.idle, i, i+1)
}

// worldBytes estimates the heap a built world of sc holds once it has run
// trials, from its shape alone: a fixed part, each node (its links and
// flow state), each disk, each tenant object with its shards (placement,
// index, repair bookkeeping), and each disk and NIC's lifecycle when
// component failures are on. The weights are rounded up from heap
// measurements of quiet, repair-storm and 10 000-node worlds: the worlds
// measured hold from about 0.4 to 0.95 of their estimate (EXPERIMENTS.md
// E37), and TestWorldBytesCoversHeap holds them to at most 5/4. A storm
// world's heap keeps growing for hundreds of trials, to about 200 bytes a
// shard after 256 (E49), so a shard weighs 192 bytes, not the 96 that
// eight trials showed.
func worldBytes(sc *Scenario) int64 {
	nodes := int64(sc.Cluster.Racks) * int64(sc.Cluster.NodesPerRack)
	disks := nodes * int64(sc.Cluster.DisksPerNode)
	shards := int64(sc.Users) * int64(sc.Scheme.Width())
	bytes := 24<<10 + nodes*2048 + disks*384 + int64(sc.Users)*256 + shards*192
	if sc.Cluster.ComponentFailures {
		bytes += (disks + nodes) * 640
	}
	return bytes
}
