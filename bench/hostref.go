package main

import (
	"container/heap"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Host-speed reference.
//
// The benchmark runs on a few virtual cores of a shared machine, and on
// such a host identical work reads up to 1.5x apart from one minute to
// the next. Measured at commit b99cddd on 2 vCPUs: 45 runs of
// sweep_repair with one seed had medians from 653 to 985 ms while the
// process's own CPU time rose in step (so the cores were never taken
// away, they ran slower), page faults and collections per sweep stayed
// the same, a serial chain of dependent integer operations kept its
// speed to 2 %, and every loop with instruction-level parallelism (map
// updates, streaming sums, allocation) slowed by 1.5 to 2x for seconds
// to minutes at a time. That is a neighbour running on the other
// hardware thread of the same physical core, taking issue slots and the
// private caches, and no statistic over a 20 s window removes it,
// because whole windows fall into it.
//
// So beside every timed interval the benchmark times fixed work of its
// own — the reference kernels below: standard library only, no code of
// the program under test, the same on every commit — on every core at
// once, and divides the interval's time by how much slower than nominal
// the reference ran around it. The result is the time the interval would
// have taken on the quiet host the nominal times were measured on. On
// recorded runs of the four workloads that brought the spread of ten
// consecutive run medians (quartile distance over median) from 19-39 %
// at worst to 6-6.5 %. README.md has the measurements and how the
// kernels were picked.

// refState is one core's working set for the reference kernels, about
// 160 KB, so that it lives in the core's private cache as the
// simulator's trial state does.
type refState struct {
	queue eventQueue
	a, b  []float64
	sink  float64
}

func newRefState() *refState {
	r := &refState{
		queue: make(eventQueue, 0, 4096),
		a:     make([]float64, 8<<10),
		b:     make([]float64, 8<<10),
	}
	x := xorshift(88172645463325252)
	for i := range r.a {
		r.a[i] = float64(x.next()%1000) / 3
		r.b[i] = float64(x.next()%1000) / 5
	}
	return r
}

type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// eventQueue is a container/heap of event times.
type eventQueue []float64

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i] < q[j] }
func (q eventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)        { *q = append(*q, x.(float64)) }
func (q *eventQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// events holds 2048 pending events and executes 30 000: pop the
// earliest, schedule its successor.
func (r *refState) events() {
	q := r.queue[:0]
	x := xorshift(1234567)
	for i := 0; i < 2048; i++ {
		heap.Push(&q, float64(x.next()%100_000))
	}
	now := 0.0
	for i := 0; i < 30_000; i++ {
		now = heap.Pop(&q).(float64)
		heap.Push(&q, now+float64(x.next()%100_000))
	}
	r.sink += now
}

// churn builds and drops 600 small maps of slices, about 5 MB of
// short-lived objects.
func (r *refState) churn() {
	for i := 0; i < 600; i++ {
		m := make(map[int][]float64, 16)
		for k := 0; k < 64; k++ {
			m[k] = append(m[k], float64(k), float64(i))
		}
		keys := make([]int, 0, 8)
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		r.sink += float64(keys[0])
	}
}

// dot takes 500 dot products of two 8192-element vectors.
func (r *refState) dot() {
	for rep := 0; rep < 500; rep++ {
		var s0, s1, s2, s3 float64
		a, b := r.a, r.b
		for i := 0; i+3 < len(a); i += 4 {
			s0 += a[i] * b[i]
			s1 += a[i+1] * b[i+1]
			s2 += a[i+2] * b[i+2]
			s3 += a[i+3] * b[i+3]
		}
		r.sink += s0 + s1 + s2 + s3
	}
}

// refKernels are the reference kernels with their nominal times: what
// each took, on every core at once, in the quietest tenth of 1300
// samples on the host described above (Xeon at 2.1 GHz, go1.24). The
// nominal times only fix the unit — a host where they are all off by
// the same factor reads every time scaled by it — so they are constants,
// not something a run calibrates.
var refKernels = []struct {
	run       func(*refState)
	nominalMS float64
}{
	{(*refState).events, 4.824},
	{(*refState).churn, 6.773},
	{(*refState).dot, 1.585},
}

// hostRef samples the host's speed.
type hostRef struct {
	states    []*refState // one per core
	allocated uint64      // bytes the samples themselves allocated
	factors   []float64   // every sample taken
	last      float64     // the latest sample
}

func newHostRef(procs int) *hostRef {
	h := &hostRef{}
	for i := 0; i < procs; i++ {
		h.states = append(h.states, newRefState())
	}
	h.sample() // fault the working sets in
	h.factors = nil
	return h
}

// sample runs every reference kernel on every core at once, about 13 ms,
// and returns how many times slower than nominal they ran: 1 on a quiet
// host; medians of a whole run's samples up to 2.06 were seen.
func (h *hostRef) sample() float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	factor := 0.0
	took := make([]time.Duration, len(h.states))
	for _, k := range refKernels {
		var wg sync.WaitGroup
		for i, st := range h.states {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				k.run(st)
				took[i] = time.Since(t0)
			}()
		}
		wg.Wait()
		total := time.Duration(0)
		for _, d := range took {
			total += d
		}
		factor += ms(total) / float64(len(took)) / k.nominalMS
	}
	factor /= float64(len(refKernels))
	runtime.ReadMemStats(&after)
	h.allocated += after.TotalAlloc - before.TotalAlloc
	h.factors = append(h.factors, factor)
	return factor
}

// allocatedElsewhere is what the process has allocated so far, the
// samples' own allocations left out.
func (h *hostRef) allocatedElsewhere() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc - h.allocated
}

// begin takes the sample before the first of a series of back-to-back
// timed intervals.
func (h *hostRef) begin() { h.last = h.sample() }

// slowdown takes the sample after a timed interval and returns the
// factor to divide the interval's time by: the mean of the samples just
// before and just after it. The sample also opens the next interval.
func (h *hostRef) slowdown() float64 {
	before := h.last
	h.last = h.sample()
	return (before + h.last) / 2
}
