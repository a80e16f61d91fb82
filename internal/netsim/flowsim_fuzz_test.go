package netsim

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// flowRun drives a FlowSim with one program, two bytes an operation, over
// a two-rack topology whose racks each reach two core switches, so a
// failed uplink reroutes and a failed access link aborts. A flow's done and
// failed callbacks run the next few operations from inside the callback.
// At the end of every instant at which an event ran or an operation was
// made, after the solve, the flow simulator's incremental state must be
// what it stands for (checkIncremental): every rate the full rebuild's bit
// for bit, every link's list the active flows that cross it. After every
// operation run from outside, the lists must be (checkLists), and the
// rates too unless a solve is still pending.
type flowRun struct {
	t     *testing.T
	s     *sim.Simulator
	fs    *FlowSim
	topo  *Topology
	hosts []NodeID
	prog  []byte
	pc    int

	handed  []*Flow // every flow Start returned, dead ones included
	nesting int     // callbacks running
	// endCheck checks the state at the end of the instant; ending is set
	// while it is registered, and ended counts its full checks. deferred is
	// 1 + the events executed when it last found a solve pending.
	endCheck func()
	ending   bool
	ended    int
	deferred uint64
	started  int64 // Starts that returned a flow
	cancels  int64 // Cancels of a flow in flight
	// done and failed callbacks that ran
	completed, aborted int64
}

func newFlowRun(t *testing.T, prog []byte) *flowRun {
	r := &flowRun{t: t, s: sim.New(1), topo: NewTopology(), prog: prog}
	// The first byte picks the access links' latency: 0 puts activations at
	// the instant of their Start, so a link change in between is a tie.
	latency := 0.0
	if len(prog) > 0 {
		latency = [4]float64{0, 0, 0.01, 0.5}[prog[0]&3]
		r.pc = 1
	}
	cores := []NodeID{r.topo.AddNode(Switch, "core-0"), r.topo.AddNode(Switch, "core-1")}
	for rack := 0; rack < 2; rack++ {
		tor := r.topo.AddNode(Switch, "tor")
		for _, core := range cores {
			r.link(tor, core, 150, 0)
		}
		for h := 0; h < 3; h++ {
			host := r.topo.AddNode(Host, "host")
			r.hosts = append(r.hosts, host)
			r.link(host, tor, 100, latency)
		}
	}
	r.fs = NewFlowSim(r.s, r.topo)
	r.endCheck = func() {
		if r.fs.dirty {
			// The flow simulator's solve was registered after this check,
			// so it runs before the check does again, unless it never was.
			if r.deferred == r.s.Executed()+1 {
				r.t.Fatalf("pc %d, t=%v: the flow simulator is dirty, and the instant's solve did not run before its end", r.pc, r.s.Now())
			}
			r.deferred = r.s.Executed() + 1
			r.s.AtInstantEnd(r.endCheck)
			return
		}
		r.deferred = 0
		r.ending = false
		r.ended++
		r.check()
	}
	r.s.SetTracer(func(sim.Time, string) { r.checkAtEnd() })
	return r
}

// checkAtEnd has the state checked at the end of the current instant.
func (r *flowRun) checkAtEnd() {
	if !r.ending {
		r.ending = true
		r.s.AtInstantEnd(r.endCheck)
	}
}

func (r *flowRun) link(a, b NodeID, capacity, latency float64) {
	if _, err := r.topo.AddLink(a, b, capacity, latency); err != nil {
		r.t.Fatal(err)
	}
}

// callbacks returns a flow's done and failed callbacks: each runs the next
// nested operations of the program.
func (r *flowRun) callbacks(nested int) (func(*Flow), func(*Flow, error)) {
	run := func() {
		r.nesting++
		for i := 0; i < nested; i++ {
			r.op()
		}
		r.nesting--
	}
	return func(*Flow) { r.completed++; run() }, func(*Flow, error) { r.aborted++; run() }
}

// op decodes and runs one operation. The low three bits of the first byte
// pick it, the rest of that byte and the second byte are its arguments.
func (r *flowRun) op() {
	if r.pc+2 > len(r.prog) {
		return
	}
	code, extra, arg := r.prog[r.pc]&7, int(r.prog[r.pc]>>3), int(r.prog[r.pc+1])
	r.pc += 2
	if r.nesting > 0 && (code == 3 || code == 4) {
		code = 0 // no Step or RunUntil from inside a callback
	}
	links := r.topo.Links()
	switch code {
	case 0, 1: // start
		done, failed := r.callbacks(arg / 36 % 4)
		src, dst := r.hosts[arg%6], r.hosts[arg/6%6]
		if f, err := r.fs.Start(src, dst, 1+7*float64(extra), done, failed); err == nil {
			r.started++
			r.handed = append(r.handed, f)
		}
	case 2: // cancel, of a flow in flight or (a no-op) of a dead one
		if len(r.handed) > 0 {
			f := r.handed[arg%len(r.handed)]
			if r.fs.Active() > 0 && extra&1 == 0 {
				f = r.fs.flows[arg%r.fs.Active()]
			}
			before := r.fs.Active()
			r.fs.Cancel(f)
			r.cancels += int64(before - r.fs.Active())
		}
	case 3: // step
		r.s.Step()
	case 4: // run until
		r.s.RunUntil(r.s.Now() + float64(extra)/8)
	case 5, 6: // a link down or back up
		l := links[arg%len(links)]
		r.topo.SetLinkUp(l, !l.Up())
		r.fs.OnLinkChange()
	default: // a link's capacity to 0, a quarter, ..., all of it
		l := links[arg%len(links)]
		r.topo.SetCapacity(l, l.built*float64(extra%5)/4)
		r.fs.OnLinkChange()
	}
	if r.nesting == 0 {
		r.check()
		r.checkAtEnd()
	}
}

func (r *flowRun) check() {
	r.t.Helper()
	check := checkIncremental
	if r.fs.dirty {
		check = checkLists
	}
	if err := check(r.fs); err != nil {
		r.t.Fatalf("pc %d, t=%v: %v", r.pc, r.s.Now(), err)
	}
	fs := r.fs
	if accounted := r.started - r.completed - r.aborted - r.cancels; accounted != int64(fs.Active()) {
		r.t.Fatalf("pc %d: %d started, %d completed, %d aborted, %d cancelled, but %d in flight",
			r.pc, r.started, r.completed, r.aborted, r.cancels, fs.Active())
	}
}

func runFlowProgram(t *testing.T, prog []byte) {
	if len(prog) > 4096 {
		prog = prog[:4096]
	}
	r := newFlowRun(t, prog)
	for r.pc+2 <= len(r.prog) {
		r.op()
	}
	// Drain: flows on a link at capacity 0 wait for ever, with no event.
	r.s.Run()
	r.check()
	if r.ending || (r.pc > 1 && r.ended == 0) {
		t.Fatalf("%d operations ran, but %d instants were checked at their end (one pending: %v)", r.pc/2, r.ended, r.ending)
	}
	r.fs.Reset()
	r.started, r.cancels, r.completed, r.aborted = 0, 0, 0, 0
	r.check()
}

// flowSeeds are shapes the repair manager and the failure models give the
// flow simulator.
func flowSeeds() [][]byte {
	// A storm: transfers whose completions start the next ones, stepped.
	storm := []byte{0}
	for i := 0; i < 40; i++ {
		storm = append(storm, byte(i%4)<<3, byte(i*7+1+36), 3, 0, 3, 0)
	}
	// Flaps: uplinks and access links failing and returning under load,
	// with failed callbacks that start, cancel and flap again.
	flaps := []byte{1}
	for i := 0; i < 30; i++ {
		flaps = append(flaps, 0, byte(i*11+2+3*36), 5, byte(i%10), 4|3<<3, 0, 6, byte(i%10), 7|byte(i%5)<<3, byte(i*3))
	}
	// Latency phases: starts, then a link cut and restored before they
	// activate.
	phases := bytes.Repeat([]byte{0, 1, 0, 13, 5, 6, 3, 0, 6, 6, 4 | 8<<3, 0}, 20)
	phases = append([]byte{2}, phases...)
	// Throttles: capacities to zero and back, stalling and resuming flows.
	throttles := []byte{0}
	for i := 0; i < 30; i++ {
		throttles = append(throttles, 1, byte(i*5+1), 7, byte(i%10), 4|2<<3, 0, 7|4<<3, byte(i%10), 2, byte(i))
	}
	// Lone flows: transfers inside one rack, alone on their two access
	// links, activating and finishing with no other flow anywhere, then
	// beside a flow in the other rack, then beside one that shares a link
	// with them; done callbacks that start and cancel flows.
	lone := []byte{2,
		0, 1 * 6, 3, 0, 3, 0, // host 0 to host 1, activated, finished
		0, 1*6 + 2*36, 0, 3 + 4*6, 3, 0, 3, 0, // two racks, each flow alone; the first's done runs two ops:
		3, 0, // its completion: runs the next two operations nested
		0, 2 + 5*6 + 1*36, // a start across the uplinks, whose done runs one op
		2, 0, // a cancel of a flow in flight
		4 | 8<<3, 0, // run on
		8, 1 * 6, 0, 2 + 1*6, 3, 0, 3, 0, // two flows sharing host 1's access link
		4 | 31<<3, 0,
		0, 4 + 3*6 + 3*36, 3, 0, // a lone flow whose done runs three ops
		3, 0, 0, 5 + 3*6, 2, 1, 1, 0 + 2*6, 4 | 31<<3, 0,
	}
	// Many small transfers, mostly alone, stepped one event at a time.
	solos := []byte{3}
	for i := 0; i < 40; i++ {
		src := i % 6
		dst := (src + 1 + i%2) % 6
		solos = append(solos, byte(i%3)<<3, byte(src+dst*6+(i%4)*36), 3, 0, 3, byte(i))
	}
	return [][]byte{storm, flaps, phases, throttles, lone, solos, {}, {3}, {0, 0, 7}}
}

// FuzzFlowSim holds the flow simulator's per-link lists and the allocation
// computed from them at every instant's end to the full rebuild, bit for
// bit, whatever is started, cancelled, stepped, failed, restored and
// throttled, from outside or from inside done and failed callbacks.
func FuzzFlowSim(f *testing.F) {
	for _, seed := range flowSeeds() {
		f.Add(seed)
	}
	f.Fuzz(runFlowProgram)
}
