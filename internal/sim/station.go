package sim

import (
	"fmt"
)

// Station is a multi-server FCFS service center with a variable speed
// factor. It is the building block for the per-node resource models
// (CPU, disk, NIC) in internal/workload, and the speed factor is how
// degraded hardware ("limpware", §4.5 of the paper) and repair-traffic
// interference (§3) couple into request latency: halving the speed doubles
// the remaining service requirement of every in-flight job.
type Station struct {
	sim          *Simulator
	name         string
	completeName string // name + "/complete", the label of every completion event
	servers      int
	speed        float64

	waiting []*Job
	active  map[*Job]struct{}
}

// Job is one unit of work flowing through a Station.
type Job struct {
	work      float64 // remaining service requirement at unit speed
	arrival   Time
	start     Time // service start time (valid once started)
	done      func(waited, total float64)
	complete  func() // the completion event's callback, built once per job
	event     *Event // pending completion; nil while waiting, frozen or done
	remaining float64
	lastSet   Time
}

// NewStation creates a service center with the given number of servers
// (>= 1). The initial speed factor is 1.
func NewStation(s *Simulator, name string, servers int) (*Station, error) {
	if servers < 1 {
		return nil, fmt.Errorf("sim: station %q needs >= 1 server, got %d", name, servers)
	}
	return &Station{
		sim: s, name: name, completeName: name + "/complete", servers: servers, speed: 1,
		active: make(map[*Job]struct{}),
	}, nil
}

// Submit enqueues work (service requirement at unit speed, > 0); done is
// invoked at completion with the waiting time and total sojourn time.
// done may be nil.
func (st *Station) Submit(work float64, done func(waited, total float64)) *Job {
	if work <= 0 {
		panic(fmt.Sprintf("sim: station %q received non-positive work %v", st.name, work))
	}
	j := &Job{work: work, arrival: st.sim.Now(), done: done}
	j.complete = func() { st.complete(j) }
	if len(st.active) < st.servers && st.speed > 0 {
		st.startService(j)
	} else {
		st.waiting = append(st.waiting, j)
	}
	return j
}

// startService begins serving j immediately.
func (st *Station) startService(j *Job) {
	j.start = st.sim.Now()
	j.remaining = j.work
	j.lastSet = j.start
	st.active[j] = struct{}{}
	st.scheduleCompletion(j)
}

// scheduleCompletion (re)schedules j's completion at the current speed: a
// pending completion is moved in the calendar, not cancelled and rebuilt.
func (st *Station) scheduleCompletion(j *Job) {
	switch {
	case st.speed <= 0:
		// Frozen; will be scheduled again when speed returns.
		st.sim.Cancel(j.event)
		j.event = nil
	case j.event != nil:
		j.event = st.sim.Reschedule(j.event, j.remaining/st.speed)
	default:
		j.event = st.sim.Schedule(j.remaining/st.speed, st.completeName, j.complete)
	}
}

// complete finishes j and promotes the next waiting job.
func (st *Station) complete(j *Job) {
	j.event = nil // this event: the handle is dead once it fires
	delete(st.active, j)
	if j.done != nil {
		now := st.sim.Now()
		j.done(j.start-j.arrival, now-j.arrival)
	}
	if len(st.waiting) > 0 && len(st.active) < st.servers && st.speed > 0 {
		st.startService(st.popFront())
	}
}

// popFront removes and returns the oldest waiting job.
func (st *Station) popFront() *Job {
	next := st.waiting[0]
	st.waiting[0] = nil
	st.waiting = st.waiting[1:]
	return next
}

// SetSpeed changes the station's speed factor (>= 0; 0 freezes service).
// In-flight jobs keep their accumulated progress.
func (st *Station) SetSpeed(f float64) {
	if f < 0 {
		panic(fmt.Sprintf("sim: station %q speed must be >= 0, got %v", st.name, f))
	}
	if f == st.speed {
		return
	}
	now := st.sim.Now()
	// Bank progress at the old speed, then reschedule at the new one.
	for j := range st.active {
		j.remaining -= (now - j.lastSet) * st.speed
		if j.remaining < 0 {
			j.remaining = 0
		}
		j.lastSet = now
	}
	st.speed = f
	for j := range st.active {
		st.scheduleCompletion(j)
	}
	// A thawed station can admit waiting jobs onto idle servers.
	for f > 0 && len(st.waiting) > 0 && len(st.active) < st.servers {
		st.startService(st.popFront())
	}
}

// QueueLength returns the instantaneous number of waiting jobs.
func (st *Station) QueueLength() int { return len(st.waiting) }

// InService returns the instantaneous number of jobs being served.
func (st *Station) InService() int { return len(st.active) }
