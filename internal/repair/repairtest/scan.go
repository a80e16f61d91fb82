// Package repairtest holds the reference the repair manager's incremental
// availability accounting is held to, for the tests of repair and of the
// packages that run it inside a trial.
package repairtest

import (
	"repro/internal/sim"
	"repro/internal/storage"
)

// Scan is the full-rescan availability accounting the repair manager used
// before it kept counters: every object's availability re-derived from
// its locations, the time since the previous scan banked to every tenant
// that was down at it.
type Scan struct {
	prevDown []bool
	downTime []float64
	lastScan sim.Time
}

// NewScan starts the accounting at now.
func NewScan(now sim.Time) *Scan { return &Scan{lastScan: now} }

// Advance is consulted between events, with the clock already on the next
// one: it first re-reads which of the objects it knows are down in the
// state the last event left, banks the interval since the previous call to
// each of them, then takes in the objects the store has gained.
func (a *Scan) Advance(now sim.Time, st *storage.Store, down func(int) bool) {
	for i := range a.prevDown {
		a.prevDown[i] = !st.Available(st.Objects()[i], down)
	}
	dt := now - a.lastScan
	for i, obj := range st.Objects() {
		if i >= len(a.prevDown) {
			a.prevDown = append(a.prevDown, false)
			a.downTime = append(a.downTime, 0)
		}
		if a.prevDown[i] {
			a.downTime[i] += dt
		}
		a.prevDown[i] = !st.Available(obj, down)
	}
	a.lastScan = now
}

// Availabilities returns every tenant's availability over [0, now] — one
// value per object the scan has taken in, in object order — as of the last
// Advance, which is to be made at now.
func (a *Scan) Availabilities(now sim.Time) []float64 {
	out := make([]float64, len(a.downTime))
	for i, dt := range a.downTime {
		out[i] = 1
		if now > 0 {
			out[i] = 1 - dt/now
		}
	}
	return out
}
