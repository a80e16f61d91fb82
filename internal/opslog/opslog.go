// Package opslog implements the operational-log pipeline of §4.4/§4.5 of
// the paper: hardware event logs are parsed, per-component inter-failure
// and repair durations are extracted, and distributions are fitted to
// seed data-driven simulator models ("transformation algorithms that
// convert log data into meaningful models ... must be developed").
//
// Real cluster logs (Schroeder & Gibson's datasets) are not distributable,
// so the package also contains a synthetic log generator that draws from
// configurable ground-truth distributions — the fitting/validation code
// path is identical for real logs.
package opslog

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dist"
	"repro/internal/rng"
)

// EventKind is the log event type.
type EventKind string

const (
	EventFail   EventKind = "FAIL"
	EventRepair EventKind = "REPAIR"
)

// Event is one log line: at Time (hours since epoch), Component (e.g.
// "disk-17") experienced Kind.
type Event struct {
	Time      float64
	Component string
	Kind      EventKind
}

// WriteLog writes events in the canonical CSV-like format:
// time,component,kind — one per line.
func WriteLog(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		if _, err := fmt.Fprintf(bw, "%.6f,%s,%s\n", e.Time, e.Component, e.Kind); err != nil {
			return fmt.Errorf("opslog: write: %w", err)
		}
	}
	return bw.Flush()
}

// ParseLog reads events in the canonical format, rejecting malformed
// lines with a line-numbered error. Blank lines and lines starting with
// '#' are skipped.
func ParseLog(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("opslog: line %d: want 3 fields, got %d", lineNo, len(parts))
		}
		t, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("opslog: line %d: bad timestamp %q", lineNo, parts[0])
		}
		kind := EventKind(strings.TrimSpace(parts[2]))
		if kind != EventFail && kind != EventRepair {
			return nil, fmt.Errorf("opslog: line %d: unknown event kind %q", lineNo, parts[2])
		}
		comp := strings.TrimSpace(parts[1])
		if comp == "" {
			return nil, fmt.Errorf("opslog: line %d: empty component", lineNo)
		}
		events = append(events, Event{Time: t, Component: comp, Kind: kind})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("opslog: scan: %w", err)
	}
	return events, nil
}

// GeneratorConfig drives the synthetic log generator.
type GeneratorConfig struct {
	Components int       // number of components to simulate
	Horizon    float64   // hours of log to generate
	TTF        dist.Dist // ground-truth time-to-failure
	Repair     dist.Dist // ground-truth repair duration
	Seed       uint64
}

// Generate produces a synthetic operational log: each component cycles
// healthy --TTF--> FAIL --Repair--> REPAIR ... until the horizon. Events
// are returned in time order.
func Generate(cfg GeneratorConfig) ([]Event, error) {
	if cfg.Components < 1 {
		return nil, fmt.Errorf("opslog: need >= 1 component, got %d", cfg.Components)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("opslog: horizon must be positive, got %v", cfg.Horizon)
	}
	if cfg.TTF == nil || cfg.Repair == nil {
		return nil, fmt.Errorf("opslog: generator needs TTF and Repair distributions")
	}
	var events []Event
	for c := 0; c < cfg.Components; c++ {
		r := rng.New(cfg.Seed ^ (uint64(c)*0x9e3779b97f4a7c15 + 1))
		name := fmt.Sprintf("disk-%d", c)
		t := 0.0
		for {
			t += cfg.TTF.Sample(r)
			if t > cfg.Horizon {
				break
			}
			events = append(events, Event{Time: t, Component: name, Kind: EventFail})
			rep := cfg.Repair.Sample(r)
			t += rep
			if t > cfg.Horizon {
				break
			}
			events = append(events, Event{Time: t, Component: name, Kind: EventRepair})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	return events, nil
}

// Durations extracted from a log.
type Durations struct {
	TimeBetweenFailures []float64 // per component: gaps between repair and next fail (or start and first fail)
	RepairDurations     []float64 // fail -> repair gaps
}

// Extract computes inter-failure and repair durations per component.
// Unmatched trailing FAILs (still down at log end) are ignored.
func Extract(events []Event) (Durations, error) {
	type state struct {
		lastUp   float64 // when the component last became healthy
		downAt   float64
		isDown   bool
		sawEvent bool
	}
	states := map[string]*state{}
	var d Durations
	lastTime := -1.0
	for i, e := range events {
		if e.Time < lastTime {
			return Durations{}, fmt.Errorf("opslog: event %d out of time order", i)
		}
		lastTime = e.Time
		st := states[e.Component]
		if st == nil {
			st = &state{}
			states[e.Component] = st
		}
		switch e.Kind {
		case EventFail:
			if st.isDown {
				return Durations{}, fmt.Errorf("opslog: component %s failed twice without repair", e.Component)
			}
			d.TimeBetweenFailures = append(d.TimeBetweenFailures, e.Time-st.lastUp)
			st.isDown = true
			st.downAt = e.Time
		case EventRepair:
			if !st.isDown {
				return Durations{}, fmt.Errorf("opslog: component %s repaired while healthy", e.Component)
			}
			d.RepairDurations = append(d.RepairDurations, e.Time-st.downAt)
			st.isDown = false
			st.lastUp = e.Time
		}
		st.sawEvent = true
	}
	return d, nil
}

// ModelReport is the outcome of fitting a duration sample.
type ModelReport struct {
	Quantity string // "ttf" or "repair"
	N        int
	Best     dist.FitResult
	All      []dist.FitResult
}

// FitModels runs the full pipeline: extract durations and fit every
// candidate family to both quantities, returning the best fits.
func FitModels(events []Event) (ttf, repair ModelReport, err error) {
	d, err := Extract(events)
	if err != nil {
		return ModelReport{}, ModelReport{}, err
	}
	if len(d.TimeBetweenFailures) < 10 || len(d.RepairDurations) < 10 {
		return ModelReport{}, ModelReport{}, fmt.Errorf(
			"opslog: need >= 10 observations of each quantity, got %d TTF / %d repair",
			len(d.TimeBetweenFailures), len(d.RepairDurations))
	}
	ttfFits := dist.FitBest(d.TimeBetweenFailures)
	repFits := dist.FitBest(d.RepairDurations)
	return ModelReport{Quantity: "ttf", N: len(d.TimeBetweenFailures), Best: ttfFits[0], All: ttfFits},
		ModelReport{Quantity: "repair", N: len(d.RepairDurations), Best: repFits[0], All: repFits},
		nil
}
