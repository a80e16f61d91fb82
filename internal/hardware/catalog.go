package hardware

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dist"
)

// Catalog is a named collection of component specs — the menu the
// provisioning use case (§3: "should I invest in storage or memory?")
// sweeps over.
type Catalog struct {
	specs  map[string]Spec
	shared bool // SharedCatalog's: Add refuses, so any goroutine may read it
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{specs: make(map[string]Spec)}
}

// Add registers a spec, rejecting duplicates and invalid specs.
func (c *Catalog) Add(sp Spec) error {
	if c.shared {
		return fmt.Errorf("hardware: the shared catalog is read-only; build one with DefaultCatalog to add %q", sp.Name)
	}
	if err := sp.Validate(); err != nil {
		return err
	}
	if _, dup := c.specs[sp.Name]; dup {
		return fmt.Errorf("hardware: duplicate spec %q", sp.Name)
	}
	c.specs[sp.Name] = sp
	return nil
}

// Get returns the spec registered under name.
func (c *Catalog) Get(name string) (Spec, error) {
	sp, ok := c.specs[name]
	if !ok {
		return Spec{}, fmt.Errorf("hardware: unknown spec %q", name)
	}
	return sp, nil
}

// Names returns all registered spec names, sorted.
func (c *Catalog) Names() []string {
	names := make([]string, 0, len(c.specs))
	for n := range c.specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// OfKind returns the names of specs of the given kind, sorted.
func (c *Catalog) OfKind(k Kind) []string {
	var names []string
	for n, sp := range c.specs {
		if sp.Kind == k {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Hours in common periods, used to parameterize failure distributions.
const (
	HoursPerYear = 8766.0
)

// weibullFromAFRShape returns a Weibull TTF whose annualized failure
// probability matches afr at the given shape: P(TTF <= 1yr) = afr.
func weibullFromAFRShape(afr, shape float64) dist.Dist {
	// CDF(t) = 1 - exp(-(t/scale)^shape) = afr at t = 1 year.
	// scale = t / (-ln(1-afr))^(1/shape).
	w := dist.Must(dist.NewWeibull(shape, 1))
	scale := HoursPerYear / w.Quantile(afr)
	return dist.Must(dist.NewWeibull(shape, scale))
}

// DefaultCatalog returns the built-in spec menu. Failure parameters follow
// the shapes of the field studies the paper cites: disks use Weibull TTF
// with shape 0.7 calibrated to published annualized failure rates (2-4%
// observed vs. 0.88% datasheet, Schroeder & Gibson); repairs are LogNormal
// with a multi-hour median. Prices and speeds are 2014-era list values —
// the wind tunnel compares configurations, so only ratios matter.
//
// Every call builds a new catalog (eighteen specs, each with fitted
// failure and repair distributions) that the caller owns and may Add to.
// Code that only looks specs up uses SharedCatalog.
func DefaultCatalog() *Catalog {
	c := NewCatalog()
	lnRepair := func(meanHours, cv float64) dist.Dist {
		return dist.Must(dist.LogNormalFromMoments(meanHours, cv))
	}
	specs := []Spec{
		{
			Name: "hdd-7200", Kind: KindDisk,
			CapacityGB: 2000, ThroughputMBps: 150, IOPS: 120,
			CostUSD: 100, PowerWatts: 8,
			TTF:    weibullFromAFRShape(0.03, 0.7),
			Repair: lnRepair(12, 1.2),
		},
		{
			Name: "hdd-15k", Kind: KindDisk,
			CapacityGB: 600, ThroughputMBps: 250, IOPS: 210,
			CostUSD: 180, PowerWatts: 11,
			TTF:    weibullFromAFRShape(0.025, 0.7),
			Repair: lnRepair(12, 1.2),
		},
		{
			Name: "ssd-sata", Kind: KindDisk,
			CapacityGB: 480, ThroughputMBps: 500, IOPS: 75000,
			CostUSD: 350, PowerWatts: 4,
			TTF:    weibullFromAFRShape(0.015, 0.9),
			Repair: lnRepair(8, 1.0),
		},
		{
			Name: "ssd-nvme", Kind: KindDisk,
			CapacityGB: 800, ThroughputMBps: 2000, IOPS: 400000,
			CostUSD: 900, PowerWatts: 7,
			TTF:    weibullFromAFRShape(0.012, 0.9),
			Repair: lnRepair(8, 1.0),
		},
		{
			Name: "nic-1g", Kind: KindNIC,
			ThroughputMBps: 125,
			CostUSD:        30, PowerWatts: 3,
			TTF:    weibullFromAFRShape(0.01, 0.8),
			Repair: lnRepair(6, 1.0),
		},
		{
			Name: "nic-10g", Kind: KindNIC,
			ThroughputMBps: 1250,
			CostUSD:        250, PowerWatts: 8,
			TTF:    weibullFromAFRShape(0.01, 0.8),
			Repair: lnRepair(6, 1.0),
		},
		{
			Name: "nic-40g", Kind: KindNIC,
			ThroughputMBps: 5000,
			CostUSD:        700, PowerWatts: 12,
			TTF:    weibullFromAFRShape(0.012, 0.8),
			Repair: lnRepair(6, 1.0),
		},
		{
			Name: "cpu-8c", Kind: KindCPU,
			Cores:   8,
			CostUSD: 400, PowerWatts: 85,
			TTF:    weibullFromAFRShape(0.005, 1.0),
			Repair: lnRepair(24, 0.8),
		},
		{
			Name: "cpu-16c", Kind: KindCPU,
			Cores:   16,
			CostUSD: 900, PowerWatts: 135,
			TTF:    weibullFromAFRShape(0.005, 1.0),
			Repair: lnRepair(24, 0.8),
		},
		{
			Name: "mem-16g", Kind: KindMemory,
			CapacityGB: 16,
			CostUSD:    160, PowerWatts: 5,
			TTF:    weibullFromAFRShape(0.004, 1.0),
			Repair: lnRepair(24, 0.8),
		},
		{
			Name: "mem-64g", Kind: KindMemory,
			CapacityGB: 64,
			CostUSD:    620, PowerWatts: 15,
			TTF:    weibullFromAFRShape(0.004, 1.0),
			Repair: lnRepair(24, 0.8),
		},
		{
			Name: "mem-128g", Kind: KindMemory,
			CapacityGB: 128,
			CostUSD:    1300, PowerWatts: 25,
			TTF:    weibullFromAFRShape(0.004, 1.0),
			Repair: lnRepair(24, 0.8),
		},
		{
			Name: "switch-48p-10g", Kind: KindSwitch,
			Ports: 48, ThroughputMBps: 1250,
			CostUSD: 5000, PowerWatts: 200,
			TTF:    weibullFromAFRShape(0.02, 0.9),
			Repair: lnRepair(4, 0.9),
		},
		{
			Name: "switch-48p-1g", Kind: KindSwitch,
			Ports: 48, ThroughputMBps: 125,
			CostUSD: 1200, PowerWatts: 120,
			TTF:    weibullFromAFRShape(0.02, 0.9),
			Repair: lnRepair(4, 0.9),
		},
		{
			Name: "psu-800w", Kind: KindPSU,
			CostUSD: 120, PowerWatts: 0,
			TTF:    weibullFromAFRShape(0.025, 0.8),
			Repair: lnRepair(4, 0.9),
		},
		// Power hierarchy (internal/power). PowerWatts is 0: conversion
		// and distribution losses are charged through the PUE multiplier,
		// not itemized per element. AFRs follow field observations that
		// PDUs fail rarely but take whole rack groups with them, and that
		// UPS electronics/battery strings fail more often than PDUs.
		{
			Name: "pdu-basic", Kind: KindPDU,
			CostUSD: 2500, PowerWatts: 0,
			TTF:    weibullFromAFRShape(0.012, 0.9),
			Repair: lnRepair(8, 1.0),
		},
		{
			Name: "pdu-redundant", Kind: KindPDU,
			CostUSD: 6000, PowerWatts: 0,
			TTF:    weibullFromAFRShape(0.004, 0.9),
			Repair: lnRepair(8, 1.0),
		},
		{
			Name: "ups-240kva", Kind: KindUPS,
			CostUSD: 60000, PowerWatts: 0,
			TTF:    weibullFromAFRShape(0.03, 0.9),
			Repair: lnRepair(24, 1.0),
		},
	}
	for _, sp := range specs {
		if err := c.Add(sp); err != nil {
			panic(err) // built-in catalog must be valid
		}
	}
	return c
}

// SharedCatalog returns the process's one read-only DefaultCatalog, built
// on first use. Its Add fails; Get, Names and OfKind are safe from any
// goroutine.
func SharedCatalog() *Catalog { return sharedCatalog() }

var sharedCatalog = sync.OnceValue(func() *Catalog {
	c := DefaultCatalog()
	c.shared = true
	return c
})
