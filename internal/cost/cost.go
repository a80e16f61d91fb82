// Package cost prices data center configurations: capital expenditure
// from the hardware catalog, energy, and expected replacement spend over
// an operating horizon. It answers the economic half of the paper's
// provisioning question (§3: "...and minimize the total operating cost").
package cost

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/power"
)

// PriceBook holds the economic constants.
type PriceBook struct {
	// USDPerKWh is the electricity price.
	USDPerKWh float64
	// PUE is the power usage effectiveness multiplier (total facility
	// power / IT power), typically 1.1-2.0.
	PUE float64
	// ReplacementLaborUSD is the flat labor cost per component swap.
	ReplacementLaborUSD float64
}

// DefaultPriceBook returns 2014-era defaults.
func DefaultPriceBook() PriceBook {
	return PriceBook{USDPerKWh: 0.10, PUE: 1.5, ReplacementLaborUSD: 50}
}

// Validate checks the price book.
func (p PriceBook) Validate() error {
	if p.USDPerKWh < 0 || p.PUE < 1 || p.ReplacementLaborUSD < 0 {
		return fmt.Errorf("cost: invalid price book %+v", p)
	}
	return nil
}

// Breakdown itemizes a configuration's cost over a horizon.
type Breakdown struct {
	CapexUSD       float64 // purchase price of all components
	EnergyUSD      float64 // power over the horizon
	ReplacementUSD float64 // expected component replacements
	HorizonHours   float64

	// EnergyKWh is the facility energy behind EnergyUSD. It is the flat
	// nameplate estimate from Estimate, or the simulated figure after
	// WithMeasuredEnergy.
	EnergyKWh float64
	// CarbonKg is the energy's carbon footprint; populated by
	// WithMeasuredEnergy (and by EstimateWithPower's flat estimate when
	// a carbon intensity is configured).
	CarbonKg float64
	// EnergyMeasured reports that EnergyUSD/EnergyKWh came from a
	// simulated power trace rather than the nameplate estimate.
	EnergyMeasured bool
}

// TotalUSD returns the sum of all items.
func (b Breakdown) TotalUSD() float64 {
	return b.CapexUSD + b.EnergyUSD + b.ReplacementUSD
}

func (b Breakdown) String() string {
	return fmt.Sprintf("total $%.0f (capex $%.0f, energy $%.0f, replacement $%.0f over %.0fh)",
		b.TotalUSD(), b.CapexUSD, b.EnergyUSD, b.ReplacementUSD, b.HorizonHours)
}

// Estimate prices a cluster configuration over horizonHours. Expected
// replacements use each component's mean time to failure: horizon/MTTF
// failures per component in steady state (each swap costs labor plus the
// component price).
func Estimate(cat *hardware.Catalog, cfg cluster.Config, book PriceBook, horizonHours float64) (Breakdown, error) {
	if err := book.Validate(); err != nil {
		return Breakdown{}, err
	}
	if horizonHours <= 0 {
		return Breakdown{}, fmt.Errorf("cost: horizon must be positive, got %v", horizonHours)
	}
	if err := cfg.Validate(); err != nil {
		return Breakdown{}, err
	}
	// Looked up before anything is priced, in this order, so an unknown
	// spec is reported the same whichever it is.
	var specs [5]hardware.Spec // disk, NIC, CPU, memory, switch
	for i, name := range [...]string{cfg.DiskSpec, cfg.NICSpec, cfg.CPUSpec, cfg.MemSpec, cfg.SwitchSpec} {
		sp, err := cat.Get(name)
		if err != nil {
			return Breakdown{}, err
		}
		specs[i] = sp
	}

	nodes := float64(cfg.Racks * cfg.NodesPerRack)
	var b Breakdown
	b.HorizonHours = horizonHours
	addSpec := func(sp hardware.Spec, count float64) {
		b.CapexUSD += sp.CostUSD * count
		kwh := sp.PowerWatts / 1000 * horizonHours * book.PUE
		b.EnergyKWh += kwh * count
		b.EnergyUSD += kwh * book.USDPerKWh * count
		mttf := sp.TTF.Mean()
		if mttf > 0 {
			expectedFailures := horizonHours / mttf * count
			b.ReplacementUSD += expectedFailures * (sp.CostUSD + book.ReplacementLaborUSD)
		}
	}
	// One term per component, disks first: the sums are floating point, and
	// rendered tables depend on their last bit.
	for i := 0; i < cfg.DisksPerNode; i++ {
		addSpec(specs[0], nodes)
	}
	for _, sp := range specs[1:4] {
		addSpec(sp, nodes)
	}
	// One ToR switch per rack plus one core switch.
	addSpec(specs[4], float64(cfg.Racks)+1)
	return b, nil
}

// EstimateWithPower prices a cluster plus its power delivery hierarchy:
// the base Estimate, the PDU and UPS capex/replacement spend, and —
// when the power config carries a carbon intensity — the flat carbon
// estimate for the nameplate energy. Use WithMeasuredEnergy afterwards
// to substitute simulated energy for the nameplate figure.
func EstimateWithPower(cat *hardware.Catalog, cfg cluster.Config, pcfg power.Config, book PriceBook, horizonHours float64) (Breakdown, error) {
	b, err := Estimate(cat, cfg, book, horizonHours)
	if err != nil {
		return Breakdown{}, err
	}
	if !pcfg.Enabled {
		return b, nil
	}
	if err := pcfg.Validate(); err != nil {
		return Breakdown{}, err
	}
	addHierarchy := func(specName string, kind hardware.Kind, count float64) error {
		if count <= 0 || specName == "" {
			return nil
		}
		sp, err := cat.Get(specName)
		if err != nil {
			return err
		}
		if sp.Kind != kind {
			return fmt.Errorf("cost: spec %q is a %s, not a %s", specName, sp.Kind, kind)
		}
		b.CapexUSD += sp.CostUSD * count
		if mttf := sp.TTF.Mean(); mttf > 0 {
			b.ReplacementUSD += horizonHours / mttf * count * (sp.CostUSD + book.ReplacementLaborUSD)
		}
		return nil
	}
	// The clamp and spec default come from internal/power itself, so the
	// priced hierarchy is exactly the simulated one.
	pdus := pcfg.EffectivePDUs(cfg.Racks)
	if err := addHierarchy(pcfg.EffectivePDUSpec(), hardware.KindPDU, float64(pdus)); err != nil {
		return Breakdown{}, err
	}
	if err := addHierarchy(pcfg.UPSSpec, hardware.KindUPS, 1); err != nil {
		return Breakdown{}, err
	}
	carbon := pcfg.CarbonKgPerKWh
	if carbon == 0 {
		carbon = power.DefaultCarbon
	}
	b.CarbonKg = b.EnergyKWh * carbon
	return b, nil
}

// WithMeasuredEnergy replaces a breakdown's nameplate energy estimate
// with a simulated facility energy figure (kWh, PUE already applied)
// and reprices it, also refreshing the carbon footprint at the given
// intensity.
func WithMeasuredEnergy(b Breakdown, facilityKWh float64, carbonKgPerKWh float64, book PriceBook) Breakdown {
	b.EnergyKWh = facilityKWh
	b.EnergyUSD = facilityKWh * book.USDPerKWh
	b.CarbonKg = facilityKWh * carbonKgPerKWh
	b.EnergyMeasured = true
	return b
}

// PerUserMonthlyUSD converts a breakdown into a per-user monthly price
// given the user population, amortizing capex over the horizon.
func PerUserMonthlyUSD(b Breakdown, users int) (float64, error) {
	if users < 1 {
		return 0, fmt.Errorf("cost: need >= 1 user, got %d", users)
	}
	months := b.HorizonHours / (hardware.HoursPerYear / 12)
	if months <= 0 {
		return 0, fmt.Errorf("cost: non-positive horizon")
	}
	return b.TotalUSD() / months / float64(users), nil
}
