package power

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// System is a power hierarchy attached to one simulated cluster: PDU
// failure domains, the utility/UPS/generator process, the energy meter
// and the power-cap schedule. Build one per trial with Attach.
type System struct {
	cfg   Config // normalized
	sim   *sim.Simulator
	cl    *cluster.Cluster
	meter *Meter

	ups *hardware.Component
	dc  *cluster.Domain // facility-wide blackout domain

	// powerVeto counts down *power* domains covering each node; a node
	// draws electricity while it is up and unvetoed, even when a ToR
	// failure makes it unreachable.
	powerVeto []int

	utilityOutages  int64
	rideThroughOK   int64
	generatorStarts int64
	powerLossEvents int64
	pduFailures     int64
}

// Stats is the per-trial power and energy summary.
type Stats struct {
	EnergyKWh   float64 // facility energy (IT × PUE)
	ITEnergyKWh float64
	PeakKW      float64 // peak facility draw
	PUE         float64
	CarbonKg    float64

	UtilityOutages  int64 // utility feed losses
	RideThroughOK   int64 // outages fully covered by the UPS battery
	GeneratorStarts int64 // outages where the generator took the load
	PowerLossEvents int64 // outages that became facility blackouts
	PDUFailures     int64
}

// NodeActiveWatts sums the active draw of one node's components under
// the cluster config — the per-node wattage the energy model integrates.
func NodeActiveWatts(cat *hardware.Catalog, cfg cluster.Config) (float64, error) {
	disk, err := cat.Get(cfg.DiskSpec)
	if err != nil {
		return 0, err
	}
	w := disk.PowerWatts * float64(cfg.DisksPerNode)
	for _, name := range []string{cfg.NICSpec, cfg.CPUSpec, cfg.MemSpec} {
		sp, err := cat.Get(name)
		if err != nil {
			return 0, err
		}
		w += sp.PowerWatts
	}
	return w, nil
}

// Attach wires a power system into a built cluster: it registers PDU
// and facility power domains, starts the configured failure processes,
// subscribes the energy meter to node/domain transitions, and schedules
// the power-cap window against horizonHours. All random draws come from
// dedicated "power/..." streams, so attaching a system never perturbs
// the draws of the rest of the simulation.
//
// Call Attach after cluster.Build and before the run; like
// Cluster.StartFailures it must be attached at simulation time zero.
func Attach(s *sim.Simulator, cl *cluster.Cluster, cat *hardware.Catalog, cfg Config, horizonHours float64) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled {
		return nil, fmt.Errorf("power: Attach called with a disabled config")
	}
	cfg = cfg.normalized()

	activeW, err := NodeActiveWatts(cat, cl.Config())
	if err != nil {
		return nil, err
	}
	meter, err := NewMeter(cl.Size(), activeW, cfg.IdleFraction, cfg.Utilization,
		cfg.PUE, cfg.CarbonKgPerKWh, s.Now())
	if err != nil {
		return nil, err
	}
	p := &System{
		cfg: cfg, sim: s, cl: cl, meter: meter,
		powerVeto: make([]int, cl.Size()),
	}

	// Energy view: a node draws power while node-locally up and not cut
	// by a power domain. Reachability domains (ToR) do not change draw.
	refresh := func(n *cluster.Node) {
		p.meter.SetNodeOn(s.Now(), n.ID, n.Up() && p.powerVeto[n.ID] == 0)
	}
	cl.OnNodeDown(refresh)
	cl.OnNodeUp(refresh)
	cl.OnDomainDown(func(d *cluster.Domain) {
		if !d.Power {
			return
		}
		now := s.Now()
		for _, id := range d.NodeIDs() {
			p.powerVeto[id]++
			p.meter.SetNodeOn(now, id, false)
		}
	})
	cl.OnDomainUp(func(d *cluster.Domain) {
		if !d.Power {
			return
		}
		now := s.Now()
		for _, id := range d.NodeIDs() {
			p.powerVeto[id]--
			p.meter.SetNodeOn(now, id, p.cl.Nodes()[id].Up() && p.powerVeto[id] == 0)
		}
	})

	if err := p.buildPDUs(cat); err != nil {
		return nil, err
	}
	if err := p.buildUtility(cat); err != nil {
		return nil, err
	}
	p.scheduleCap(horizonHours)
	return p, nil
}

// buildPDUs registers one power domain and one component lifecycle per
// PDU, assigning racks contiguously: PDU i feeds the racks r with
// r*pdus/racks == i, covering their nodes and severing their uplinks
// while down.
func (p *System) buildPDUs(cat *hardware.Catalog) error {
	racks := p.cl.Config().Racks
	n := p.cfg.EffectivePDUs(racks)
	if n == 0 {
		return nil
	}
	spec, err := cat.Get(p.cfg.EffectivePDUSpec())
	if err != nil {
		return fmt.Errorf("power: PDU: %w", err)
	}
	if spec.Kind != hardware.KindPDU {
		return fmt.Errorf("power: spec %q is a %s, not a pdu", spec.Name, spec.Kind)
	}
	nodesOf := make([][]int, n)
	linksOf := make([][]*netsim.Link, n)
	for r := 0; r < racks; r++ {
		i := r * n / racks
		dom := p.cl.RackDomain(r)
		nodesOf[i] = append(nodesOf[i], dom.NodeIDs()...)
		linksOf[i] = append(linksOf[i], dom.Links()...)
	}
	for i := 0; i < n; i++ {
		dom, err := p.cl.AddDomain(fmt.Sprintf("pdu-%d", i), true, nodesOf[i], linksOf[i])
		if err != nil {
			return err
		}
		pdu, err := hardware.NewComponent(2000000+i, spec)
		if err != nil {
			return err
		}
		pdu.OnFail(func(*hardware.Component) {
			p.pduFailures++
			p.cl.FailDomain(dom)
		})
		pdu.OnRepair(func(*hardware.Component) { p.cl.RestoreDomain(dom) })
		pdu.StartLifecycle(p.sim, p.sim.Stream(fmt.Sprintf("power/pdu-%d", i)))
	}
	return nil
}

// buildUtility wires the utility-outage process, the UPS component and
// the facility blackout domain.
func (p *System) buildUtility(cat *hardware.Catalog) error {
	if p.cfg.UPSSpec != "" {
		spec, err := cat.Get(p.cfg.UPSSpec)
		if err != nil {
			return fmt.Errorf("power: UPS: %w", err)
		}
		if spec.Kind != hardware.KindUPS {
			return fmt.Errorf("power: spec %q is a %s, not a ups", spec.Name, spec.Kind)
		}
		ups, err := hardware.NewComponent(3000000, spec)
		if err != nil {
			return err
		}
		// A UPS failure does not itself drop the load (the bypass carries
		// it); it removes the battery ride-through until repaired.
		ups.StartLifecycle(p.sim, p.sim.Stream("power/ups"))
		p.ups = ups
	}
	if p.cfg.UtilityTTF == nil {
		return nil
	}
	all := make([]int, p.cl.Size())
	for i := range all {
		all[i] = i
	}
	var uplinks []*netsim.Link
	for r := 0; r < p.cl.Config().Racks; r++ {
		uplinks = append(uplinks, p.cl.RackDomain(r).Links()...)
	}
	dc, err := p.cl.AddDomain("utility", true, all, uplinks)
	if err != nil {
		return err
	}
	p.dc = dc
	p.scheduleUtilityOutage()
	return nil
}

// scheduleUtilityOutage draws the next utility outage and resolves it
// against the UPS battery and the generator:
//
//   - outage shorter than the battery window   → ride-through, no impact
//   - generator starts within the battery      → generator carries it
//   - otherwise                                → facility blackout from
//     battery exhaustion until the generator start or utility return
//
// A failed UPS component zeroes the battery window for outages that
// begin during its repair.
func (p *System) scheduleUtilityOutage() {
	stream := p.sim.Stream("power/utility")
	ttf := p.cfg.UtilityTTF.Sample(stream)
	p.sim.Schedule(ttf, "power/utility-outage", func() {
		p.utilityOutages++
		d := p.cfg.UtilityRepair.Sample(stream)
		battery := p.cfg.UPSMinutes / 60
		if p.ups != nil && p.ups.State() == hardware.StateFailed {
			battery = 0
		}
		genOK := false
		if p.cfg.GeneratorStartProb > 0 {
			genOK = stream.Float64() < p.cfg.GeneratorStartProb
		}
		genAt := p.cfg.GeneratorStartHours
		switch {
		case d <= battery:
			p.rideThroughOK++
		case genOK && genAt <= battery:
			p.generatorStarts++
		default:
			p.powerLossEvents++
			lossEnd := d
			if genOK && genAt < d {
				p.generatorStarts++
				lossEnd = genAt
			}
			p.sim.Schedule(battery, "power/blackout", func() { p.cl.FailDomain(p.dc) })
			p.sim.Schedule(lossEnd, "power/blackout-over", func() { p.cl.RestoreDomain(p.dc) })
		}
		p.sim.Schedule(d, "power/utility-restored", p.scheduleUtilityOutage)
	})
}

// scheduleCap schedules the power-cap window: service rates (access
// links) and the active share of node draw are throttled to
// 1-CapFraction for the window, then restored.
func (p *System) scheduleCap(horizonHours float64) {
	if p.cfg.CapFraction <= 0 {
		return
	}
	start := p.cfg.CapStartHours
	duration := p.cfg.CapDurationHours
	if duration == 0 {
		duration = horizonHours - start
	}
	if duration <= 0 {
		return
	}
	factor := 1 - p.cfg.CapFraction
	capOn := func() {
		p.meter.SetThrottle(p.sim.Now(), factor)
		if err := p.cl.SetServiceThrottle(factor); err != nil {
			panic(err) // factor validated in Config.Validate
		}
	}
	if start == 0 {
		// A cap active from time zero applies immediately; the peak
		// tracker re-bases so it reports the capped trajectory rather
		// than the zero-duration uncapped construction instant.
		capOn()
		p.meter.ResetPeak()
	} else {
		p.sim.Schedule(start, "power/cap-on", capOn)
	}
	if start+duration >= horizonHours {
		return // cap runs to the end of the horizon
	}
	p.sim.Schedule(start+duration, "power/cap-off", func() {
		p.meter.SetThrottle(p.sim.Now(), 1)
		if err := p.cl.SetServiceThrottle(1); err != nil {
			panic(err)
		}
	})
}

// Stats finalizes the meter at now and reports the trial's power and
// energy summary.
func (p *System) Stats(now sim.Time) Stats {
	p.meter.Finalize(now)
	return Stats{
		EnergyKWh:       p.meter.EnergyKWh(),
		ITEnergyKWh:     p.meter.ITEnergyKWh(),
		PeakKW:          p.meter.PeakKW(),
		PUE:             p.meter.PUE(),
		CarbonKg:        p.meter.CarbonKg(),
		UtilityOutages:  p.utilityOutages,
		RideThroughOK:   p.rideThroughOK,
		GeneratorStarts: p.generatorStarts,
		PowerLossEvents: p.powerLossEvents,
		PDUFailures:     p.pduFailures,
	}
}
