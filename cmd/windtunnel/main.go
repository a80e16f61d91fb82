// Command windtunnel runs one availability scenario — from a JSON file or
// the built-in default — and prints the full metric report, SLA verdicts
// and cost breakdown.
//
// Usage:
//
//	windtunnel                        # default scenario
//	windtunnel -scenario dc.json -trials 20 -min-availability 0.999
//
// A scenario file is one flat JSON object whose keys are WTQL's parameter
// names (README, "Parameters"), applied in file order to the default
// scenario exactly as a query's WITH list would be — so a file and the
// query that says the same thing run the same simulation:
//
//	{
//	  "cluster.racks": 3, "cluster.nodes_per_rack": 10,
//	  "disk.spec": "hdd-7200", "disk.per_node": 4, "net.nic": "nic-10g",
//	  "storage.scheme": "rs-6-3", "storage.placement": "rackaware",
//	  "node.ttf": "weibull(shape=0.7, scale=8760)",
//	  "node.repair": "lognormal(mean=12, cv=1.2)",
//	  "repair.detection_hours": 2,
//	  "users": 1000, "object_mb": 200, "horizon_hours": 8766, "seed": 1,
//	  "power.pdus": 2, "power.ups_minutes": 15, "power.cap": 0.2
//	}
//
// Any power.* key enables the power subsystem ("power.enabled": false
// after them keeps the settings without it); -power prints the power &
// energy report with the energy-aware cost breakdown. The file is read
// strictly: an unknown or repeated key, a value of the wrong type or out
// of range, a nested value, anything after the object, or a scenario that
// does not validate is an error, reported before anything runs.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/hardware"
	"repro/internal/power"
	"repro/internal/sla"
	"repro/internal/wtql"
)

// maxScenarioFile bounds a scenario file; every parameter there is, set
// once, comes to about 2 KB.
const maxScenarioFile = 1 << 20

// readScenario builds the scenario a -scenario file describes.
func readScenario(r io.Reader) (core.Scenario, error) {
	sc := core.DefaultScenario()
	data, err := io.ReadAll(io.LimitReader(r, maxScenarioFile+1))
	if err != nil {
		return sc, err
	}
	if len(data) > maxScenarioFile {
		return sc, fmt.Errorf("larger than %d bytes", maxScenarioFile)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return sc, fmt.Errorf("want one JSON object, {\"parameter\": value, ...}")
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return sc, fmt.Errorf("at byte %d: %w", dec.InputOffset(), err)
		}
		key := tok.(string) // what follows '{' or ',' in an object, or Token fails
		if seen[key] {
			return sc, fmt.Errorf("%q is set twice", key)
		}
		seen[key] = true
		switch v, err := dec.Token(); {
		case err != nil:
			return sc, fmt.Errorf("%q, at byte %d: %w", key, dec.InputOffset(), err)
		case v == json.Delim('{') || v == json.Delim('['):
			return sc, fmt.Errorf("%q holds a nested value: a scenario file is flat, one WTQL name per key (\"power.cap\": 0.2, not \"power\": {\"cap\": 0.2})", key)
		default: // a float64, string or bool — what a WITH value is — or null, which no parameter takes
			if err := wtql.SetParam(&sc, key, v); err != nil {
				return sc, err
			}
		}
	}
	if _, err := dec.Token(); err != nil { // the closing brace
		return sc, fmt.Errorf("at byte %d: %w", dec.InputOffset(), err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return sc, fmt.Errorf("trailing data after the object, at byte %d", dec.InputOffset())
	}
	return sc, sc.Validate()
}

func main() {
	scenarioPath := flag.String("scenario", "", "scenario JSON file (default: built-in scenario)")
	trials := flag.Int("trials", 10, "independent simulation trials")
	minAvail := flag.Float64("min-availability", 0, "availability SLA to check (0 = none)")
	maxLoss := flag.Float64("max-loss", -1, "durability SLA: max loss probability (-1 = none)")
	maxPeakKW := flag.Float64("max-peak-kw", 0, "power-budget SLA: max facility peak kW (0 = none; needs a power-enabled scenario)")
	powerReport := flag.Bool("power", false, "print the power & energy report (needs a power-enabled scenario)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	flag.Parse()

	// SIGINT/SIGTERM cancel the run (at trial granularity); -timeout
	// bounds it. Either way the process exits non-zero via fatal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sc := core.DefaultScenario()
	if *scenarioPath != "" {
		f, err := os.Open(*scenarioPath)
		if err != nil {
			fatal(err)
		}
		sc, err = readScenario(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *scenarioPath, err))
		}
	}

	var slas []sla.SLA
	if *minAvail > 0 {
		s, err := sla.NewAvailability(*minAvail)
		if err != nil {
			fatal(err)
		}
		slas = append(slas, s)
	}
	if *maxLoss >= 0 {
		s, err := sla.NewDurability(*maxLoss)
		if err != nil {
			fatal(err)
		}
		slas = append(slas, s)
	}
	if *maxPeakKW > 0 {
		if !sc.Power.Enabled {
			fatal(fmt.Errorf("-max-peak-kw needs a power-enabled scenario (set a power.* parameter)"))
		}
		s, err := sla.NewPowerBudget(*maxPeakKW)
		if err != nil {
			fatal(err)
		}
		slas = append(slas, s)
	}

	res, err := core.Runner{Trials: *trials, SLAs: slas}.RunContext(ctx, sc)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("scenario %q: %d nodes (%d racks x %d), %s, %d users x %.0f MB, placement=%s\n",
		sc.Name, sc.Cluster.Racks*sc.Cluster.NodesPerRack, sc.Cluster.Racks,
		sc.Cluster.NodesPerRack, sc.Scheme, sc.Users, sc.ObjectSizeMB, sc.Placement)
	fmt.Printf("horizon %.0f h, %d trials\n\n", sc.HorizonHours, res.Trials)

	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		line := fmt.Sprintf("  %-22s %.6g", k, res.Metrics[k])
		if ci, ok := res.CI[k]; ok {
			line += fmt.Sprintf("  (95%% CI +-%.3g)", ci)
		}
		fmt.Println(line)
	}

	book := cost.DefaultPriceBook()
	breakdown, err := cost.EstimateWithPower(hardware.DefaultCatalog(), sc.Cluster, sc.Power, book, sc.HorizonHours)
	if err != nil {
		fatal(err)
	}
	if kwh, ok := res.Metrics["energy_kwh"]; ok {
		carbon := sc.Power.CarbonKgPerKWh
		if carbon == 0 {
			carbon = power.DefaultCarbon
		}
		breakdown = cost.WithMeasuredEnergy(breakdown, kwh, carbon, book)
	}
	fmt.Printf("\ncost: %v\n", breakdown)
	if breakdown.EnergyMeasured {
		fmt.Printf("      energy priced from the simulated %.1f kWh (not nameplate)\n", breakdown.EnergyKWh)
	}
	if perUser, err := cost.PerUserMonthlyUSD(breakdown, sc.Users); err == nil {
		fmt.Printf("      $%.2f per user per month\n", perUser)
	}

	if *powerReport {
		if !sc.Power.Enabled {
			fmt.Println("\npower: subsystem disabled (set a power.* parameter in the scenario file)")
		} else {
			fmt.Println("\npower & energy report:")
			for _, row := range []struct{ label, metric, unit string }{
				{"facility energy", "energy_kwh", "kWh"},
				{"IT energy", "energy_it_kwh", "kWh"},
				{"peak draw", "peak_kw", "kW"},
				{"PUE", "pue", ""},
				{"carbon", "carbon_kg", "kg CO2"},
				{"utility outages", "power_utility_outages", "/trial"},
				{"UPS ride-throughs", "power_ride_through_ok", "/trial"},
				{"generator starts", "power_generator_starts", "/trial"},
				{"facility blackouts", "power_loss_events", "/trial"},
				{"PDU failures", "power_pdu_failures", "/trial"},
			} {
				line := fmt.Sprintf("  %-20s %.6g %s", row.label, res.Metrics[row.metric], row.unit)
				if ci, ok := res.CI[row.metric]; ok {
					line += fmt.Sprintf("  (95%% CI +-%.3g)", ci)
				}
				fmt.Println(line)
			}
			fmt.Printf("  %-20s $%.0f over the horizon\n", "energy bill", breakdown.EnergyUSD)
		}
	}

	if len(res.Verdicts) > 0 {
		fmt.Println("\nSLA verdicts:")
		for _, v := range res.Verdicts {
			fmt.Printf("  %v\n", v)
		}
		if !res.AllMet {
			os.Exit(2)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "windtunnel:", err)
	os.Exit(1)
}
