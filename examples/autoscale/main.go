// The autoscaler matrix (paper C7, per Ilyushkin et al. [43]): every
// autoscaler policy replayed against a bursty demand curve and scored with
// the SPEC elasticity metrics — the experiment behind the paper's claim
// that no single autoscaler dominates. The same matrix is available as a
// registered scenario (`mcsim -example -kind autoscale`), and as a sweep:
//
//	mcsim -scenario base.json -sweep grid.json
//
// with {"/policy": ["react", "adapt", ...]} as the grid.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"mcs/internal/autoscale"
	"mcs/internal/elasticity"
	"mcs/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	horizon := 24 * time.Hour
	demand, err := autoscale.DemandByName("bursty", horizon, rand.New(rand.NewSource(43)))
	if err != nil {
		return err
	}
	opts := autoscale.SimOptions{
		Interval:          time.Minute,
		ProvisioningDelay: 2 * time.Minute,
		MinSupply:         1,
	}
	weights := elasticity.DefaultRiskWeights()
	fmt.Println("policy    accU    accO    tsU     tsO     instab  risk")
	best, bestRisk := "", 0.0
	for _, a := range autoscale.All() {
		supply := autoscale.SimulateOn(sim.New(0), a, demand, horizon, opts)
		m := elasticity.Compute(demand, supply, horizon, time.Minute)
		risk := m.Risk(weights)
		fmt.Printf("%-8s  %.3f   %.3f   %.3f   %.3f   %.3f   %.3f\n",
			a.Name(), m.AccuracyU, m.AccuracyO, m.TimeshareU, m.TimeshareO, m.Instability, risk)
		if best == "" || risk < bestRisk {
			best, bestRisk = a.Name(), risk
		}
	}
	fmt.Printf("\nbest on this workload: %s (risk %.3f) — rerun with a flat or\n", best, bestRisk)
	fmt.Println("diurnal demand and the winner changes: no autoscaler dominates (C7, [43]).")
	return nil
}
