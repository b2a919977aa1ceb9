package gaming

// This file adapts the virtual-world simulation to the scenario registry
// (internal/scenario), registered under "gaming": a JSON schema for the
// world parameters and a thin scenario.Scenario implementation.
//
// The player-session stream is a first-class workload (one job per player:
// submit = arrival, first task runtime = session length), materialized at
// Configure through the workload-source layer — synthesized from the
// document seed, or replayed from a trace file named in the document. Zone
// choices and movement remain world dynamics drawn from the kernel RNG, so
// a trace exported from a synthetic run replays to a byte-identical result.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"mcs/internal/scenario"
	"mcs/internal/sim"
	"mcs/internal/trace"
	"mcs/internal/workload"
)

// ScenarioJSON is the JSON schema of the "gaming" scenario. The header
// fields (kind, seed, the workload trace reference, the failures overlay)
// come from the embedded scenario.Common: a trace file named there replays
// through the format registry; an empty reference synthesizes diurnal
// arrivals from the document seed.
type ScenarioJSON struct {
	scenario.Common
	Zones             int     `json:"zones"`
	ZoneCapacity      int     `json:"zoneCapacity"`
	MaxServersPerZone int     `json:"maxServersPerZone"`
	ArrivalPerHour    float64 `json:"arrivalPerHour"`
	DiurnalAmp        float64 `json:"diurnalAmp"`
	MoveEveryMinutes  float64 `json:"moveEveryMinutes"`
	HorizonHours      float64 `json:"horizonHours"`
}

// ExampleJSON is a ready-to-run gaming scenario document.
const ExampleJSON = `{
  "kind": "gaming",
  "zones": 12, "zoneCapacity": 100,
  "arrivalPerHour": 3000, "diurnalAmp": 0.8,
  "horizonHours": 24, "seed": 3
}`

type gamingScenario struct {
	cfg     WorldConfig
	overlay *scenario.FailureOverlay
	slots   int
}

func init() {
	scenario.Register("gaming", func() scenario.Scenario { return &gamingScenario{} })
}

// Name implements scenario.Scenario.
func (g *gamingScenario) Name() string { return "gaming" }

// Example implements scenario.Exampler.
func (g *gamingScenario) Example() string { return ExampleJSON }

// SourceWorkload implements scenario.WorkloadProvider.
func (g *gamingScenario) SourceWorkload() (*workload.Workload, error) {
	if g.cfg.Workload == nil {
		return nil, fmt.Errorf("gaming: not configured")
	}
	return g.cfg.Workload, nil
}

// Configure implements scenario.Scenario.
func (g *gamingScenario) Configure(raw json.RawMessage) error {
	var cfg ScenarioJSON
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return err
	}
	if err := cfg.RejectParallel("gaming"); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"zones", float64(cfg.Zones)},
		{"zoneCapacity", float64(cfg.ZoneCapacity)},
		{"maxServersPerZone", float64(cfg.MaxServersPerZone)},
		{"arrivalPerHour", cfg.ArrivalPerHour},
		{"moveEveryMinutes", cfg.MoveEveryMinutes},
		{"horizonHours", cfg.HorizonHours},
	} {
		if f.v < 0 {
			return fmt.Errorf("gaming scenario: %s %v is negative", f.name, f.v)
		}
	}
	if cfg.Zones == 0 {
		cfg.Zones = 12
	}
	if cfg.ZoneCapacity == 0 {
		cfg.ZoneCapacity = 100
	}
	if cfg.ArrivalPerHour == 0 {
		cfg.ArrivalPerHour = 1000
	}
	if cfg.HorizonHours == 0 {
		cfg.HorizonHours = 24
	}
	if cfg.HorizonHours > 24*365 {
		return fmt.Errorf("gaming scenario: horizon %v hours too large", cfg.HorizonHours)
	}
	g.cfg = WorldConfig{
		Zones:             cfg.Zones,
		ZoneCapacity:      cfg.ZoneCapacity,
		MaxServersPerZone: cfg.MaxServersPerZone,
		ArrivalPerHour:    cfg.ArrivalPerHour,
		DiurnalAmp:        cfg.DiurnalAmp,
		MoveEveryMinutes:  cfg.MoveEveryMinutes,
		Horizon:           time.Duration(cfg.HorizonHours * float64(time.Hour)),
		Seed:              cfg.Seed,
	}
	world := g.cfg
	src := trace.SourceFor(cfg.Workload.Ref, cfg.Seed,
		func(r *rand.Rand) (*workload.Workload, error) { return GenerateSessions(world, r) })
	w, err := src.Load()
	if err != nil {
		return err
	}
	g.cfg.Workload = w

	overlay, err := cfg.FailureOverlay()
	if err != nil {
		return err
	}
	if overlay != nil {
		// The failure domain is the world's server-slot grid: maxShards
		// slots per zone, with zones as the rack-like groups (a biased
		// multi-slot event concentrates in one zone — the correlated outage
		// that defeats sharding).
		maxShards := g.cfg.MaxServersPerZone
		if maxShards <= 0 {
			maxShards = 4
		}
		g.slots = overlay.Machines(g.cfg.Zones * maxShards)
		racks := make([]string, g.slots)
		for s := range racks {
			racks[s] = "zone-" + itoa(s/maxShards)
		}
		g.cfg.Failures, err = overlay.Draw("", g.slots, g.cfg.Horizon, racks)
		if err != nil {
			return err
		}
		g.overlay = overlay
	}
	return nil
}

// Schema implements scenario.Schemer (mcsim -strict).
func (g *gamingScenario) Schema() any { return &ScenarioJSON{} }

// Run implements scenario.Scenario.
func (g *gamingScenario) Run(k *sim.Kernel) (*scenario.Result, error) {
	res, err := RunWorldOn(k, g.cfg)
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{
		"playersServed":     float64(res.PlayersServed),
		"peakConcurrent":    float64(res.PeakConcurrent),
		"peakServers":       float64(res.PeakServers),
		"meanServers":       res.MeanServers,
		"overloadTimeShare": res.OverloadTimeShare,
		"socialTies":        float64(res.Ties.NumEdges()),
	}
	g.overlay.AddMetrics(metrics, scenario.FailureShard{
		Events: g.cfg.Failures,
		Units:  g.slots,
		Window: g.cfg.Horizon,
	})
	return &scenario.Result{
		Metrics: metrics,
		Labels:  map[string]string{"players": fmt.Sprintf("%d", len(g.cfg.Workload.Jobs))},
	}, nil
}
