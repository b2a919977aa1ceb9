package banking

// This file adapts the PSD2-style clearing pipeline to the scenario registry
// (internal/scenario), registered under "banking": a JSON schema selecting
// the workload size, deadline mix, and queue discipline, and a thin
// scenario.Scenario implementation over the default four-stage pipeline.
//
// The transaction stream is a first-class workload (see workload.go for
// the field mapping), materialized at Configure through the
// workload-source layer — synthesized from the document seed, or replayed
// from a trace file named in the document. The pipeline consumes the same
// precomputed stream either way, and its per-stage service times are
// kernel-RNG dynamics whose draw order the stream fixes, so a trace
// exported from a synthetic run replays to a byte-identical result.

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"mcs/internal/scenario"
	"mcs/internal/sim"
	"mcs/internal/trace"
	"mcs/internal/workload"
)

// ScenarioJSON is the JSON schema of the "banking" scenario. The header
// fields (kind, seed, the workload trace reference) come from the embedded
// scenario.Common: a trace file named there replays through the format
// registry; an empty reference synthesizes from Transactions/InstantShare
// and the document seed.
type ScenarioJSON struct {
	scenario.Common
	// Transactions is the size of the daily workload (0 means the default
	// 5000; negative is an error).
	Transactions int `json:"transactions"`
	// InstantShare is the fraction of transactions with a 10-second instant
	// deadline (the rest get one hour).
	InstantShare float64 `json:"instantShare"`
	// Discipline is "fcfs" or "edf" (default "edf").
	Discipline string `json:"discipline"`
}

// ExampleJSON is a ready-to-run banking scenario document.
const ExampleJSON = `{
  "kind": "banking",
  "transactions": 5000, "instantShare": 0.3,
  "discipline": "edf", "seed": 5
}`

type bankingScenario struct {
	disc QueueDiscipline
	w    *workload.Workload
}

func init() {
	scenario.Register("banking", func() scenario.Scenario { return &bankingScenario{} })
}

// Name implements scenario.Scenario.
func (b *bankingScenario) Name() string { return "banking" }

// Example implements scenario.Exampler.
func (b *bankingScenario) Example() string { return ExampleJSON }

// SourceWorkload implements scenario.WorkloadProvider.
func (b *bankingScenario) SourceWorkload() (*workload.Workload, error) {
	if b.w == nil {
		return nil, fmt.Errorf("banking: not configured")
	}
	return b.w, nil
}

// Configure implements scenario.Scenario.
func (b *bankingScenario) Configure(raw json.RawMessage) error {
	var cfg ScenarioJSON
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return err
	}
	if err := cfg.RejectFailures("banking"); err != nil {
		return err
	}
	if err := cfg.RejectParallel("banking"); err != nil {
		return err
	}
	if cfg.Transactions < 0 {
		return fmt.Errorf("banking scenario: transactions %d is negative", cfg.Transactions)
	}
	if cfg.Transactions == 0 {
		cfg.Transactions = 5000
	}
	if cfg.InstantShare < 0 || cfg.InstantShare > 1 {
		return fmt.Errorf("banking scenario: instantShare %v out of [0,1]", cfg.InstantShare)
	}
	switch cfg.Discipline {
	case "", "edf":
		b.disc = EDF
	case "fcfs":
		b.disc = FCFS
	default:
		return fmt.Errorf("banking scenario: unknown discipline %q", cfg.Discipline)
	}
	count, share := cfg.Transactions, cfg.InstantShare
	src := trace.SourceFor(cfg.Workload.Ref, cfg.Seed, func(r *rand.Rand) (*workload.Workload, error) {
		return GenerateWorkload(count, share, r), nil
	})
	w, err := src.Load()
	if err != nil {
		return err
	}
	b.w = w
	return nil
}

// Schema implements scenario.Schemer (mcsim -strict).
func (b *bankingScenario) Schema() any { return &ScenarioJSON{} }

// Run implements scenario.Scenario.
func (b *bankingScenario) Run(k *sim.Kernel) (*scenario.Result, error) {
	txs := TransactionsFromWorkload(b.w)
	res, err := RunClearingOn(k, DefaultPipeline(), txs, b.disc)
	if err != nil {
		return nil, err
	}
	return &scenario.Result{
		Metrics: map[string]float64{
			"completed":           float64(res.Completed),
			"deadlineMisses":      float64(res.DeadlineMiss),
			"missRate":            res.MissRate,
			"meanLatencySeconds":  res.MeanLatency.Seconds(),
			"p95LatencySeconds":   res.P95Latency.Seconds(),
			"meanLatenessSeconds": res.MeanLateness.Seconds(),
			"maxQueueDepth":       float64(res.MaxQueueDepth),
		},
		Labels: map[string]string{"discipline": b.disc.String()},
	}, nil
}
