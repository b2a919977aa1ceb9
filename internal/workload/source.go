package workload

// The workload-source layer: one deterministic interface behind which
// "generate from RNG parameters" and "replay from a trace file" are
// interchangeable. Scenario adapters consume a Source instead of calling a
// generator or a trace reader directly, which is what lets every
// trace-capable scenario export the workload it ran and replay it to a
// byte-identical result (paper P8, C16/C19: experiments reconstructible
// from a document plus artifact files).
//
// The concrete sources are Synthetic here and trace.File in
// internal/trace (kept there so this package does not depend on the trace
// format registry).

import (
	"fmt"
	"math/rand"
)

// Source yields the workload a scenario runs. Load must be deterministic:
// two calls on equal sources return equal workloads, byte for byte, so a
// scenario fed by a Source is reproducible regardless of whether the
// workload was synthesized or replayed.
type Source interface {
	// Load materializes the workload. Implementations must not retain or
	// mutate the returned value across calls.
	Load() (*Workload, error)
}

// Synthetic generates a workload from a deterministic RNG seeded with Seed.
// Gen is the model-specific generator (e.g. a closure over a
// GeneratorConfig, a FaaS invocation synthesizer, a gaming session
// synthesizer); keeping it a function keeps this package free of ecosystem
// knowledge.
type Synthetic struct {
	Seed int64
	Gen  func(r *rand.Rand) (*Workload, error)
}

// Load implements Source.
func (s Synthetic) Load() (*Workload, error) {
	if s.Gen == nil {
		return nil, fmt.Errorf("workload: synthetic source has no generator")
	}
	return s.Gen(rand.New(rand.NewSource(s.Seed)))
}
