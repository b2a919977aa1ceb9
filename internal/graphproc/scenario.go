package graphproc

// This file adapts the graph-processing platform to the scenario registry
// (internal/scenario), registered under "graph". The graph is generated from
// the kernel's deterministic RNG and each Graphalytics kernel runs as one
// simulation event, so graph runs flow through the same engine path as every
// other ecosystem. Only seed-stable quantities (checksums, graph shape) are
// reported as metrics; wall-clock-dependent numbers (makespan, EVPS) travel
// in the envelope's WallClock field instead.

import (
	"encoding/json"
	"fmt"

	"mcs/internal/scenario"
	"mcs/internal/sim"
)

// ScenarioJSON is the JSON schema of the "graph" scenario. The header
// fields (kind, seed, parallel — bounding the algorithm-shard pool) come
// from the embedded scenario.Common.
type ScenarioJSON struct {
	scenario.Common
	// Generator is "rmat", "er", or "grid2d" (default "rmat").
	Generator string `json:"generator"`
	// Scale gives ~2^scale vertices (default 12).
	Scale int `json:"scale"`
	// EdgeFactor is the directed edges per vertex (default 16).
	EdgeFactor int `json:"edgeFactor"`
	// Algorithms lists the kernels to run (default: all six).
	Algorithms []string `json:"algorithms"`
	// Engine is "sequential" (default; fully deterministic) or
	// "parallel-bsp". Each algorithm is an independent read-only pass over
	// the pre-generated graph on the Common.Parallel-bounded pool; note
	// that "parallel-bsp" engines spin their own intra-algorithm workers,
	// so combining both knobs oversubscribes the machine (see DESIGN.md,
	// "Intra-run parallelism").
	Engine string `json:"engine"`
}

// ExampleJSON is a ready-to-run graph scenario document.
const ExampleJSON = `{
  "kind": "graph",
  "generator": "rmat", "scale": 12, "edgeFactor": 16,
  "algorithms": ["bfs", "pagerank", "wcc", "cdlp", "lcc", "sssp"],
  "engine": "sequential", "parallel": 2, "seed": 9
}`

type graphScenario struct {
	kind       GeneratorKind
	scale      int
	edgeFactor int
	algorithms []Algorithm
	engine     Engine
	parallel   int
	seed       int64
}

func init() {
	scenario.Register("graph", func() scenario.Scenario { return &graphScenario{} })
}

// Name implements scenario.Scenario.
func (g *graphScenario) Name() string { return "graph" }

// Example implements scenario.Exampler.
func (g *graphScenario) Example() string { return ExampleJSON }

// Configure implements scenario.Scenario.
func (g *graphScenario) Configure(raw json.RawMessage) error {
	var cfg ScenarioJSON
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return err
	}
	if err := cfg.RejectFailures("graph"); err != nil {
		return err
	}
	switch cfg.Generator {
	case "", "rmat":
		g.kind = RMAT
	case "er":
		g.kind = ER
	case "grid2d":
		g.kind = Grid2D
	default:
		return fmt.Errorf("graph scenario: unknown generator %q", cfg.Generator)
	}
	g.scale = cfg.Scale
	if g.scale == 0 {
		g.scale = 12
	}
	if g.scale < 1 || g.scale > 28 {
		return fmt.Errorf("graph scenario: scale %d out of [1,28]", g.scale)
	}
	g.edgeFactor = cfg.EdgeFactor
	if len(cfg.Algorithms) == 0 {
		g.algorithms = Algorithms()
	} else {
		known := make(map[Algorithm]bool)
		for _, a := range Algorithms() {
			known[a] = true
		}
		for _, name := range cfg.Algorithms {
			alg := Algorithm(name)
			if !known[alg] {
				return fmt.Errorf("graph scenario: unknown algorithm %q", name)
			}
			g.algorithms = append(g.algorithms, alg)
		}
	}
	switch cfg.Engine {
	case "", "sequential":
		g.engine = Sequential
	case "parallel-bsp", "parallel":
		g.engine = ParallelBSP
	default:
		return fmt.Errorf("graph scenario: unknown engine %q", cfg.Engine)
	}
	g.parallel = cfg.Parallel
	g.seed = cfg.Seed
	return nil
}

// Schema implements scenario.Schemer (mcsim -strict).
func (g *graphScenario) Schema() any { return &ScenarioJSON{} }

// Run implements scenario.Scenario. The graph is generated once from the
// runner's kernel RNG; each algorithm then runs as an independent shard —
// one simulation event on its own sub-kernel — on the bounded worker pool
// (sim.PartitionedRun). Algorithms only read the shared graph, and their
// checksums merge in algorithm order, so the result is byte-identical at
// any pool size; the envelope's event count sums the shard kernels (one
// event per algorithm, exactly what the sequential loop produced), and so
// do an observed k's dispatch counters.
func (g *graphScenario) Run(k *sim.Kernel) (*scenario.Result, error) {
	// SSSP needs weights; generating them unconditionally keeps the graph
	// identical whichever algorithm subset runs.
	graph, err := Generate(g.kind, g.scale, g.edgeFactor, true, k.Rand())
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{
		"vertices":   float64(graph.NumVertices()),
		"edges":      float64(graph.NumEdges()),
		"degreeSkew": graph.DegreeSkew(),
	}
	type shard struct {
		checksum float64
		events   uint64
	}
	shards, err := sim.PartitionedRun(k, len(g.algorithms), g.parallel, g.seed,
		func(i int, sk *sim.Kernel) (shard, error) {
			var out shard
			var runErr error
			sk.AfterFunc(0, func(sim.Time) {
				res, err := RunAlgorithm(graph, g.algorithms[i], g.engine)
				if err != nil {
					runErr = err
					return
				}
				out.checksum = res.Checksum
			})
			sk.Run()
			if runErr != nil {
				return out, runErr
			}
			out.events = sk.Processed()
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	var events uint64
	for i, s := range shards {
		metrics["checksum."+string(g.algorithms[i])] = s.checksum
		events += s.events
	}
	return &scenario.Result{
		Metrics: metrics,
		Labels: map[string]string{
			"engine":    g.engine.String(),
			"generator": g.kind.String(),
		},
		Events: events,
	}, nil
}
