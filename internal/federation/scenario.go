package federation

// This file adapts the multi-datacenter federation to the scenario registry
// (internal/scenario), registered under "federation": a JSON schema for the
// member sites (cluster size, WAN delay, local workload) and the routing
// policy, and a thin scenario.Scenario implementation that routes the merged
// workload and aggregates the per-site simulations.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"mcs/internal/dcmodel"
	"mcs/internal/opendc"
	"mcs/internal/scenario"
	"mcs/internal/sim"
	"mcs/internal/workload"
)

// SiteJSON declares one member datacenter in the scenario document.
type SiteJSON struct {
	Name     string `json:"name"`
	Machines int    `json:"machines"`
	Class    string `json:"class"`
	RackSize int    `json:"rackSize"`
	// WANDelaySeconds is the submission latency delegated jobs pay to
	// reach this site.
	WANDelaySeconds float64 `json:"wanDelaySeconds"`
	// Jobs is the size of the site's local workload (0 = idle site).
	Jobs int `json:"jobs"`
	// Pattern is the local arrival pattern: poisson, bursty, diurnal.
	Pattern string `json:"pattern"`
	// Shape is the local job shape: bag, chain, forkjoin, dag.
	Shape string `json:"shape"`
}

// ScenarioJSON is the JSON schema of the "federation" scenario. The header
// fields (kind, seed, parallel — bounding the per-site kernel pool — and the
// failures overlay) come from the embedded scenario.Common.
type ScenarioJSON struct {
	scenario.Common
	Sites []SiteJSON `json:"sites"`
	// Policy is "local-only", "round-robin", or "least-loaded".
	Policy    string `json:"policy"`
	Scheduler struct {
		Queue     string `json:"queue"`
		Placement string `json:"placement"`
		Mode      string `json:"mode"`
	} `json:"scheduler"`
	HorizonSeconds float64 `json:"horizonSeconds"`
}

// ExampleJSON is a ready-to-run federation scenario document: a busy
// European site next to an idle American site, consolidated by load-aware
// delegation.
const ExampleJSON = `{
  "kind": "federation",
  "sites": [
    {"name": "eu-busy", "machines": 4, "rackSize": 8, "jobs": 300, "pattern": "bursty"},
    {"name": "us-idle", "machines": 12, "rackSize": 8, "wanDelaySeconds": 3}
  ],
  "policy": "least-loaded",
  "scheduler": {"queue": "sjf", "placement": "bestfit", "mode": "easy"},
  "parallel": 2,
  "seed": 21
}`

// PolicyByName maps a scenario document's "policy" field to a routing
// policy. The empty name defaults to "least-loaded".
func PolicyByName(name string) (RoutingPolicy, error) {
	switch name {
	case "local-only":
		return LocalOnly, nil
	case "round-robin":
		return RoundRobin, nil
	case "", "least-loaded":
		return LeastLoaded, nil
	default:
		return 0, fmt.Errorf("unknown routing policy %q", name)
	}
}

type federationScenario struct {
	sites   []Site
	policy  RoutingPolicy
	cfg     Config
	overlay *scenario.FailureOverlay
}

func init() {
	scenario.Register("federation", func() scenario.Scenario { return &federationScenario{} })
}

// Name implements scenario.Scenario.
func (f *federationScenario) Name() string { return "federation" }

// Example implements scenario.Exampler.
func (f *federationScenario) Example() string { return ExampleJSON }

// Schema implements scenario.Schemer (mcsim -strict).
func (f *federationScenario) Schema() any { return &ScenarioJSON{} }

// Configure implements scenario.Scenario.
func (f *federationScenario) Configure(raw json.RawMessage) error {
	var cfg ScenarioJSON
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return err
	}
	overlay, err := cfg.FailureOverlay()
	if err != nil {
		return err
	}
	f.overlay = overlay
	if len(cfg.Sites) == 0 {
		// Default federation: the example's busy/idle pair.
		cfg.Sites = []SiteJSON{
			{Name: "eu-busy", Machines: 4, RackSize: 8, Jobs: 300, Pattern: "bursty"},
			{Name: "us-idle", Machines: 12, RackSize: 8, WANDelaySeconds: 3},
		}
	}
	policy, err := PolicyByName(cfg.Policy)
	if err != nil {
		return err
	}
	f.policy = policy
	schedCfg, err := opendc.SchedulerByNames(cfg.Scheduler.Queue, cfg.Scheduler.Placement, cfg.Scheduler.Mode)
	if err != nil {
		return err
	}
	f.cfg = Config{
		Sched:    schedCfg,
		Horizon:  time.Duration(cfg.HorizonSeconds * float64(time.Second)),
		Seed:     cfg.Seed,
		Parallel: cfg.Parallel,
	}
	f.sites = f.sites[:0]
	for i, sj := range cfg.Sites {
		name := sj.Name
		if name == "" {
			name = fmt.Sprintf("site-%d", i)
		}
		machines := sj.Machines
		if machines <= 0 {
			machines = 8
		}
		class, err := opendc.ClassByName(sj.Class)
		if err != nil {
			return fmt.Errorf("site %q: %w", name, err)
		}
		site := Site{
			Name:     name,
			Cluster:  dcmodel.NewHomogeneous(name, machines, class, sj.RackSize),
			WANDelay: time.Duration(sj.WANDelaySeconds * float64(time.Second)),
		}
		if overlay != nil {
			// Each site draws its own timeline from an index-derived stream,
			// so site results stay independent shards (pool-size invariant).
			site.FailureSource = overlay.ShardSource(fmt.Sprintf("site-%d", i))
		}
		if sj.Jobs > 0 {
			gen := workload.GeneratorConfig{Jobs: sj.Jobs}
			if gen.Arrival, err = workload.ArrivalByName(sj.Pattern); err != nil {
				return fmt.Errorf("site %q: %w", name, err)
			}
			if gen.Shape, err = workload.ShapeByName(sj.Shape); err != nil {
				return fmt.Errorf("site %q: %w", name, err)
			}
			// Each site draws from its own derived stream so adding a
			// site never perturbs its neighbors' workloads.
			w, err := workload.Generate(gen, rand.New(rand.NewSource(cfg.Seed*1000003+int64(i))))
			if err != nil {
				return fmt.Errorf("site %q: %w", name, err)
			}
			site.Local = w.Jobs
		}
		f.sites = append(f.sites, site)
	}
	return nil
}

// Run implements scenario.Scenario. The federation drives one sub-kernel
// per site (independent kernels are safe to run side by side); the runner's
// kernel fires no events, so the envelope's event count is summed from the
// sites, as are k's dispatch counters when it is observed.
func (f *federationScenario) Run(k *sim.Kernel) (*scenario.Result, error) {
	res, err := RunOn(k, f.sites, f.policy, f.cfg)
	if err != nil {
		return nil, err
	}
	var events uint64
	var shards []scenario.FailureShard
	for i, sr := range res.Sites {
		if sr.Result == nil {
			continue
		}
		events += sr.Result.SimulatedEvents
		if f.overlay != nil {
			shards = append(shards, scenario.FailureShard{
				Events: sr.Result.FailureEvents,
				Units:  len(f.sites[i].Cluster.Machines),
				Window: sr.Result.FailureWindow,
			})
		}
	}
	metrics := map[string]float64{
		"sites":           float64(len(res.Sites)),
		"completed":       float64(res.Completed),
		"failed":          float64(res.Failed),
		"delegated":       float64(res.Delegated),
		"meanWaitSeconds": res.MeanWait.Seconds(),
		"p95WaitSeconds":  res.P95Wait.Seconds(),
		"utilization":     res.Utilization,
	}
	f.overlay.AddMetrics(metrics, shards...)
	return &scenario.Result{
		Metrics: metrics,
		Labels:  map[string]string{"policy": res.Policy.String()},
		Events:  events,
	}, nil
}
