// Package federation implements the multi-datacenter operation of paper C10
// ("Interoperate assemblies, dynamically: geo-distributed, federated,
// multi-DC operation, and service delegation"): a federation of sites, each
// a full simulated datacenter, with routing policies that delegate jobs
// across sites — the "cloud-of-clouds" consolidation argument of refs
// [126], [127].
package federation

import (
	"fmt"
	"sort"
	"time"

	"mcs/internal/dcmodel"
	"mcs/internal/failure"
	"mcs/internal/opendc"
	"mcs/internal/sched"
	"mcs/internal/sim"
	"mcs/internal/workload"
)

// Site is one member datacenter of the federation.
type Site struct {
	Name    string
	Cluster *dcmodel.Cluster
	// WANDelay is the one-way submission latency from the federation's
	// entry point to this site (geo-distribution cost).
	WANDelay time.Duration
	// Local jobs originate at this site (they pay no WAN delay when
	// scheduled locally).
	Local []workload.Job
	// FailureSource, when non-nil, supplies the site's pre-drawn failure
	// timeline (see opendc.Scenario.FailureSource). Sites that receive no
	// jobs never start an engine and therefore host no failure process.
	FailureSource func(n int, horizon time.Duration, racks []string) ([]failure.Event, error)
}

// RoutingPolicy decides which site each job runs on.
type RoutingPolicy int

// Routing policies. LocalOnly pins jobs to their origin site (no
// federation); RoundRobin spreads jobs blindly; LeastLoaded delegates each
// job to the site with the smallest outstanding work per core — the
// consolidation mechanism C10 argues for.
const (
	LocalOnly RoutingPolicy = iota + 1
	RoundRobin
	LeastLoaded
)

// String implements fmt.Stringer.
func (p RoutingPolicy) String() string {
	switch p {
	case LocalOnly:
		return "local-only"
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	default:
		return "routing?"
	}
}

// SiteResult pairs a site with its simulation result.
type SiteResult struct {
	Site   string
	Result *opendc.Result
	Jobs   int
}

// Result aggregates a federated run.
type Result struct {
	Policy    RoutingPolicy
	Sites     []SiteResult
	Completed int
	Failed    int
	// MeanWait and P95Wait are computed over all tasks of all sites.
	MeanWait time.Duration
	P95Wait  time.Duration
	// Utilization is the core-weighted mean across sites.
	Utilization float64
	// Delegated counts jobs that ran away from their origin site.
	Delegated int
}

// Config tunes a federated run.
type Config struct {
	Sched   sched.Config
	Horizon time.Duration
	Seed    int64
	// Parallel bounds the worker pool running the per-site kernels
	// (0 = GOMAXPROCS, 1 = sequential). Sites are independent
	// sub-simulations with per-site seeds, so the pool size affects
	// wall-clock only, never the result.
	Parallel int
}

// Run routes every job to a site under the policy, runs each site's
// datacenter simulation, and merges the results. Delegated jobs pay the
// destination site's WAN delay on their submit time.
//
// The per-site simulations are independent shards — each site gets its own
// cluster, workload slice, kernel seeded cfg.Seed+siteIndex, and a fresh
// instance of any stateful scheduling policy — so they execute concurrently
// on a bounded pool (cfg.Parallel) and fold in site order. The result is
// byte-identical at any pool size.
func Run(sites []Site, policy RoutingPolicy, cfg Config) (*Result, error) {
	return RunOn(sim.New(cfg.Seed), sites, policy, cfg)
}

// RunOn is Run with a caller-provided parent kernel — the entry point used
// by the scenario registry, where the runner owns the kernel. The sites
// still run on their own sub-kernels (sim.PartitionedRun); an observed k
// receives their dispatch counters, summed in site order.
func RunOn(k *sim.Kernel, sites []Site, policy RoutingPolicy, cfg Config) (*Result, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("federation: no sites")
	}
	// outstanding[i] is the routed-but-unexecuted work estimate per core.
	outstanding := make([]float64, len(sites))
	cores := make([]float64, len(sites))
	for i, s := range sites {
		if s.Cluster == nil || len(s.Cluster.Machines) == 0 {
			return nil, fmt.Errorf("federation: site %q has no cluster", s.Name)
		}
		cores[i] = float64(s.Cluster.TotalCores())
	}
	routed := make([][]workload.Job, len(sites))
	delegated := 0

	// Merge all jobs in submit order for online routing decisions.
	type originJob struct {
		job    workload.Job
		origin int
	}
	var all []originJob
	for i, s := range sites {
		for _, j := range s.Local {
			all = append(all, originJob{job: j, origin: i})
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].job.Submit < all[b].job.Submit })

	rrNext := 0
	for _, oj := range all {
		target := oj.origin
		switch policy {
		case LocalOnly:
			// keep target
		case RoundRobin:
			target = rrNext % len(sites)
			rrNext++
		case LeastLoaded:
			best := 0
			bestLoad := outstanding[0] / cores[0]
			for i := 1; i < len(sites); i++ {
				if load := outstanding[i] / cores[i]; load < bestLoad {
					bestLoad = load
					best = i
				}
			}
			target = best
		default:
			return nil, fmt.Errorf("federation: unknown policy %v", policy)
		}
		job := oj.job
		if target != oj.origin {
			delegated++
			job.Submit += sites[target].WANDelay
		}
		outstanding[target] += job.TotalWork().Seconds()
		routed[target] = append(routed[target], job)
	}

	// Each site is one shard: its own cluster, its own routed jobs, its own
	// kernel seeded cfg.Seed+i (the law the sequential loop always used),
	// and a fresh copy of any stateful queue policy so concurrent engines
	// never share policy memory.
	siteRuns, err := sim.PartitionedRun(k, len(sites), cfg.Parallel, cfg.Seed,
		func(i int, k *sim.Kernel) (SiteResult, error) {
			s := sites[i]
			jobs := routed[i]
			sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Submit < jobs[b].Submit })
			if len(jobs) == 0 {
				return SiteResult{Site: s.Name, Jobs: 0}, nil
			}
			siteRes, err := opendc.RunOn(k, &opendc.Scenario{
				Cluster:       s.Cluster,
				Workload:      &workload.Workload{Jobs: jobs},
				Sched:         cfg.Sched.Fresh(),
				FailureSource: s.FailureSource,
				Horizon:       cfg.Horizon,
				Seed:          cfg.Seed + int64(i),
			})
			if err != nil {
				return SiteResult{}, fmt.Errorf("federation: site %q: %w", s.Name, err)
			}
			return SiteResult{Site: s.Name, Result: siteRes, Jobs: len(jobs)}, nil
		})
	if err != nil {
		return nil, err
	}

	// Fold strictly in site order: wait samples, counters, and the
	// core-weighted utilization accumulate exactly as the sequential loop
	// did, so the merged result never depends on completion order.
	res := &Result{Policy: policy, Delegated: delegated}
	var waits []time.Duration
	var utilNum, utilDen float64
	for i, sr := range siteRuns {
		res.Sites = append(res.Sites, sr)
		if sr.Result == nil {
			continue
		}
		res.Completed += sr.Result.Completed
		res.Failed += sr.Result.Failed
		for _, rec := range sr.Result.Records {
			if rec.Completed {
				waits = append(waits, rec.Wait())
			}
		}
		utilNum += sr.Result.Utilization * cores[i]
		utilDen += cores[i]
	}
	if len(waits) > 0 {
		sort.Slice(waits, func(a, b int) bool { return waits[a] < waits[b] })
		var sum time.Duration
		for _, w := range waits {
			sum += w
		}
		res.MeanWait = sum / time.Duration(len(waits))
		res.P95Wait = waits[int(0.95*float64(len(waits)-1))]
	}
	if utilDen > 0 {
		res.Utilization = utilNum / utilDen
	}
	return res, nil
}
