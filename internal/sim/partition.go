package sim

// Intra-run parallelism: a scenario whose state factors into independent
// shards (federation sites, graph-algorithm runs, interaction-free gaming
// zones) can execute those shards as concurrent sub-simulations instead of
// one long single-threaded kernel. PartitionedRun is the shared helper: it
// pins the per-shard seed law and routes the fan-out through the
// repository's one ordered-parallel pool (internal/par), so every caller
// inherits the same determinism argument — shard results depend only on
// (seed, shard index), and the merge order is the shard order, so the
// output bytes are identical at any pool size.

import (
	"mcs/internal/obs"
	"mcs/internal/par"
)

// PartitionedRun executes shards independent sub-simulations on a bounded
// worker pool and returns the per-shard results in shard order. Each shard
// runs fn on its own fresh kernel seeded seed+int64(shard) — the per-shard
// seed law the federation's sites have always used — so a shard's result is
// a pure function of the base seed and its index, never of pool size,
// scheduling, or sibling shards.
//
// workers follows par.Workers: non-positive defaults to GOMAXPROCS, and 1
// runs the shards inline in index order (the sequential behavior the pool
// generalizes). The error surfaced is the lowest-index shard error; see
// par.MapOrdered.
//
// Shard functions must not share mutable state (that is what makes them
// shards); read-only structures such as a pre-generated graph are safe to
// share.
//
// parent is the caller's kernel. When it is observed (WithKernelStats),
// every shard kernel counts into its own obs.KernelStats — the counters are
// not atomic, so shards never share one — and the pool's totals are added
// into the parent's stats in shard order once every shard has finished.
// Shard stats carry no heartbeat hook.
func PartitionedRun[T any](parent *Kernel, shards, workers int, seed int64, fn func(shard int, k *Kernel) (T, error)) ([]T, error) {
	var st []obs.KernelStats
	if parent.stats != nil {
		st = make([]obs.KernelStats, shards)
	}
	out, err := par.MapOrdered(shards, workers, func(i int) (T, error) {
		if st == nil {
			return fn(i, New(seed+int64(i)))
		}
		return fn(i, New(seed+int64(i), WithKernelStats(&st[i])))
	})
	for i := range st {
		parent.stats.HeapDispatched += st[i].HeapDispatched
		parent.stats.ImmediateDispatched += st[i].ImmediateDispatched
		parent.stats.StreamDispatched += st[i].StreamDispatched
		parent.stats.Canceled += st[i].Canceled
	}
	return out, err
}
