package mcs_test

// This file is the top-level benchmark harness: one benchmark per paper
// figure (F1–F5) and table (T1–T5), plus the derived experiments (D1–D6)
// for the quantitative claims the paper imports from companion studies.
// `go test -bench=. -benchmem` regenerates every experiment; use
// cmd/mcsbench to print the full report tables.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mcs/internal/banking"
	"mcs/internal/dcmodel"
	"mcs/internal/experiments"
	"mcs/internal/federation"
	"mcs/internal/gaming"
	"mcs/internal/sim"
	"mcs/internal/workload"
)

// benchExperiment runs one experiment per benchmark iteration and fails the
// bench if the experiment errors or its headline claim collapses into an
// empty report.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, experiments.Options{Quick: true})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(rep.Rows) == 0 {
			b.Fatalf("%s: empty report", id)
		}
	}
}

func BenchmarkFigure1BigDataEcosystem(b *testing.B)     { benchExperiment(b, "F1") }
func BenchmarkFigure2EvolutionComposition(b *testing.B) { benchExperiment(b, "F2") }
func BenchmarkFigure3DatacenterRefArch(b *testing.B)    { benchExperiment(b, "F3") }
func BenchmarkFigure4GamingEcosystem(b *testing.B)      { benchExperiment(b, "F4") }
func BenchmarkFigure5FaaSRefArch(b *testing.B)          { benchExperiment(b, "F5") }

func BenchmarkTable1Overview(b *testing.B)        { benchExperiment(b, "T1") }
func BenchmarkTable2Principles(b *testing.B)      { benchExperiment(b, "T2") }
func BenchmarkTable3Challenges(b *testing.B)      { benchExperiment(b, "T3") }
func BenchmarkTable4UseCases(b *testing.B)        { benchExperiment(b, "T4") }
func BenchmarkTable5FieldComparison(b *testing.B) { benchExperiment(b, "T5") }

// BenchmarkKernelThroughput measures raw kernel event throughput with a
// fleet of self-rescheduling actors — the access pattern every ecosystem
// model produces. The "schedule" variant uses the handle-returning API; the
// "afterfunc" variant uses the pooled fire-and-forget path, whose events are
// recycled through the kernel's free list. Both go through the binary heap.
// The events/sec metric is the headline number tracked across kernel
// changes (see CHANGES.md for the recorded history).
func BenchmarkKernelThroughput(b *testing.B) {
	bench := func(b *testing.B, k *sim.Kernel, schedule func(k *sim.Kernel, delay sim.Time, fn sim.Handler)) {
		const actors = 256
		var step func(id int) sim.Handler
		step = func(id int) sim.Handler {
			return func(now sim.Time) {
				delay := sim.Time(id%7+1) * sim.Time(time.Millisecond)
				schedule(k, delay, step(id))
			}
		}
		for i := 0; i < actors; i++ {
			schedule(k, sim.Time(i)*sim.Time(time.Microsecond), step(i))
		}
		k.SetMaxEvents(uint64(b.N))
		b.ResetTimer()
		k.Run()
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	}
	mustSchedule := func(k *sim.Kernel, delay sim.Time, fn sim.Handler) { k.MustSchedule(delay, fn) }
	afterFunc := func(k *sim.Kernel, delay sim.Time, fn sim.Handler) { k.AfterFunc(delay, fn) }
	b.Run("schedule", func(b *testing.B) {
		bench(b, sim.New(42), mustSchedule)
	})
	b.Run("afterfunc", func(b *testing.B) {
		bench(b, sim.New(42), afterFunc)
	})
}

// BenchmarkFederationMultiSite measures one federated run end to end on an
// eight-site document — the intra-run parallelism gate. Every site carries
// its own workload (local-only routing keeps the shards balanced), so the
// run decomposes into eight equal per-site kernels. parallel=1 is the
// sequential path the federation always had; parallel=4 shards the site
// kernels across the bounded pool (internal/par via sim.PartitionedRun).
// On a multi-core host the parallel=1 : parallel=4 ns/op ratio is the
// intra-run speedup; both variants are pinned in BENCH_BASELINE.json so
// benchguard catches a regression in either path. The two variants produce
// deeply equal results by the pool-size-invariance contract
// (TestRunPoolSizeInvariance, TestPoolSizeInvariance).
func BenchmarkFederationMultiSite(b *testing.B) {
	const numSites = 8
	sites := make([]federation.Site, numSites)
	for i := range sites {
		r := rand.New(rand.NewSource(500 + int64(i)))
		w, err := workload.Generate(workload.GeneratorConfig{
			Jobs:    250,
			Arrival: workload.Poisson{RatePerHour: 900},
		}, r)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("site-%d", i)
		sites[i] = federation.Site{
			Name:    name,
			Cluster: dcmodel.NewHomogeneous(name, 4, dcmodel.ClassCommodity, 8),
			Local:   w.Jobs,
		}
	}
	for _, parallel := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			cfg := federation.Config{Seed: 21, Parallel: parallel}
			for i := 0; i < b.N; i++ {
				res, err := federation.Run(sites, federation.LocalOnly, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed == 0 {
					b.Fatal("no jobs completed")
				}
			}
		})
	}
}

// liveHeapMB is the peak-RSS proxy the million-entity benchmarks report:
// the live heap after a full GC, with the run's result (and thus the whole
// scenario state) still referenced. Unlike the process high-water mark it is
// order-independent across benchmarks sharing one process, which is what a
// regression ratchet needs; it tracks exactly the per-entity state the
// columnar refactor is accountable for.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	mb := float64(m.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(keep)
	return mb
}

// BenchmarkGamingMillionSessions runs the virtual world at the north star's
// scale: one million player sessions through the columnar engine (~3.4M
// kernel events — arrivals, departures, zone moves, monitor ticks). The
// session workload is generated once outside the timer; each iteration is a
// fresh kernel replaying it. events/sec and the live-heap peak-RSS proxy are
// pinned in BENCH_BASELINE.json and gated by benchguard in CI.
func BenchmarkGamingMillionSessions(b *testing.B) {
	cfg := gaming.WorldConfig{
		Zones:            64,
		ZoneCapacity:     500,
		ArrivalPerHour:   42000,
		DiurnalAmp:       0.5,
		MoveEveryMinutes: 30,
		Horizon:          24 * time.Hour,
		Seed:             99,
	}
	w, err := gaming.GenerateSessions(cfg, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		b.Fatal(err)
	}
	if len(w.Jobs) < 900_000 {
		b.Fatalf("generated %d sessions, want ~1M", len(w.Jobs))
	}
	cfg.Workload = w
	var events uint64
	var res *gaming.WorldResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.New(cfg.Seed)
		r, err := gaming.RunWorldOn(k, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.PlayersServed < 900_000 {
			b.Fatalf("served %d players, want ~1M", r.PlayersServed)
		}
		events += k.Processed()
		res = r
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(liveHeapMB(res), "peakRSS-MB")
}

// BenchmarkBankingMillionTransactions pushes one million payment
// transactions through the four-stage clearing pipeline under each queue
// discipline — the banking counterpart of the million-entity gates. The
// workload is generated once outside the timer; each iteration replays it
// on a fresh kernel through the columnar pipeline (handle columns, ring/
// 4-ary-heap queues, streamed admission). events/sec counts every kernel
// event (admissions, service completions, zero-delay re-admissions);
// peakRSS-MB is the live-heap proxy with the workload and result still
// referenced. Both are pinned in BENCH_BASELINE.json and gated by
// benchguard in CI; EDF's heap keeps it within ~2× FCFS's ring at this
// scale (the old linear scan was quadratic in backlog depth).
func BenchmarkBankingMillionTransactions(b *testing.B) {
	txs := banking.GenerateTransactions(1_000_000, 0.5, 77)
	for _, disc := range []banking.QueueDiscipline{banking.FCFS, banking.EDF} {
		b.Run(disc.String(), func(b *testing.B) {
			var events uint64
			var res *banking.ClearingResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := sim.New(77)
				r, err := banking.RunClearingOn(k, banking.DefaultPipeline(), txs, disc)
				if err != nil {
					b.Fatal(err)
				}
				if r.Completed != len(txs) {
					b.Fatalf("completed %d of %d transactions", r.Completed, len(txs))
				}
				events += k.Processed()
				res = r
			}
			b.StopTimer()
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
			b.ReportMetric(liveHeapMB([]any{txs, res}), "peakRSS-MB")
		})
	}
}

// BenchmarkSocialMillionUsers lives in internal/social (it holds the
// columnar engine state live for the peak-RSS measure); the CI bench job
// runs both million-entity benchmarks under the same benchguard gate.

func BenchmarkD1AutoscalerMatrix(b *testing.B)   { benchExperiment(b, "D1") }
func BenchmarkD2CorrelatedFailures(b *testing.B) { benchExperiment(b, "D2") }
func BenchmarkD3ElasticityMetrics(b *testing.B)  { benchExperiment(b, "D3") }
func BenchmarkD4GraphPAD(b *testing.B)           { benchExperiment(b, "D4") }
func BenchmarkD5SocialAware(b *testing.B)        { benchExperiment(b, "D5") }
func BenchmarkD6PerfVariability(b *testing.B)    { benchExperiment(b, "D6") }
