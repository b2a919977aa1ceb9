// Command perfbench is the repository's end-to-end benchmark: document in,
// report bytes out. It generates scenario documents from a workload seed,
// sends them through the public front door (scenario.ParseCommon →
// scenario.New → scenario.RunScenario → mcsim's JSON encoding, or for the
// campaign dist.Coordinator over HTTP), checks every report, and prints
// one JSON line of metrics. See README.md for the workloads and metrics.
//
//	perfbench --workload banking-backlog --seed 1 --seconds 10 --trace 0
//
// Run it from the repository root; perfbench/run.py builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mcs/internal/stats"

	// Ecosystem packages register their scenario kinds on import.
	_ "mcs/internal/autoscale"
	_ "mcs/internal/banking"
	_ "mcs/internal/gaming"
	_ "mcs/internal/opendc"
)

// metricSpec declares one reported metric; the lists below must match
// BENCHMARK.json (a test checks that they do).
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
	{"ok_frac", "frac"}, {"cells_per_s", "1/s"}, {"cell_s.p50", "s"}, {"cell_s.p95", "s"},
}

var perLayer = []metricSpec{
	{"scenario.parse_s", "s"}, {"scenario.configure_s", "s"}, {"scenario.configure.alloc_mb", "MB"},
	{"scenario.run_s", "s"}, {"scenario.run.events_per_s", "1/s"}, {"scenario.run.alloc_mb", "MB"},
	{"scenario.run.gc_cycles", "count"}, {"scenario.encode_s", "s"}, {"scenario.report_bytes", "bytes"},
	{"scenario.expand_s", "s"}, {"scenario.combine_s", "s"}, {"scenario.cell_s.p50", "s"},
	{"workload.synth_s", "s"}, {"trace.load_s", "s"},
	{"sim.events", "count"}, {"sim.dispatch.heap", "count"}, {"sim.dispatch.wheel", "count"},
	{"sim.dispatch.immediate", "count"}, {"sim.dispatch.stream", "count"}, {"sim.canceled", "count"},
	{"sim.horizon_overflow", "count"}, {"sim.wheel_share", "frac"},
	{"dist.cells_executed", "count"}, {"dist.useful_ratio", "frac"}, {"dist.retries", "count"},
	{"dist.idle_frac", "frac"}, {"dist.transport_s", "s"},
	{"tracing.overhead_s", "s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	scale        scale
	workdir      string
	writeDigests string
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err == nil {
		var res *result
		if res, err = runWorkload(opts, os.Stderr); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		o         options
		traceFlag int
		scaleName string
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; the documents are generated from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	fs.StringVar(&scaleName, "scale", fullScale.name, "document sizes: full or smoke")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for set-up files and span dumps")
	fs.StringVar(&o.writeDigests, "write-digests", "", "record the reports' digests for this seed into this file (e.g. perfbench/digests.json)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if !slices.Contains(workloadNames, o.workload) {
		return o, fmt.Errorf("--workload must be one of %v", workloadNames)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = traceFlag == 1
	if o.writeDigests != "" && o.seed != defaultSeed {
		return o, fmt.Errorf("--write-digests records the default seed's reports; use --seed %d", defaultSeed)
	}
	var err error
	o.scale, err = scaleByName(scaleName)
	return o, err
}

// setupReps is how many times a run sets up; setup_s is the median. Every
// set-up but the last uses documents from a neighbouring seed, so no
// set-up's warm-up pass meets documents an earlier one already ran, and a
// cache keyed on document bytes cannot hide the work of the first run.
const (
	setupReps       = 3
	setupSeedStride = 1_000_003
)

// runWorkload sets the workload up, measures it and returns the result
// line. Human-readable detail goes to log.
func runWorkload(o options, log io.Writer) (*result, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	var (
		r          *runner
		setupTimes []float64
	)
	for k := setupReps - 1; k >= 0; k-- {
		seed := o.seed + int64(k)*setupSeedStride
		t0 := time.Now()
		r, err = setUp(o, seed, pins)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if k > 0 {
			r.in.close()
		}
	}
	defer r.in.close()
	if o.writeDigests != "" {
		if bad := r.gate.badRefs(); len(bad) > 0 {
			return nil, fmt.Errorf("not recording digests of failing reports: %v", bad)
		}
		refs := map[string][]byte{}
		for _, d := range r.in.docs {
			refs[d.id] = r.gate.ref[d.id]
		}
		if err := writePins(o.writeDigests, o.workload, o.scale, refs); err != nil {
			return nil, err
		}
	}
	if o.trace {
		r.tr = newTracer()
	}
	passes, err := r.measure(o.seconds)
	if err != nil {
		return nil, err
	}

	res := &result{Attempted: r.gate.attempted, Failed: r.gate.failed, Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, e := range r.gate.errs {
		fmt.Fprintln(log, "perfbench: FAIL", e)
	}
	if o.trace {
		values := layerValues(passes)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
		}
		path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := r.tr.dump(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "perfbench: %d spans written to %s\n", len(r.tr.spans), path)
		printSelfTimes(log, r.tr.selfTimes(), countTraced(passes))
		printDispatch(log, o.workload, values)
	} else {
		values := endToEndValues(passes, setupTimes, res)
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
		}
	}
	walls := make([]float64, len(passes))
	for i, p := range passes {
		walls[i] = p.wall.Seconds()
	}
	fmt.Fprintf(log, "perfbench: %s seed=%d: set-up s %.4f %.4f %.4f; %d passes, wall s min %.4f median %.4f max %.4f; %d attempted, %d failed\n",
		o.workload, o.seed, setupTimes[0], setupTimes[1], setupTimes[2], len(passes),
		slices.Min(walls), stats.Quantile(walls, 0.5), slices.Max(walls), res.Attempted, res.Failed)
	return res, nil
}

// setUp generates a workload's inputs from seed and runs them once,
// untimed, recording the reference reports the measured passes are
// checked against (and, at the default seed, checking the pinned digests).
func setUp(o options, seed int64, pins map[string]string) (*runner, error) {
	dir := filepath.Join(o.workdir, fmt.Sprintf("%s-seed%d-%d", o.workload, seed, os.Getpid()))
	in, err := setup(o.workload, seed, o.scale, dir)
	if err != nil {
		return nil, err
	}
	r := newRunner(o.workload, in)
	checkPins := seed == defaultSeed && o.writeDigests == ""
	if err := r.warmup(pins, o.workload, o.scale, checkPins); err != nil {
		in.close()
		return nil, err
	}
	return r, nil
}

// endToEndValues reduces the passes of an untraced run to medians over
// passes. Cell turnaround quantiles are taken within each pass (a campaign
// pass has 210 cells, so at least ten lie beyond its p95) and then the
// median over passes is reported, so one slow pass cannot own the tail.
func endToEndValues(passes []pass, setupTimes []float64, res *result) map[string]float64 {
	var walls, cpus, rates, p50s, p95s, peaks []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		rates = append(rates, float64(p.units)/p.wall.Seconds())
		p50s = append(p50s, stats.Quantile(p.unitTimes, 0.5))
		p95s = append(p95s, stats.Quantile(p.unitTimes, 0.95))
		peaks = append(peaks, p.peakMB)
	}
	return map[string]float64{
		"wall_s":      stats.Quantile(walls, 0.5),
		"cpu_s":       stats.Quantile(cpus, 0.5),
		"setup_s":     stats.Quantile(setupTimes, 0.5),
		"peak_rss_mb": stats.Quantile(peaks, 0.5),
		"ok_frac":     float64(res.Attempted-res.Failed) / float64(max(res.Attempted, 1)),
		"cells_per_s": stats.Quantile(rates, 0.5),
		"cell_s.p50":  stats.Quantile(p50s, 0.5),
		"cell_s.p95":  stats.Quantile(p95s, 0.5),
	}
}

// layerValues reduces a traced run: the median of each per-layer value
// over the traced passes, plus the tracing overhead, the traced passes'
// median wall time minus the untraced ones'.
func layerValues(passes []pass) map[string]float64 {
	perName := map[string][]float64{}
	var traced, untraced []float64
	for _, p := range passes {
		if !p.traced {
			untraced = append(untraced, p.wall.Seconds())
			continue
		}
		traced = append(traced, p.wall.Seconds())
		l := p.layer
		if l["scenario.run_s"] > 0 {
			l["scenario.run.events_per_s"] = l["sim.events"] / l["scenario.run_s"]
		}
		if d := l["sim.dispatch.heap"] + l["sim.dispatch.wheel"] + l["sim.dispatch.immediate"] + l["sim.dispatch.stream"]; d > 0 {
			l["sim.wheel_share"] = l["sim.dispatch.wheel"] / d
		}
		for _, m := range perLayer {
			perName[m.name] = append(perName[m.name], l[m.name])
		}
	}
	out := map[string]float64{}
	for name, vs := range perName {
		out[name] = stats.Quantile(vs, 0.5)
	}
	out["tracing.overhead_s"] = stats.Quantile(traced, 0.5) - stats.Quantile(untraced, 0.5)
	return out
}

func countTraced(passes []pass) int {
	n := 0
	for _, p := range passes {
		if p.traced {
			n++
		}
	}
	return n
}

// printDispatch prints the workload's kernel dispatch-path shares.
func printDispatch(log io.Writer, workload string, v map[string]float64) {
	total := v["sim.dispatch.heap"] + v["sim.dispatch.wheel"] + v["sim.dispatch.immediate"] + v["sim.dispatch.stream"]
	if total == 0 {
		return
	}
	fmt.Fprintf(log, "dispatch %s: heap %.4f  wheel %.4f  immediate %.4f  stream %.4f  (%.0f events/pass)\n", workload,
		v["sim.dispatch.heap"]/total, v["sim.dispatch.wheel"]/total,
		v["sim.dispatch.immediate"]/total, v["sim.dispatch.stream"]/total, total)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the kernel's resident-set high-water mark (VmHWM)
// for this process (Linux).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM, in megabytes (10^6 bytes).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
