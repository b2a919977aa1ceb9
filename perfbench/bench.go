package main

// The measured loop: one pass sends every document of a workload through
// the front door — scenario.ParseCommon → scenario.New →
// scenario.RunScenario → the JSON encoding mcsim writes — or, for the
// campaign, the sweep document through dist.Coordinator to the HTTP fleet.
// Passes repeat until the run's time is up. In a traced run every other
// pass is traced (spans, kernel counters, allocation) and followed by
// probes that time single layers from outside; the untraced passes in
// between give the tracing overhead.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mcs/internal/dist"
	"mcs/internal/obs"
	"mcs/internal/scenario"
	"mcs/internal/stats"
	"mcs/internal/trace"
)

// layers collects one traced pass's per-layer values; nil in an untraced
// pass, where add is a no-op.
type layers map[string]float64

func (l layers) add(name string, v float64) {
	if l != nil {
		l[name] += v
	}
}

// pass is what one pass measured.
type pass struct {
	traced    bool
	wall, cpu time.Duration
	units     int       // documents or cells the pass finished
	unitTimes []float64 // seconds per document, or per cell (started → finished)
	layer     layers
	peakMB    float64 // resident-set high-water mark during the pass
}

type runner struct {
	name     string
	in       *inputs
	tr       *tracer // nil in an untraced run
	gate     *gate
	campaign bool
	cellIDs  []string // campaign: gate ids of the cells, in grid order
}

func newRunner(name string, in *inputs) *runner {
	return &runner{name: name, in: in, gate: newGate(), campaign: in.fleet != nil}
}

// encode writes a report exactly as mcsim does.
func encode(res *scenario.Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(res)
	return buf.Bytes(), err
}

// call runs fn as span name under parent. In a traced pass (l non-nil) it
// adds the call's seconds to l[name+"_s"] and, with mem, the megabytes it
// allocated and the GC cycles it spanned.
func call(tr *tracer, l layers, name string, parent int, doc string, mem bool, fn func() error) error {
	if l == nil {
		return fn()
	}
	var m0, m1 runtime.MemStats
	if mem {
		runtime.ReadMemStats(&m0)
	}
	sp := tr.begin(name, parent, doc)
	t0 := time.Now()
	err := fn()
	dt := time.Since(t0)
	tr.end(sp)
	l.add(name+"_s", dt.Seconds())
	if mem {
		runtime.ReadMemStats(&m1)
		l.add(name+".alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		l.add(name+".gc_cycles", float64(m1.NumGC-m0.NumGC))
	}
	return err
}

// addKernel adds one kernel's dispatch counters to l and checks that they
// account for every event the report claims.
func addKernel(l layers, st *obs.KernelStats, res *scenario.Result) error {
	snap := st.Snapshot()
	l.add("sim.events", float64(res.Events))
	l.add("sim.dispatch.heap", float64(snap.HeapDispatched))
	l.add("sim.dispatch.wheel", float64(snap.WheelDispatched))
	l.add("sim.dispatch.immediate", float64(snap.ImmediateDispatched))
	l.add("sim.dispatch.stream", float64(snap.StreamDispatched))
	l.add("sim.canceled", float64(snap.Canceled))
	l.add("sim.horizon_overflow", float64(snap.HorizonOverflow))
	if snap.Dispatched() != res.Events {
		return fmt.Errorf("kernel dispatched %d events, report says %d", snap.Dispatched(), res.Events)
	}
	return nil
}

// runDoc sends one document through the front door and returns the report
// bytes. A traced pass instruments the kernel and times each call.
func runDoc(d docSpec, tr *tracer, parent int, l layers) ([]byte, error) {
	return attempt(func() ([]byte, error) {
		root := tr.begin("document", parent, d.id)
		defer tr.end(root)
		var env scenario.Common
		if err := call(tr, l, "scenario.parse", root, d.id, false, func() (err error) {
			env, err = scenario.ParseCommon(d.raw)
			return err
		}); err != nil {
			return nil, err
		}
		var s scenario.Scenario
		if err := call(tr, l, "scenario.configure", root, d.id, true, func() (err error) {
			s, err = scenario.New(env.Kind, d.raw)
			return err
		}); err != nil {
			return nil, err
		}
		var res *scenario.Result
		var st *obs.KernelStats
		if err := call(tr, l, "scenario.run", root, d.id, true, func() (err error) {
			if l == nil {
				res, err = scenario.RunScenario(s, env.Seed)
				return err
			}
			st = &obs.KernelStats{}
			res, err = scenario.RunScenarioObserved(s, env.Seed, st)
			return err
		}); err != nil {
			return nil, err
		}
		var out []byte
		if err := call(tr, l, "scenario.encode", root, d.id, false, func() (err error) {
			out, err = encode(res)
			return err
		}); err != nil {
			return nil, err
		}
		if l != nil {
			l.add("scenario.report_bytes", float64(len(out)))
			if err := addKernel(l, st, res); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
}

// warmup runs the workload once, untimed, and records the reference
// reports every later pass is checked against.
func (r *runner) warmup(pins map[string]string, workload string, sc scale, checkPins bool) error {
	if r.campaign {
		return r.warmupCampaign(pins, workload, sc, checkPins)
	}
	for _, d := range r.in.docs {
		out, err := runDoc(d, nil, -1, nil)
		r.gate.setReference(d.id, out, err, pins[pinKey(workload, d.id, sc)], checkPins)
	}
	for _, d := range r.in.docs {
		if d.sameAs != "" {
			r.gate.requireSame(d.id, d.sameAs, fmt.Sprintf("report differs from that of %q", d.sameAs))
		}
	}
	return nil
}

// warmupCampaign records the in-process sweep report (scenario.RunDocument)
// as the reference for the distributed one, then runs one distributed pass
// to warm the fleet's connections.
func (r *runner) warmupCampaign(pins map[string]string, workload string, sc scale, checkPins bool) error {
	d := r.in.docs[0]
	var res *scenario.Result
	out, err := attempt(func() ([]byte, error) {
		var err error
		if res, err = scenario.RunDocument(d.raw); err != nil {
			return nil, err
		}
		return encode(res)
	})
	r.gate.setReference(d.id, out, err, pins[pinKey(workload, d.id, sc)], checkPins)
	if err != nil {
		return fmt.Errorf("in-process sweep: %w", err)
	}
	for i, cell := range res.Cells {
		id := fmt.Sprintf("cell %d", i)
		b, err := json.Marshal(cell)
		r.gate.setReference(id, b, err, "", false)
		r.cellIDs = append(r.cellIDs, id)
	}
	r.campaignPass(false)
	// The warm-up pass only warms; the measured passes repeat its checks.
	r.gate.attempted, r.gate.failed, r.gate.errs = 0, 0, nil
	return nil
}

// measure repeats passes until seconds have elapsed and at least
// minPasses ran (two of each kind in a traced run). Each pass starts from
// a collected heap handed back to the OS, as a fresh mcsim process does,
// and records the resident-set high-water mark it reached.
func (r *runner) measure(seconds float64) ([]pass, error) {
	minPasses := 3
	if r.tr != nil {
		minPasses = 4
	}
	start := time.Now()
	var passes []pass
	for i := 0; len(passes) < minPasses || time.Since(start).Seconds() < seconds; i++ {
		traced := r.tr != nil && i%2 == 0
		runtime.GC()
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		var p pass
		if r.campaign {
			p = r.campaignPass(traced)
		} else {
			p = r.docPass(traced)
		}
		var err error
		if p.peakMB, err = peakRSSMB(); err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return passes, nil
}

func (r *runner) passTracer(traced bool) (*tracer, layers) {
	if !traced {
		return nil, nil
	}
	return r.tr, layers{}
}

// docPass sends every document once and checks the reports.
func (r *runner) docPass(traced bool) pass {
	tr, l := r.passTracer(traced)
	p := pass{traced: traced, layer: l, units: len(r.in.docs)}
	outs := make([][]byte, len(r.in.docs))
	errs := make([]error, len(r.in.docs))
	root := tr.begin("pass", -1, r.name)
	c0, t0 := cpuTime(), time.Now()
	for i, d := range r.in.docs {
		s := time.Now()
		outs[i], errs[i] = runDoc(d, tr, root, l)
		p.unitTimes = append(p.unitTimes, time.Since(s).Seconds())
	}
	p.wall, p.cpu = time.Since(t0), cpuTime()-c0
	tr.end(root)
	for i, d := range r.in.docs {
		r.gate.check(d.id, outs[i], errs[i])
	}
	if traced {
		r.probeSources(tr, l)
	}
	return p
}

// probeSources times the workload-source layer from outside: the public
// generator with each document's parameters, and the .mcw source's Load.
func (r *runner) probeSources(tr *tracer, l layers) {
	for _, d := range r.in.docs {
		var err error
		if d.synth != nil {
			err = call(tr, l, "workload.synth", -1, d.id, false, func() error {
				_, err := d.synth()
				return err
			})
		}
		if d.trace != "" {
			err = call(tr, l, "trace.load", -1, d.id, false, func() error {
				_, err := trace.File{Path: d.trace, Format: trace.FormatMCW}.Load()
				return err
			})
		}
		if err != nil {
			r.gate.check(d.id+" source", nil, err)
		}
	}
}

// cellClock is the campaign's obs.Sink: it stamps cell-started and
// cell-finished events as they arrive and counts retries.
type cellClock struct {
	mu      sync.Mutex
	started map[int]time.Time
	turn    []float64
	retries int
}

func newCellClock() *cellClock { return &cellClock{started: map[int]time.Time{}} }

// Emit implements obs.Sink. A cell's turnaround runs from the first time
// it was handed to a worker to the one time it finished.
func (c *cellClock) Emit(ev obs.Event) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Type {
	case obs.CellStarted:
		if _, ok := c.started[ev.Cell]; !ok {
			c.started[ev.Cell] = now
		}
	case obs.CellFinished:
		if s, ok := c.started[ev.Cell]; ok {
			c.turn = append(c.turn, now.Sub(s).Seconds())
		}
	case obs.CellRetried:
		c.retries++
	}
}

// watchedWorker wraps a fleet worker in a traced pass: a span per work
// unit, the time a unit was in flight, and the cell results received.
type watchedWorker struct {
	dist.Worker
	tr       *tracer
	parent   int
	received atomic.Int64
	busy     atomic.Int64 // nanoseconds with a unit in flight
}

// Run implements dist.Worker.
func (w *watchedWorker) Run(ctx context.Context, unit dist.WorkUnit, emit func(dist.CellResult)) error {
	sp := w.tr.begin("dist.unit", w.parent, fmt.Sprintf("unit %d", unit.ID))
	t0 := time.Now()
	err := w.Worker.Run(ctx, unit, func(res dist.CellResult) {
		w.received.Add(1)
		emit(res)
	})
	w.busy.Add(int64(time.Since(t0)))
	w.tr.end(sp)
	return err
}

// campaignPass runs the sweep document through a fresh coordinator on the
// fleet and checks the combined report and each cell against the
// in-process sweep.
func (r *runner) campaignPass(traced bool) pass {
	tr, l := r.passTracer(traced)
	p := pass{traced: traced, layer: l, units: len(r.cellIDs)}
	d := r.in.docs[0]
	clock := newCellClock()
	var (
		res     *scenario.Result
		fails   []dist.Failure
		watched []*watchedWorker
		distDur time.Duration
	)
	root := tr.begin("pass", -1, r.name)
	c0, t0 := cpuTime(), time.Now()
	out, err := attempt(func() ([]byte, error) {
		var env scenario.Common
		if err := call(tr, l, "scenario.parse", root, d.id, false, func() (err error) {
			env, err = scenario.ParseCommon(d.raw)
			return err
		}); err != nil {
			return nil, err
		}
		if env.Kind != "sweep" {
			return nil, fmt.Errorf("campaign document is %q, not a sweep", env.Kind)
		}
		workers := r.in.fleet.workers()
		sp := tr.begin("dist.campaign", root, d.id)
		if traced {
			for i, w := range workers {
				ww := &watchedWorker{Worker: w, tr: tr, parent: sp}
				watched = append(watched, ww)
				workers[i] = ww
			}
		}
		coord, err := dist.NewCoordinator(workers, dist.Options{Events: clock})
		if err != nil {
			tr.end(sp)
			return nil, err
		}
		s := time.Now()
		res, fails, err = coord.Run(context.Background(), d.raw)
		distDur = time.Since(s)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		var b []byte
		err = call(tr, l, "scenario.encode", root, d.id, false, func() (err error) {
			b, err = encode(res)
			return err
		})
		return b, err
	})
	p.wall, p.cpu = time.Since(t0), cpuTime()-c0
	tr.end(root)
	p.unitTimes = clock.turn
	r.checkCampaign(out, err, res, fails)
	if traced {
		l.add("scenario.report_bytes", float64(len(out)))
		l.add("dist.retries", float64(clock.retries))
		var received, busy int64
		for _, w := range watched {
			received += w.received.Load()
			busy += w.busy.Load()
		}
		l.add("dist.cells_executed", float64(received))
		if received > 0 && res != nil {
			l.add("dist.useful_ratio", float64(len(res.Cells))/float64(received))
		}
		if len(watched) > 0 && distDur > 0 {
			l.add("dist.idle_frac", 1-float64(busy)/(float64(len(watched))*float64(distDur)))
		}
		l.add("dist.campaign_s", distDur.Seconds())
		r.probeCampaign(tr, l, res)
	}
	return p
}

// checkCampaign counts the campaign's cells and its combined report.
func (r *runner) checkCampaign(out []byte, err error, res *scenario.Result, fails []dist.Failure) {
	if err == nil && len(res.Cells) != len(r.cellIDs) {
		err = fmt.Errorf("report has %d cells, the sweep has %d", len(res.Cells), len(r.cellIDs))
	}
	if err != nil {
		for _, id := range r.cellIDs {
			r.gate.check(id, nil, err)
		}
		r.gate.check(r.in.docs[0].id, nil, err)
		return
	}
	failed := map[int]dist.Failure{}
	for _, f := range fails {
		failed[f.Index] = f
	}
	for i, id := range r.cellIDs {
		if f, ok := failed[i]; ok {
			r.gate.check(id, nil, fmt.Errorf("%s failure after %d attempts: %s", f.Type, f.Attempts, f.Msg))
			continue
		}
		b, err := json.Marshal(res.Cells[i])
		r.gate.check(id, b, err)
	}
	r.gate.check(r.in.docs[0].id, out, nil)
}

// probeCampaign times the campaign's scenario layer from outside: grid
// expansion, the combine step, the same document through in-process
// scenario.RunDocument (whose report must match), and every cell through
// in-process scenario.RunCell and an instrumented kernel.
func (r *runner) probeCampaign(tr *tracer, l layers, res *scenario.Result) {
	d := r.in.docs[0]
	var (
		cfg      scenario.SweepJSON
		baseKind string
		cells    []scenario.Cell
	)
	if err := call(tr, l, "scenario.expand", -1, d.id, false, func() (err error) {
		cfg, baseKind, cells, err = scenario.ExpandSweepDocument(d.raw)
		return err
	}); err != nil {
		r.gate.check(d.id+" expand", nil, err)
		return
	}
	if res != nil {
		call(tr, l, "scenario.combine", -1, d.id, false, func() error {
			scenario.CombineSweep(baseKind, cfg.Repetitions, res.Cells)
			return nil
		})
	}
	out, err := attempt(func() ([]byte, error) {
		var b []byte
		err := call(tr, l, "scenario.document", -1, d.id, false, func() error {
			res, err := scenario.RunDocument(d.raw)
			if err != nil {
				return err
			}
			b, err = encode(res)
			return err
		})
		return b, err
	})
	r.gate.checkAs(d.id+" in-process", d.id, out, err)
	l["dist.transport_s"] = l["dist.campaign_s"] - l["scenario.document_s"]

	samples := make([]float64, 0, len(cells))
	for i, cell := range cells {
		out, err := attempt(func() ([]byte, error) {
			sp := tr.begin("scenario.cell", -1, cell.Key)
			t0 := time.Now()
			res, err := scenario.RunCell(cell)
			samples = append(samples, time.Since(t0).Seconds())
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			if err := observeCell(tr, l, cell); err != nil {
				return nil, err
			}
			return json.Marshal(res)
		})
		if i < len(r.cellIDs) {
			r.gate.checkAs(cell.Key+" in-process", r.cellIDs[i], out, err)
		}
	}
	l["scenario.cell_s.p50"] = stats.Quantile(samples, 0.5)
}

// observeCell runs one cell on an instrumented kernel for the campaign's
// configure, run and kernel-counter figures.
func observeCell(tr *tracer, l layers, cell scenario.Cell) error {
	env, err := scenario.ParseCommon(cell.Doc)
	if err != nil {
		return err
	}
	var s scenario.Scenario
	if err := call(tr, l, "scenario.configure", -1, cell.Key, true, func() (err error) {
		s, err = scenario.New(env.Kind, cell.Doc)
		return err
	}); err != nil {
		return err
	}
	st := &obs.KernelStats{}
	var res *scenario.Result
	if err := call(tr, l, "scenario.run", -1, cell.Key, true, func() (err error) {
		res, err = scenario.RunScenarioObserved(s, cell.Seed, st)
		return err
	}); err != nil {
		return err
	}
	return addKernel(l, st, res)
}
