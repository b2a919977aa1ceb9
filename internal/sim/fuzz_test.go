package sim

// Differential fuzzing of the kernel's observable scheduling semantics
// (paper §5.3, C15–C16: a hot-path rewrite is only safe if it is
// byte-identical to its predecessor under every schedule). A byte program
// decodes into a deterministic schedule of Schedule/AfterFunc/ScheduleStream/
// Cancel/Step/RunUntil operations — including zero delays, same-instant
// collisions, nested in-handler scheduling, and delays from microseconds to
// seconds — and replays it through the kernel and the naive sorted-slice
// reference (reference_test.go). Any difference in firing order, firing
// times, final clock, or pending count is a bug.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// kernelDriver abstracts the API surface under differential test so the
// same program replays against *Kernel and refKernel.
type kernelDriver interface {
	Now() Time
	Pending() int
	Schedule(delay Time, fn Handler) (cancel func(), ok bool)
	AfterFunc(delay Time, fn Handler)
	ScheduleStream(at []Time, fn Handler) bool
	Step() bool
	RunUntil(horizon Time)
	Run()
}

type realDriver struct{ k *Kernel }

func (d realDriver) Now() Time    { return d.k.Now() }
func (d realDriver) Pending() int { return d.k.Pending() }
func (d realDriver) Schedule(delay Time, fn Handler) (func(), bool) {
	ev, err := d.k.Schedule(delay, fn)
	if err != nil {
		return nil, false
	}
	return func() { d.k.Cancel(ev) }, true
}
func (d realDriver) AfterFunc(delay Time, fn Handler) { d.k.AfterFunc(delay, fn) }
func (d realDriver) ScheduleStream(at []Time, fn Handler) bool {
	return d.k.ScheduleStream(at, fn) == nil
}
func (d realDriver) Step() bool            { return d.k.Step() }
func (d realDriver) RunUntil(horizon Time) { d.k.RunUntil(horizon) }
func (d realDriver) Run()                  { d.k.Run() }

type refDriver struct{ r *refKernel }

func (d refDriver) Now() Time    { return d.r.now }
func (d refDriver) Pending() int { return d.r.pending() }
func (d refDriver) Schedule(delay Time, fn Handler) (func(), bool) {
	ev, ok := d.r.schedule(delay, fn)
	if !ok {
		return nil, false
	}
	return func() { d.r.cancel(ev) }, true
}
func (d refDriver) AfterFunc(delay Time, fn Handler) { d.r.insert(d.r.now+delay, fn) }
func (d refDriver) ScheduleStream(at []Time, fn Handler) bool {
	return d.r.scheduleStream(at, fn)
}
func (d refDriver) Step() bool            { return d.r.step() }
func (d refDriver) RunUntil(horizon Time) { d.r.runUntil(horizon) }
func (d refDriver) Run()                  { d.r.run() }

// fireRec is one trace entry: which logical event fired and when.
type fireRec struct {
	id int
	at Time
}

type replayResult struct {
	trace   []fireRec
	now     Time
	pending int
}

// progDelay maps a program byte to a delay: zero (immediate ring) or one of
// three positive scales (heap), dense enough that same-instant collisions
// across sources are common.
func progDelay(b byte) Time {
	switch b % 4 {
	case 0:
		return 0
	case 1:
		return Time(b) * 37 * Time(time.Microsecond) // 0 .. ~9.4ms
	case 2:
		return Time(b) * 997 * Time(time.Microsecond) // 0 .. ~254ms
	default:
		return 250*Time(time.Millisecond) + Time(b)*3*Time(time.Millisecond) // 250ms .. ~1s
	}
}

// replayState interprets a byte program against one driver. All decisions —
// op choice, delays, which handle to cancel, what a fired handler schedules
// next — are pure functions of the byte stream and of how many events have
// fired, so two kernels with identical firing order run identical programs.
type replayState struct {
	d        kernelDriver
	data     []byte
	trace    []fireRec
	cancels  []func()
	nextID   int
	nestedAt int
	fired    int
	maxFired int
}

func (r *replayState) newID() int {
	id := r.nextID
	r.nextID++
	return id
}

// nestedByte deterministically draws program bytes for in-handler decisions.
func (r *replayState) nestedByte() byte {
	b := r.data[(r.nestedAt*31+7)%len(r.data)]
	r.nestedAt++
	return b
}

// streamHandler returns the one Handler shared by an n-item stream: a cursor
// hands each firing the next of n fresh logical ids, the way models keep
// per-item data beside a stream.
func (r *replayState) streamHandler(n int) Handler {
	first := r.nextID
	r.nextID += n
	cursor := 0
	return func(now Time) {
		id := first + cursor
		cursor++
		r.handler(id)(now)
	}
}

// handler returns the instrumented Handler for logical event id: it records
// the firing and may schedule follow-up work chosen by the byte stream —
// the nested-scheduling patterns (zero-delay chains, cancels from inside
// handlers) that trip ordering bugs.
func (r *replayState) handler(id int) Handler {
	return func(now Time) {
		r.trace = append(r.trace, fireRec{id: id, at: now})
		r.fired++
		if r.fired > r.maxFired {
			return
		}
		op, arg := r.nestedByte(), r.nestedByte()
		switch op % 5 {
		case 0: // leaf event
		case 1:
			r.d.AfterFunc(progDelay(arg), r.handler(r.newID()))
		case 2:
			if cancel, ok := r.d.Schedule(progDelay(arg), r.handler(r.newID())); ok {
				r.cancels = append(r.cancels, cancel)
			}
		case 3:
			if len(r.cancels) > 0 {
				r.cancels[int(arg)%len(r.cancels)]()
			}
		case 4:
			// Same-instant collision: two zero-delay events racing anything
			// already due now.
			r.d.AfterFunc(0, r.handler(r.newID()))
			r.d.AfterFunc(0, r.handler(r.newID()))
		}
	}
}

// replay decodes and executes the whole program, then drains the kernel.
func replay(d kernelDriver, data []byte) replayResult {
	if len(data) == 0 {
		return replayResult{}
	}
	r := &replayState{d: d, data: data, maxFired: 6*len(data) + 64}
	pc := 0
	next := func() byte {
		if pc >= len(data) {
			return 0
		}
		b := data[pc]
		pc++
		return b
	}
	for pc < len(data) {
		op, arg := next(), next()
		switch op % 8 {
		case 0, 1: // weighted: fire-and-forget dominates real models
			d.AfterFunc(progDelay(arg), r.handler(r.newID()))
		case 2:
			if cancel, ok := d.Schedule(progDelay(arg), r.handler(r.newID())); ok {
				r.cancels = append(r.cancels, cancel)
			}
		case 3:
			at := make([]Time, int(arg)%3+1)
			for i := range at {
				at[i] = d.Now() + progDelay(next())
			}
			slices.Sort(at)
			d.ScheduleStream(at, r.streamHandler(len(at)))
		case 4:
			if len(r.cancels) > 0 {
				r.cancels[int(arg)%len(r.cancels)]()
			}
		case 5:
			d.Step()
		case 6:
			d.RunUntil(d.Now() + progDelay(arg))
		case 7:
			// Stream with an exact same-instant collision at 257ms, plus a
			// heap event whose delay may land on the same instant.
			at := d.Now() + 257*Time(time.Millisecond)
			d.ScheduleStream([]Time{at, at}, r.streamHandler(2))
			d.AfterFunc(progDelay(arg), r.handler(r.newID()))
		}
	}
	d.Run()
	return replayResult{trace: r.trace, now: d.Now(), pending: d.Pending()}
}

func diffResults(want, got replayResult) error {
	if len(want.trace) != len(got.trace) {
		return fmt.Errorf("fired %d events, reference fired %d", len(got.trace), len(want.trace))
	}
	for i := range want.trace {
		if want.trace[i] != got.trace[i] {
			return fmt.Errorf("firing %d diverges: got id=%d at=%v, reference id=%d at=%v",
				i, got.trace[i].id, got.trace[i].at, want.trace[i].id, want.trace[i].at)
		}
	}
	if want.now != got.now {
		return fmt.Errorf("final clock %v, reference %v", got.now, want.now)
	}
	if want.pending != got.pending {
		return fmt.Errorf("final pending %d, reference %d", got.pending, want.pending)
	}
	return nil
}

// runDifferential replays one program through the reference and the kernel
// and reports the first divergence. The kernel's seed is irrelevant: replay
// draws no randomness from it.
func runDifferential(t *testing.T, data []byte) {
	t.Helper()
	want := replay(refDriver{&refKernel{}}, data)
	if err := diffResults(want, replay(realDriver{New(1)}, data)); err != nil {
		t.Error(err)
	}
}

// FuzzKernelOrdering is the differential fuzz target; CI runs a short
// -fuzztime smoke on every push, and `go test` replays the seed corpus.
func FuzzKernelOrdering(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{7, 255, 5, 0, 6, 130})
	// One byte per opcode with arguments hitting every delay regime.
	f.Add([]byte{0, 0, 1, 37, 2, 85, 3, 2, 77, 129, 4, 0, 5, 0, 6, 254, 7, 9})
	seq := make([]byte, 256)
	for i := range seq {
		seq[i] = byte(i)
	}
	f.Add(seq)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4; i++ {
		buf := make([]byte, 64+rng.Intn(192))
		rng.Read(buf)
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		runDifferential(t, data)
	})
}

// TestKernelDifferentialPrograms gives non-fuzz `go test` runs a fixed batch
// of pseudorandom programs through the same differential harness.
func TestKernelDifferentialPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for i := 0; i < 60; i++ {
		data := make([]byte, 20+rng.Intn(500))
		rng.Read(data)
		data = append(data, byte(i)) // touch every opcode phase across runs
		t.Run(fmt.Sprintf("program-%02d", i), func(t *testing.T) {
			runDifferential(t, data)
		})
	}
}
