// Package sim provides the discrete-event simulation kernel that underpins
// every simulated ecosystem in this repository: a virtual clock, an event
// queue with deterministic ordering, and a seeded random source.
//
// The kernel is strictly single-threaded and deterministic: two runs with the
// same seed and the same schedule of events produce byte-identical traces.
// Determinism is an MCS methodological requirement (paper §5.3, C15–C16:
// reproducible simulation-based experimentation).
//
// The kernel has three event sources, merged strictly by (time, sequence):
//
//   - The binary heap holds every positive-delay event. AfterFunc is a
//     fire-and-forget scheduling API whose events never escape the kernel,
//     so they are recycled through an internal free list instead of
//     pressuring the garbage collector.
//   - AfterFunc with zero delay (the "run next, at this instant" pattern that
//     dominates reactive models) bypasses the heap entirely and goes through
//     an O(1) FIFO ring.
//   - ScheduleStream is the one bulk-admission path: a time-sorted slice
//     sharing one handler behind a cursor (stream.go), with zero allocation
//     per item and no heap traffic; workload arrivals and pre-drawn failure
//     timelines go in this way.
//
// Schedule/ScheduleAt/MustSchedule retain their original semantics: they
// return a cancelable *Event handle the caller may hold indefinitely, so
// those events are never recycled.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"mcs/internal/obs"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation. It reuses time.Duration so that callers can express
// instants and intervals with the standard time units.
type Time = time.Duration

// Handler is a callback invoked when an event fires. The kernel passes the
// current virtual time, which equals the time the event was scheduled for.
type Handler func(now Time)

// Event is a scheduled occurrence in virtual time. Events are created through
// Kernel.Schedule and friends and can be canceled until they fire.
type Event struct {
	at       Time
	seq      uint64
	canceled bool
	// fired marks handle-bearing events that have already executed, so a
	// late Cancel does not corrupt the kernel's live-event accounting.
	fired bool
	// pooled marks events created through the fire-and-forget APIs
	// (AfterFunc); no handle escapes, so the kernel recycles
	// them through the free list after they fire.
	pooled bool
	fn     Handler
	// next links events on the kernel's free list.
	next *Event
}

// At returns the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// ErrPastEvent is returned when scheduling an event before the current
// virtual time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// immEvent is a zero-delay fire-and-forget event on the immediate ring. It
// implicitly fires at the kernel's current time; seq keeps FIFO ordering
// consistent with heap events at the same instant.
type immEvent struct {
	seq uint64
	fn  Handler
}

// Kernel is a discrete-event simulation executor. The zero value is not
// usable; construct one with New.
type Kernel struct {
	now   Time
	queue eventQueue
	// imm is the immediate ring: zero-delay AfterFunc events awaiting
	// execution at the current instant. immHead indexes the front. Virtual
	// time cannot advance while the ring is non-empty, which is what makes
	// the implicit "at == now" representation sound.
	imm     []immEvent
	immHead int
	// streams holds the live sorted arrival streams (see stream.go);
	// exhausted streams are dropped as their last item fires.
	streams   []*eventStream
	seq       uint64
	rng       *rand.Rand
	processed uint64
	maxEvents uint64 // safety valve; 0 means unlimited
	free      *Event // recycled pooled events
	// canceledQueued counts canceled handle events still occupying heap
	// slots, so Pending can report live events without compacting.
	canceledQueued int
	// stats, when non-nil, accumulates per-path dispatch telemetry
	// (internal/obs). Nil by default: the unobserved hot path pays one
	// predicted branch per step and nothing else. Telemetry is read-only
	// by contract — it can never alter event ordering, the RNG stream, or
	// any result byte.
	stats *obs.KernelStats
}

// Option configures a Kernel at construction time.
type Option func(*Kernel)

// WithKernelStats attaches a telemetry accumulator: the kernel counts
// per-path dispatches and cancels into st as it runs, and fires st.OnHeartbeat every st.HeartbeatEvery
// processed events. Observability is strictly read-only: an observed
// kernel fires the same events in the same order with the same RNG stream
// as an unobserved one (TestKernelStatsDoNotPerturbExecution).
func WithKernelStats(st *obs.KernelStats) Option {
	return func(k *Kernel) { k.stats = st }
}

// New returns a kernel whose random source is seeded with seed. The same seed
// yields the same random stream and, therefore, the same simulation outcome
// for deterministic models.
func New(seed int64, opts ...Option) *Kernel {
	k := &Kernel{rng: rand.New(rand.NewSource(seed))}
	for _, opt := range opts {
		opt(k)
	}
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. Models must draw all
// randomness from this source to preserve reproducibility.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of live events currently scheduled across the
// heap, the immediate ring, and any admitted streams.
// Canceled events awaiting lazy removal from the heap are not counted.
func (k *Kernel) Pending() int {
	n := len(k.queue) - k.canceledQueued + len(k.imm) - k.immHead
	for _, s := range k.streams {
		n += len(s.at) - s.head
	}
	return n
}

// SetMaxEvents installs a safety limit on the total number of events the
// kernel will execute; Run returns once the limit is reached. Zero disables
// the limit.
func (k *Kernel) SetMaxEvents(n uint64) { k.maxEvents = n }

// Schedule arranges for fn to run after delay. A negative delay is an error.
func (k *Kernel) Schedule(delay Time, fn Handler) (*Event, error) {
	return k.ScheduleAt(k.now+delay, fn)
}

// ScheduleAt arranges for fn to run at absolute virtual time at. Events
// scheduled for the same instant fire in scheduling order (FIFO).
func (k *Kernel) ScheduleAt(at Time, fn Handler) (*Event, error) {
	if at < k.now {
		return nil, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, k.now)
	}
	k.seq++
	ev := &Event{at: at, seq: k.seq, fn: fn}
	k.queue.push(ev)
	return ev, nil
}

// MustSchedule is Schedule for callers that know delay is non-negative; it
// panics on programmer error instead of returning one.
func (k *Kernel) MustSchedule(delay Time, fn Handler) *Event {
	ev, err := k.Schedule(delay, fn)
	if err != nil {
		panic(err)
	}
	return ev
}

// AfterFunc arranges for fn to run after delay, without returning a handle.
// It is the fire-and-forget fast path: the backing event is recycled through
// the kernel's free list after it fires, a zero delay (run at this very
// instant, after everything already scheduled for it) skips the heap for an
// O(1) ring append. Use it for the bulk
// of model events — completions, hand-offs, scheduler passes — and reserve
// Schedule for events that may need Cancel. AfterFunc panics on a negative
// delay.
func (k *Kernel) AfterFunc(delay Time, fn Handler) {
	if delay < 0 {
		panic(fmt.Errorf("%w: delay=%v now=%v", ErrPastEvent, delay, k.now))
	}
	if delay == 0 {
		k.seq++
		k.imm = append(k.imm, immEvent{seq: k.seq, fn: fn})
		return
	}
	k.queue.push(k.allocEvent(k.now+delay, fn))
}

// allocEvent takes a pooled event off the free list (or allocates one) and
// stamps it with the next sequence number.
func (k *Kernel) allocEvent(at Time, fn Handler) *Event {
	ev := k.free
	if ev != nil {
		k.free = ev.next
		ev.next = nil
		ev.canceled = false
		ev.fired = false
	} else {
		ev = &Event{pooled: true}
	}
	k.seq++
	ev.at, ev.seq, ev.fn = at, k.seq, fn
	return ev
}

// recycle returns a pooled event to the free list; handle-bearing events are
// left for the garbage collector since callers may still reference them.
func (k *Kernel) recycle(ev *Event) {
	if !ev.pooled {
		return
	}
	ev.fn = nil
	ev.next = k.free
	k.free = ev
}

// Cancel prevents a scheduled event from firing. Canceling an already-fired
// or already-canceled event is a no-op.
func (k *Kernel) Cancel(ev *Event) {
	if ev == nil || ev.canceled || ev.fired {
		return
	}
	ev.canceled = true
	ev.fn = nil // release references early
	k.canceledQueued++
	if k.stats != nil {
		k.stats.Canceled++
	}
}

// Sources the three-way merge in Step can draw the next event from.
const (
	srcNone = iota
	srcImm
	srcHeap
	srcStream
)

// Step executes the next event, if any, advancing the clock to its time.
// It reports whether an event was executed.
//
// The next event is the least (time, sequence) across the three sources:
// the immediate ring (due at the current instant), the binary heap, and the
// admitted stream heads. The strict merge is what makes the ring and the
// streams observationally invisible: firing order never depends on which
// source an event landed in.
func (k *Kernel) Step() bool {
	// Drop canceled events from the heap top so the merge compares live
	// candidates only. Canceled events are always handle-bearing (never
	// pooled), so there is nothing to recycle.
	for len(k.queue) > 0 && k.queue[0].canceled {
		k.canceledQueued--
		k.queue.pop()
	}
	src := srcNone
	var at Time
	var seq uint64
	if k.immHead < len(k.imm) {
		src, at, seq = srcImm, k.now, k.imm[k.immHead].seq
	}
	if len(k.queue) > 0 {
		if ev := k.queue[0]; src == srcNone || ev.at < at || (ev.at == at && ev.seq < seq) {
			src, at, seq = srcHeap, ev.at, ev.seq
		}
	}
	var str *eventStream
	for _, s := range k.streams {
		sat, sseq := s.at[s.head], s.base+1+uint64(s.head)
		if src == srcNone || sat < at || (sat == at && sseq < seq) {
			src, at, seq, str = srcStream, sat, sseq, s
		}
	}
	switch src {
	case srcImm:
		front := &k.imm[k.immHead]
		fn := front.fn
		front.fn = nil
		k.immHead++
		if k.immHead == len(k.imm) {
			k.imm = k.imm[:0]
			k.immHead = 0
		}
		k.processed++
		fn(k.now)
	case srcHeap:
		ev := k.queue.pop()
		k.now = ev.at
		ev.fired = true
		k.processed++
		fn := ev.fn
		ev.fn = nil
		k.recycle(ev)
		fn(k.now)
	case srcStream:
		fn := k.streamPop(str)
		k.now = at
		k.processed++
		fn(k.now)
	default:
		return false
	}
	if st := k.stats; st != nil {
		k.noteDispatch(st, src)
	}
	return true
}

// noteDispatch records one fired event's source path and drives the
// heartbeat hook. Kept out of Step's switch so the disabled path is a
// single nil check.
func (k *Kernel) noteDispatch(st *obs.KernelStats, src int) {
	switch src {
	case srcImm:
		st.ImmediateDispatched++
	case srcHeap:
		st.HeapDispatched++
	case srcStream:
		st.StreamDispatched++
	}
	if st.HeartbeatEvery > 0 && st.OnHeartbeat != nil && k.processed%st.HeartbeatEvery == 0 {
		st.OnHeartbeat(k.processed, k.now)
	}
}

// Run executes events until the queue drains (or the safety limit trips) and
// returns the number of events processed during this call.
func (k *Kernel) Run() uint64 {
	start := k.processed
	for {
		if k.maxEvents > 0 && k.processed >= k.maxEvents {
			break
		}
		if !k.Step() {
			break
		}
	}
	return k.processed - start
}

// RunUntil executes events with time ≤ horizon and then advances the clock to
// horizon. Events scheduled after horizon remain queued. It returns the
// number of events processed during this call.
func (k *Kernel) RunUntil(horizon Time) uint64 {
	start := k.processed
	for {
		if k.maxEvents > 0 && k.processed >= k.maxEvents {
			break
		}
		next, ok := k.peek()
		if !ok || next > horizon {
			break
		}
		k.Step()
	}
	if k.now < horizon {
		k.now = horizon
	}
	return k.processed - start
}

// peek returns the time of the next non-canceled event across all queues.
func (k *Kernel) peek() (Time, bool) {
	if k.immHead < len(k.imm) {
		return k.now, true
	}
	for len(k.queue) > 0 && k.queue[0].canceled {
		k.canceledQueued--
		k.queue.pop()
	}
	var at Time
	ok := false
	if len(k.queue) > 0 {
		at, ok = k.queue[0].at, true
	}
	for _, s := range k.streams {
		if sat := s.at[s.head]; !ok || sat < at {
			at, ok = sat, true
		}
	}
	return at, ok
}

// eventQueue is a hand-rolled binary min-heap ordered by (time, sequence
// number), which makes simultaneous events fire in FIFO order. It avoids the
// interface indirection of container/heap on the kernel's hottest path.
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev *Event) {
	*q = append(*q, ev)
	q.up(len(*q) - 1)
}

func (q *eventQueue) pop() *Event {
	old := *q
	n := len(old) - 1
	ev := old[0]
	old[0] = old[n]
	old[n] = nil
	*q = old[:n]
	if n > 0 {
		q.down(0)
	}
	return ev
}

func (q eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (q eventQueue) down(i int) {
	n := len(q)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && q.less(right, left) {
			least = right
		}
		if !q.less(least, i) {
			return
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}
