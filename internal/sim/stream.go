package sim

// This file implements the sorted-stream front-end of the event queue, the
// kernel's one bulk-admission path: a time-ordered fire-and-forget stream
// (workload arrivals, pre-drawn failure timelines, trace replays) that
// shares ONE handler and never materializes an Event per item. Admitting n
// arrivals as n pooled events would keep all n live in the heap at once, so
// the free list could not help and every Step would sift through them. A
// stream instead keeps the caller's times slice in place behind a cursor:
// admission is O(n) validation, zero allocation per item, and the merge in
// Step reads the head element only.
//
// Determinism contract: admitting a stream is observationally identical to
// scheduling its items one by one, in slice order, at admission time. Each
// item owns one sequence number from a contiguous block reserved at
// admission — item i fires with sequence base+1+i — and Step merges stream
// heads with the immediate ring and the heap strictly by (time,
// sequence). Firing order, clock advance, and Pending accounting cannot
// differ from the one-by-one schedule (TestScheduleStreamMatchesReference
// and FuzzKernelOrdering check it against the reference kernel).

import "fmt"

// eventStream is one admitted sorted stream: a cursor over a caller-owned
// non-decreasing times slice, one shared handler, and the reserved sequence
// block's base.
type eventStream struct {
	at   []Time
	fn   Handler
	base uint64 // item i fires with sequence base+1+i
	head int
}

// ScheduleStream admits a non-decreasing slice of fire-and-forget events at
// absolute times, all sharing one handler, with zero per-event allocation:
// the slice is referenced in place (the caller must not mutate it) and a
// contiguous sequence block is reserved so the firing order is exactly that
// of scheduling the items one by one in slice order — same-instant stream
// items fire in slice order, interleaved with other queues by (time,
// sequence). The call
// is all-or-nothing: an out-of-order or past item admits nothing. Handlers
// that need per-item data keep their own cursor, which the kernel's strict
// in-order delivery keeps aligned with the stream head.
func (k *Kernel) ScheduleStream(at []Time, fn Handler) error {
	if len(at) == 0 {
		return nil
	}
	if fn == nil {
		return fmt.Errorf("sim: stream handler is nil")
	}
	if at[0] < k.now {
		return fmt.Errorf("%w: at=%v now=%v (stream item 0)", ErrPastEvent, at[0], k.now)
	}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			return fmt.Errorf("sim: stream not sorted: item %d at %v before item %d at %v", i, at[i], i-1, at[i-1])
		}
	}
	s := &eventStream{at: at, fn: fn, base: k.seq}
	k.seq += uint64(len(at))
	k.streams = append(k.streams, s)
	return nil
}

// streamPop advances past the stream's head item, dropping the stream from
// the merge set once exhausted (releasing the caller's slice).
func (k *Kernel) streamPop(s *eventStream) Handler {
	fn := s.fn
	s.head++
	if s.head == len(s.at) {
		for i, t := range k.streams {
			if t == s {
				k.streams = append(k.streams[:i], k.streams[i+1:]...)
				break
			}
		}
	}
	return fn
}
