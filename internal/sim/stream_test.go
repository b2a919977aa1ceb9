package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestScheduleStreamMatchesReference is the stream's determinism proof: a
// sorted arrival set admitted as one stream must fire exactly as the
// reference kernel fires the same items inserted one by one, interleaved
// identically with reactive events the handlers schedule at runtime
// (zero-delay immediates, millisecond and second heap delays), including
// same-instant collisions between arrivals and reactive events.
func TestScheduleStreamMatchesReference(t *testing.T) {
	type record struct {
		tag string
		id  int
		at  Time
	}
	run := func(d kernelDriver, arrivals []Time) []record {
		var log []record
		// Each arrival spawns a reactive chain: an immediate, a millisecond
		// delay, and a second-scale delay, some of which land exactly on
		// later arrival instants (duplicates in the arrival slice force ties).
		react := func(id int) {
			d.AfterFunc(0, func(now Time) { log = append(log, record{"imm", id, now}) })
			d.AfterFunc(Time(id%7+1)*Time(time.Millisecond), func(now Time) {
				log = append(log, record{"short", id, now})
			})
			d.AfterFunc(Time(id%5+1)*Time(time.Second), func(now Time) {
				log = append(log, record{"long", id, now})
			})
		}
		cursor := 0
		if !d.ScheduleStream(arrivals, func(now Time) {
			id := cursor
			cursor++
			log = append(log, record{"arrive", id, now})
			react(id)
		}) {
			t.Fatal("stream rejected")
		}
		if got := d.Pending(); got != len(arrivals) {
			t.Fatalf("pending %d after admitting %d arrivals", got, len(arrivals))
		}
		d.Run()
		return log
	}

	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(60)
		arrivals := make([]Time, n)
		var clock Time
		for i := range arrivals {
			// Coarse whole-second steps (sometimes zero) make duplicate
			// arrival instants — and collisions with the second-granularity
			// heap delays — common rather than measure-zero.
			clock += Time(r.Intn(3)) * Time(time.Second)
			arrivals[i] = clock
		}
		want := run(refDriver{&refKernel{}}, arrivals)
		got := run(realDriver{New(1)}, arrivals)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d records, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: firing order diverges at %d: got %+v, reference %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestScheduleStreamAcrossDelayScales admits a stream spanning milliseconds
// to hundreds of milliseconds around heap events scheduled before and after
// it at the same instants: the merge orders everything by (time, admission
// order), so same-instant items fire in the order they were admitted
// whichever source holds them.
func TestScheduleStreamAcrossDelayScales(t *testing.T) {
	k := New(1)
	var got []string
	rec := func(tag string) Handler { return func(Time) { got = append(got, tag) } }
	k.AfterFunc(2*time.Millisecond, rec("short-before"))
	k.AfterFunc(300*time.Millisecond, rec("long-before"))
	tags := []string{"s0", "s2a", "s2b", "s300"}
	cursor := 0
	if err := k.ScheduleStream([]Time{0, 2 * time.Millisecond, 2 * time.Millisecond, 300 * time.Millisecond}, func(Time) {
		got = append(got, tags[cursor])
		cursor++
	}); err != nil {
		t.Fatal(err)
	}
	k.AfterFunc(2*time.Millisecond, rec("short-after"))
	k.AfterFunc(300*time.Millisecond, rec("long-after"))
	if k.Pending() != 8 {
		t.Fatalf("pending=%d, want 8", k.Pending())
	}
	k.Run()
	want := []string{"s0", "short-before", "s2a", "s2b", "short-after", "long-before", "s300", "long-after"}
	if !slices.Equal(got, want) {
		t.Fatalf("firing order %v, want %v", got, want)
	}
}

// TestScheduleStreamRejectsPastAllOrNothing: a stream with one bad item —
// in the past, or out of order after valid ones — admits none of its items
// and reserves no sequence numbers.
func TestScheduleStreamRejectsPastAllOrNothing(t *testing.T) {
	k := New(1)
	k.MustSchedule(time.Second, func(Time) {})
	k.Run() // now = 1s
	seq := k.seq
	bad := [][]Time{
		{500 * time.Millisecond, 2 * time.Second},
		{2 * time.Second, 3 * time.Second, 500 * time.Millisecond},
	}
	for _, at := range bad {
		if err := k.ScheduleStream(at, func(Time) { t.Error("item from a rejected stream fired") }); err == nil {
			t.Fatalf("stream %v accepted at now=1s", at)
		}
	}
	if k.Pending() != 0 || k.seq != seq {
		t.Fatalf("rejected streams left pending=%d and advanced seq by %d", k.Pending(), k.seq-seq)
	}
	k.Run()
}

// TestScheduleStreamAccounting covers Pending/Processed bookkeeping and the
// RunUntil partial-drain path: stream items past the horizon stay admitted.
func TestScheduleStreamAccounting(t *testing.T) {
	k := New(1)
	arrivals := []Time{Time(time.Second), Time(2 * time.Second), Time(5 * time.Second)}
	fired := 0
	if err := k.ScheduleStream(arrivals, func(Time) { fired++ }); err != nil {
		t.Fatal(err)
	}
	if got := k.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	k.RunUntil(Time(3 * time.Second))
	if fired != 2 {
		t.Fatalf("fired = %d after horizon 3s, want 2", fired)
	}
	if got := k.Pending(); got != 1 {
		t.Fatalf("Pending = %d after partial drain, want 1", got)
	}
	k.Run()
	if fired != 3 || k.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d after drain", fired, k.Pending())
	}
	if k.Processed() != 3 {
		t.Fatalf("Processed = %d, want 3", k.Processed())
	}
}

// TestScheduleStreamValidation covers the all-or-nothing admission errors.
func TestScheduleStreamValidation(t *testing.T) {
	k := New(1)
	if err := k.ScheduleStream(nil, func(Time) {}); err != nil {
		t.Errorf("empty stream: %v", err)
	}
	if err := k.ScheduleStream([]Time{0}, nil); err == nil {
		t.Error("nil handler accepted")
	}
	if err := k.ScheduleStream([]Time{Time(2 * time.Second), Time(time.Second)}, func(Time) {}); err == nil {
		t.Error("unsorted stream accepted")
	}
	k.AfterFunc(Time(time.Second), func(Time) {})
	k.Run()
	if err := k.ScheduleStream([]Time{0}, func(Time) {}); err == nil {
		t.Error("past stream item accepted")
	}
	if got := k.Pending(); got != 0 {
		t.Errorf("failed admissions left %d pending", got)
	}
}
