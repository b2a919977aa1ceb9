package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func TestEventStringRendersLegacyStatusLines(t *testing.T) {
	// The text sink on mcsim's stderr prints these lines exactly; they are
	// the compatibility surface for scripts that grep campaign output.
	cases := []struct {
		ev   Event
		want string
	}{
		{
			Event{Type: CampaignResumed, Cell: -1, Done: 3, Total: 12, Msg: "run.ckpt"},
			"dist: resumed 3/12 cells from run.ckpt",
		},
		{
			Event{Type: CellRetried, Cell: 4, Key: "a=1", Err: "scenario", Attempt: 1, Budget: 2},
			"dist: cell 4 (a=1) failed (scenario), retry 1/2",
		},
		{
			Event{Type: CellFailed, Cell: 4, Key: "a=1", Attempt: 3, Err: "bad config"},
			"dist: cell 4 (a=1) failed permanently after 3 attempts: bad config",
		},
		{
			Event{Type: WorkerRetired, Cell: -1, Worker: "subprocess-77", Err: "broken pipe"},
			"dist: worker subprocess-77 lost mid-unit: broken pipe",
		},
		{
			Event{Type: CheckpointFailed, Cell: -1, Err: "disk full"},
			"dist: checkpoint write failed, aborting campaign: disk full",
		},
	}
	for _, c := range cases {
		if got := c.ev.String(); got != c.want {
			t.Errorf("String(%s):\n got %q\nwant %q", c.ev.Type, got, c.want)
		}
		if !c.ev.Notable() {
			t.Errorf("%s should be Notable (it was a legacy status line)", c.ev.Type)
		}
	}
	quiet := Event{Type: CellFinished, Cell: 0, Key: "a=0", Done: 1, Total: 2}
	if quiet.Notable() {
		t.Error("cell-finished must not be Notable: stderr never logs completions")
	}
	released := Event{Type: WorkerRetired, Cell: -1, Worker: "w"}
	if released.Notable() {
		t.Error("a cleanly released worker must not be Notable")
	}
}

func TestNDJSONSinkWritesOneValidLinePerEvent(t *testing.T) {
	var buf strings.Builder
	sink := NewNDJSON(&buf)
	sink.Emit(Event{Type: CellFinished, Cell: 0, Key: "k0", Done: 1, Total: 2})
	sink.Emit(Event{Type: Heartbeat, Cell: -1, Done: 1, Total: 2, Events: 42})
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	var types []string
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.T == 0 {
			t.Error("sink did not stamp wall-clock time")
		}
		types = append(types, string(ev.Type))
	}
	if want := "cell-finished,heartbeat"; strings.Join(types, ",") != want {
		t.Errorf("types = %v, want %s", types, want)
	}
	// Cell is never omitted: "cell 0" and "no cell" must stay distinct.
	if !strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], `"cell":0`) {
		t.Errorf("cell index 0 omitted from %q", buf.String())
	}
	if !strings.Contains(buf.String(), `"cell":-1`) {
		t.Errorf("non-cell event should carry cell:-1: %q", buf.String())
	}
}

func TestTextSinkFiltersToNotableByDefault(t *testing.T) {
	var quiet, verbose strings.Builder
	q := &TextSink{W: &quiet}
	v := &TextSink{W: &verbose, Verbose: true}
	events := []Event{
		{Type: CampaignStarted, Cell: -1, Total: 4, Workers: 2},
		{Type: CellFinished, Cell: 0, Key: "k", Done: 1, Total: 4},
		{Type: CellRetried, Cell: 1, Key: "k1", Err: "scenario", Attempt: 1, Budget: 2},
		{Type: CampaignFinished, Cell: -1, Done: 4, Total: 4},
	}
	for _, ev := range events {
		q.Emit(ev)
		v.Emit(ev)
	}
	if got := strings.Count(quiet.String(), "\n"); got != 1 {
		t.Errorf("quiet sink printed %d lines, want 1 (the retry):\n%s", got, quiet.String())
	}
	if got := strings.Count(verbose.String(), "\n"); got != len(events) {
		t.Errorf("verbose sink printed %d lines, want %d", got, len(events))
	}
}

func TestMultiFansOutAndSkipsNil(t *testing.T) {
	var a, b strings.Builder
	sink := Multi(nil, NewNDJSON(&a), nil, NewNDJSON(&b))
	sink.Emit(Event{Type: RunStarted, Cell: -1, Msg: "banking"})
	if a.String() == "" || a.String() != b.String() {
		t.Errorf("fanout mismatch: a=%q b=%q", a.String(), b.String())
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi of no live sinks should be nil (disabled)")
	}
	single := NewNDJSON(&a)
	if got := Multi(nil, single); got != Sink(single) {
		t.Error("Multi of one sink should return it unwrapped")
	}
}

func TestKernelSnapshotCopiesCounters(t *testing.T) {
	st := &KernelStats{HeapDispatched: 1, ImmediateDispatched: 3, StreamDispatched: 4, Canceled: 5}
	snap := st.Snapshot()
	st.HeapDispatched = 100
	if snap.HeapDispatched != 1 {
		t.Error("snapshot aliases live counters")
	}
	if snap.Dispatched() != 1+3+4 {
		t.Errorf("Dispatched = %d, want 8", snap.Dispatched())
	}
	if snap.WheelDispatched != 0 || snap.HorizonOverflow != 0 {
		t.Errorf("retired wheel fields = %d, %d, want 0", snap.WheelDispatched, snap.HorizonOverflow)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"heapDispatched", "wheelDispatched", "immediateDispatched",
		"streamDispatched", "canceled", "horizonOverflow"} {
		if !strings.Contains(string(data), `"`+key+`"`) {
			t.Errorf("snapshot JSON missing %q: %s", key, data)
		}
	}
}
