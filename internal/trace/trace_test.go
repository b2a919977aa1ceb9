package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mcs/internal/workload"
)

func TestRoundTripIsIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	w, err := workload.Generate(workload.GeneratorConfig{Jobs: 50, Shape: workload.RandomDAG}, r)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (gwfFormat{}).Write(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := (gwfFormat{}).Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(w.Jobs) {
		t.Fatalf("jobs %d != %d", len(got.Jobs), len(w.Jobs))
	}
	for i := range w.Jobs {
		a, b := &w.Jobs[i], &got.Jobs[i]
		if a.ID != b.ID || a.User != b.User {
			t.Fatalf("job %d identity mismatch: %+v vs %+v", i, a.ID, b.ID)
		}
		// Submit times survive at millisecond precision.
		if d := a.Submit - b.Submit; d < -time.Millisecond || d > time.Millisecond {
			t.Fatalf("job %d submit %v vs %v", i, a.Submit, b.Submit)
		}
		if len(a.Tasks) != len(b.Tasks) {
			t.Fatalf("job %d tasks %d vs %d", i, len(a.Tasks), len(b.Tasks))
		}
		for k := range a.Tasks {
			ta, tb := a.Tasks[k], b.Tasks[k]
			if ta.ID != tb.ID || ta.Cores != tb.Cores || ta.MemoryMB != tb.MemoryMB {
				t.Fatalf("task mismatch: %+v vs %+v", ta, tb)
			}
			if len(ta.Deps) != len(tb.Deps) {
				t.Fatalf("task %d deps %v vs %v", ta.ID, ta.Deps, tb.Deps)
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round-tripped workload invalid: %v", err)
	}
}

// Property: round-trip preserves structure for arbitrary generated workloads.
func TestRoundTripProperty(t *testing.T) {
	prop := func(seed int64, jobs uint8) bool {
		r := rand.New(rand.NewSource(seed))
		w, err := workload.Generate(workload.GeneratorConfig{Jobs: int(jobs%20) + 1}, r)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := (gwfFormat{}).Write(&buf, w); err != nil {
			return false
		}
		got, err := (gwfFormat{}).Read(&buf)
		if err != nil {
			return false
		}
		return len(got.Jobs) == len(w.Jobs) && got.TaskCount() == w.TaskCount() &&
			got.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

func TestReadSkipsCommentsAndBlank(t *testing.T) {
	in := "# header\n\n  \n1 1 0.0 10.0 2 512 alice -\n"
	w, err := (gwfFormat{}).Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 1 || w.Jobs[0].User != "alice" || w.Jobs[0].Tasks[0].Cores != 2 {
		t.Fatalf("parsed %+v", w.Jobs)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	bad := []string{
		"1 1 0.0 10.0 2 512 alice",     // 7 fields
		"x 1 0.0 10.0 2 512 alice -",   // bad job id
		"1 y 0.0 10.0 2 512 alice -",   // bad task id
		"1 1 z 10.0 2 512 alice -",     // bad submit
		"1 1 0.0 q 2 512 alice -",      // bad runtime
		"1 1 0.0 10.0 w 512 alice -",   // bad cores
		"1 1 0.0 10.0 2 mem alice -",   // bad memory
		"1 1 0.0 10.0 2 512 alice 1,x", // bad dep
	}
	for _, line := range bad {
		if _, err := (gwfFormat{}).Read(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("malformed line accepted: %q", line)
		}
	}
}

func TestReadGroupsTasksByJob(t *testing.T) {
	in := `
2 3 5.0 1.0 1 64 bob -
1 1 0.0 1.0 1 64 alice -
1 2 0.0 1.0 1 64 alice 1
`
	w, err := (gwfFormat{}).Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 2 {
		t.Fatalf("jobs=%d, want 2", len(w.Jobs))
	}
	// Sorted by submit: job 1 first.
	if w.Jobs[0].ID != 1 || len(w.Jobs[0].Tasks) != 2 {
		t.Fatalf("job grouping wrong: %+v", w.Jobs)
	}
	if len(w.Jobs[0].Tasks[1].Deps) != 1 {
		t.Error("dependency lost")
	}
}

func TestAnalyze(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	w, err := workload.Generate(workload.GeneratorConfig{Jobs: 200}, r)
	if err != nil {
		t.Fatal(err)
	}
	s := Analyze(w)
	if s.Jobs != 200 || s.Tasks != w.TaskCount() {
		t.Errorf("counts wrong: %+v", s)
	}
	if s.Users < 2 {
		t.Errorf("users=%d", s.Users)
	}
	if s.TopUserShare <= 0 || s.TopUserShare > 1 {
		t.Errorf("top user share=%v", s.TopUserShare)
	}
	// Zipf user skew should make the top user clearly dominant over 1/users.
	if s.TopUserShare < 1.5/float64(s.Users) {
		t.Errorf("no dominant user: share=%v users=%d", s.TopUserShare, s.Users)
	}
	if s.Burstiness <= 0 {
		t.Errorf("burstiness=%v", s.Burstiness)
	}
	if s.RuntimeSeconds.Mean <= 0 || s.Span <= 0 {
		t.Errorf("degenerate stats: %+v", s)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	s := Analyze(&workload.Workload{})
	if s.Jobs != 0 || s.TopUserShare != 0 {
		t.Errorf("empty analyze: %+v", s)
	}
}

func BenchmarkWriteRead(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	w, err := workload.Generate(workload.GeneratorConfig{Jobs: 500}, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := (gwfFormat{}).Write(&buf, w); err != nil {
			b.Fatal(err)
		}
		if _, err := (gwfFormat{}).Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
