package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"mcs/internal/scenario"
	"mcs/internal/sim"
)

// TestSmokeAllWorkloads runs every workload at the reduced size, untraced
// and traced, at the default seed (where the pinned smoke digests apply)
// and at another seed, and requires the correctness gate to pass.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		for _, seed := range []int64{defaultSeed, 42} {
			for _, traced := range []bool{false, true} {
				o := options{workload: name, seed: seed, scale: smokeScale, trace: traced, workdir: t.TempDir()}
				res, err := runWorkload(o, io.Discard)
				if err != nil {
					t.Fatalf("%s seed %d traced %v: %v", name, seed, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%s seed %d traced %v: correct=%v attempted=%d failed=%d",
						name, seed, traced, res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("%s: metric %s = %+v, want unit %s", name, m.name, got, m.unit)
					}
				}
				if traced && res.Metrics["sim.events"].Value == 0 {
					t.Errorf("%s: traced run counted no kernel events", name)
				}
				if !traced && res.Metrics["wall_s"].Value <= 0 {
					t.Errorf("%s: wall_s %v", name, res.Metrics["wall_s"].Value)
				}
			}
		}
	}
}

// TestDocumentsDeterministic: the same seed gives the same document bytes,
// another seed gives other bytes.
func TestDocumentsDeterministic(t *testing.T) {
	raw := func(name string, seed int64, sc scale) []byte {
		docs, err := documents(name, seed, sc, "dir")
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		for _, d := range docs {
			all = append(append(all, d.raw...), '\n')
		}
		return all
	}
	for _, name := range workloadNames {
		for _, sc := range []scale{fullScale, smokeScale} {
			a, b, c := raw(name, 7, sc), raw(name, 7, sc), raw(name, 8, sc)
			if !bytes.Equal(a, b) {
				t.Errorf("%s/%s: seed 7 gave different documents:\n%s\n%s", name, sc.name, a, b)
			}
			if bytes.Equal(a, c) {
				t.Errorf("%s/%s: seeds 7 and 8 gave the same documents", name, sc.name)
			}
		}
	}
}

// panicScenario panics in Run, standing in for a crashing model.
type panicScenario struct{}

func (panicScenario) Name() string                              { return "perfbench-test-panic" }
func (panicScenario) Configure(json.RawMessage) error           { return nil }
func (panicScenario) Run(*sim.Kernel) (*scenario.Result, error) { panic("model crashed") }

// TestGateCountsPanicsAndWrongBytes: a document whose run panics is
// recovered and counted as a failure; so are wrong report bytes and a
// reference that misses its pinned digest.
func TestGateCountsPanicsAndWrongBytes(t *testing.T) {
	scenario.Register("perfbench-test-panic", func() scenario.Scenario { return panicScenario{} })
	g := newGate()
	g.setReference("doc", []byte("report"), nil, digest([]byte("report")), true)
	out, err := runDoc(docSpec{id: "doc", raw: json.RawMessage(`{"kind":"perfbench-test-panic"}`)}, nil, -1, nil)
	g.check("doc", out, err)
	if err == nil || g.failed != 1 {
		t.Fatalf("panicking run: err=%v failed=%d", err, g.failed)
	}
	g.check("doc", []byte("other"), nil)
	g.check("doc", []byte("report"), nil)
	if g.attempted != 3 || g.failed != 2 {
		t.Errorf("attempted=%d failed=%d, want 3 and 2", g.attempted, g.failed)
	}
	g.setReference("pinned", []byte("report"), nil, "0000", true)
	g.check("pinned", []byte("report"), nil)
	if g.failed != 3 {
		t.Errorf("a reference off its pinned digest passed the gate")
	}
}

// TestSelfTimeCountsOverlapOnce: children on two goroutines that overlap
// are subtracted from the parent once.
func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "campaign", Start: 0, End: 10 * time.Second, Parent: -1},
		{Name: "unit", Start: 1 * time.Second, End: 5 * time.Second, Parent: 0},
		{Name: "unit", Start: 2 * time.Second, End: 6 * time.Second, Parent: 0},
		{Name: "unit", Start: 9 * time.Second, End: 12 * time.Second, Parent: 0},
	}}
	for _, lt := range tr.selfTimes() {
		if lt.name == "campaign" && lt.self != 4*time.Second {
			t.Errorf("campaign self time %v, want 4s", lt.self)
		}
	}
}

// TestBenchmarkJSONMatchesProgram: BENCHMARK.json declares exactly the
// workloads and metrics the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got []metricSpec, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: %v in BENCHMARK.json, %v in the program", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricSpec
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit})
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layer, perLayer)
}
