package workload

import (
	"math/rand"
	"testing"
)

func TestSyntheticSourceIsDeterministic(t *testing.T) {
	src := Synthetic{
		Seed: 9,
		Gen: func(r *rand.Rand) (*Workload, error) {
			return Generate(GeneratorConfig{Jobs: 20}, r)
		},
	}
	a, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	b, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != 20 || len(b.Jobs) != 20 {
		t.Fatalf("generated %d / %d jobs, want 20", len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		if a.Jobs[i].Submit != b.Jobs[i].Submit || a.Jobs[i].User != b.Jobs[i].User {
			t.Fatalf("job %d differs between equal-source loads", i)
		}
	}
	// A different seed must produce a different workload.
	other, err := Synthetic{Seed: 10, Gen: src.Gen}.Load()
	if err != nil {
		t.Fatal(err)
	}
	if other.Jobs[0].Submit == a.Jobs[0].Submit && other.Jobs[0].User == a.Jobs[0].User &&
		other.Span() == a.Span() {
		t.Error("seed change did not alter the synthetic workload")
	}
}

func TestSyntheticSourceWithoutGenerator(t *testing.T) {
	if _, err := (Synthetic{Seed: 1}).Load(); err == nil {
		t.Error("nil generator accepted")
	}
}
