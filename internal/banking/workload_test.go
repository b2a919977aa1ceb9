package banking

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"mcs/internal/workload"
)

// TestWorkloadFieldMapping pins the transaction↔workload contract that
// export/replay fidelity rests on: amounts ride MemoryMB, deadline classes
// ride User, and the reconstruction inverts the generation exactly.
func TestWorkloadFieldMapping(t *testing.T) {
	w := GenerateWorkload(500, 0.4, rand.New(rand.NewSource(7)))
	if len(w.Jobs) != 500 {
		t.Fatalf("jobs = %d", len(w.Jobs))
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("generated workload invalid: %v", err)
	}
	instant := 0
	for i := range w.Jobs {
		j := &w.Jobs[i]
		if len(j.Tasks) != 1 {
			t.Fatalf("job %d has %d tasks, want 1", j.ID, len(j.Tasks))
		}
		window := j.Deadline - j.Submit
		switch j.User {
		case "instant":
			instant++
			if window != 10*time.Second {
				t.Fatalf("instant job %d has window %v", j.ID, window)
			}
		case "standard":
			if window != time.Hour {
				t.Fatalf("standard job %d has window %v", j.ID, window)
			}
		default:
			t.Fatalf("job %d has class %q", j.ID, j.User)
		}
		if j.Tasks[0].Runtime != window {
			t.Fatalf("job %d runtime %v != window %v", j.ID, j.Tasks[0].Runtime, window)
		}
		if j.Tasks[0].MemoryMB < 1 {
			t.Fatalf("job %d carries amount %d", j.ID, j.Tasks[0].MemoryMB)
		}
	}
	if instant < 120 || instant > 280 {
		t.Errorf("instant count %d, want ≈200 of 500", instant)
	}

	txs := TransactionsFromWorkload(w)
	if len(txs) != len(w.Jobs) {
		t.Fatalf("reconstructed %d transactions from %d jobs", len(txs), len(w.Jobs))
	}
	for i, tx := range txs {
		j := &w.Jobs[i] // both sorted by arrival
		if tx.Arrive != j.Submit || tx.Deadline != j.Deadline || tx.Cents != int64(j.Tasks[0].MemoryMB) || tx.ID != int(j.ID) {
			t.Fatalf("transaction %d diverges from job: %+v vs %+v", i, tx, j)
		}
	}
}

// TestTransactionsFromWorkloadDefaults: jobs from foreign traces without
// tasks or amounts still reconstruct runnable transactions.
func TestTransactionsFromWorkloadDefaults(t *testing.T) {
	w := &workload.Workload{Jobs: []workload.Job{
		{ID: 2, Submit: 3 * time.Second, Deadline: 10 * time.Second},
		{ID: 1, Submit: time.Second, Deadline: 5 * time.Second,
			Tasks: []workload.Task{{ID: 1, Job: 1, Cores: 1, Runtime: time.Second}}},
	}}
	txs := TransactionsFromWorkload(w)
	if len(txs) != 2 {
		t.Fatalf("txs = %d", len(txs))
	}
	if txs[0].ID != 1 || txs[1].ID != 2 {
		t.Errorf("not resorted by arrival: %+v", txs)
	}
	for _, tx := range txs {
		if tx.Cents != 1 {
			t.Errorf("tx %d amount %d, want minimum 1", tx.ID, tx.Cents)
		}
	}
}

// repeatingSource hands out values from a small fixed pool, so the
// float-derived submit times GenerateWorkload draws collide often and
// the ID tie-break of its sort key is exercised.
type repeatingSource struct {
	pick rand.Source
	pool [64]int64
}

func newRepeatingSource(seed int64) *repeatingSource {
	s := &repeatingSource{pick: rand.NewSource(seed)}
	for i := range s.pool {
		s.pool[i] = s.pick.Int63()
	}
	return s
}

func (s *repeatingSource) Int63() int64    { return s.pool[s.pick.Int63()%int64(len(s.pool))] }
func (s *repeatingSource) Seed(seed int64) { s.pick.Seed(seed) }

// TestGenerateWorkloadMatchesStableSort pins the (Submit, ID) key sort to
// the order a stable sort by Submit over the generation order gives.
// IDs are assigned in generation order, so sorting by ID recovers that
// order exactly, and the stable sort over it is the reference. The
// repeating source makes submit ties common; the plain one is the
// generator as scenarios run it.
func TestGenerateWorkloadMatchesStableSort(t *testing.T) {
	sources := map[string]func(int64) rand.Source{
		"plain":     rand.NewSource,
		"repeating": func(seed int64) rand.Source { return newRepeatingSource(seed) },
	}
	for name, source := range sources {
		for _, seed := range []int64{1, 2, 7, 42} {
			for _, share := range []float64{0, 0.5, 1} {
				got := GenerateWorkload(3000, share, rand.New(source(seed))).Jobs
				ref := append([]workload.Job(nil), got...)
				sort.Slice(ref, func(i, j int) bool { return ref[i].ID < ref[j].ID })
				for i := range ref {
					if ref[i].ID != workload.JobID(i+1) {
						t.Fatalf("%s seed %d share %v: IDs not 1..n (position %d holds %d)", name, seed, share, i, ref[i].ID)
					}
				}
				sort.SliceStable(ref, func(i, j int) bool { return ref[i].Submit < ref[j].Submit })
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s seed %d share %v: order diverges from the stable sort by Submit", name, seed, share)
				}
				ties := 0
				for i := range got {
					if c := cap(got[i].Tasks); c != 1 {
						t.Fatalf("%s seed %d share %v: job %d Tasks cap %d, want 1", name, seed, share, got[i].ID, c)
					}
					if i > 0 && got[i].Submit == got[i-1].Submit {
						ties++
					}
				}
				if name == "repeating" && ties < len(got)/2 {
					t.Fatalf("%s seed %d share %v: only %d submit ties, the tie-break is barely exercised", name, seed, share, ties)
				}
			}
		}
	}
}

// TestTransactionsFromWorkloadStableOnTies feeds a shuffled stream with
// three distinct arrivals, long enough that an unstable sort would not
// fall back to insertion sort, and expects equal arrivals to keep their
// workload order.
func TestTransactionsFromWorkloadStableOnTies(t *testing.T) {
	const n = 90
	w := &workload.Workload{Jobs: make([]workload.Job, n)}
	for i := range w.Jobs {
		w.Jobs[i] = workload.Job{ID: workload.JobID(i + 1), Submit: time.Duration(i%3) * time.Second}
	}
	rand.New(rand.NewSource(3)).Shuffle(n, func(i, j int) { w.Jobs[i], w.Jobs[j] = w.Jobs[j], w.Jobs[i] })
	var want []int
	for arrive := time.Duration(0); arrive < 3*time.Second; arrive += time.Second {
		for _, j := range w.Jobs {
			if j.Submit == arrive {
				want = append(want, int(j.ID))
			}
		}
	}
	var ids []int
	for _, tx := range TransactionsFromWorkload(w) {
		ids = append(ids, tx.ID)
	}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("ids = %v, want %v (stable by arrival)", ids, want)
	}
}

// BenchmarkGenerateWorkload times the synthetic configure layer at the
// banking-backlog size.
func BenchmarkGenerateWorkload(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenerateWorkload(150000, 0.5, rand.New(rand.NewSource(int64(i))))
	}
}
