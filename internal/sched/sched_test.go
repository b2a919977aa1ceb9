package sched

import (
	"math/rand"
	"testing"
	"time"

	"mcs/internal/dcmodel"
	"mcs/internal/workload"
)

func qt(id workload.TaskID, ready time.Duration, runtime time.Duration, cores int) *QueuedTask {
	return &QueuedTask{
		Task:  &workload.Task{ID: id, Cores: cores, MemoryMB: 1, Runtime: runtime},
		Ready: ready,
	}
}

func ids(pending []*QueuedTask) []workload.TaskID {
	out := make([]workload.TaskID, len(pending))
	for i, p := range pending {
		out[i] = p.Task.ID
	}
	return out
}

func TestFCFSOrdersByReady(t *testing.T) {
	pending := []*QueuedTask{
		qt(1, 3*time.Second, time.Second, 1),
		qt(2, 1*time.Second, time.Second, 1),
		qt(3, 2*time.Second, time.Second, 1),
	}
	FCFS{}.Order(pending, 0)
	got := ids(pending)
	want := []workload.TaskID{2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order=%v, want %v", got, want)
		}
	}
}

func TestSJFAndLJF(t *testing.T) {
	mk := func() []*QueuedTask {
		return []*QueuedTask{
			qt(1, 0, 30*time.Second, 1),
			qt(2, 0, 10*time.Second, 1),
			qt(3, 0, 20*time.Second, 1),
		}
	}
	p := mk()
	SJF{}.Order(p, 0)
	if got := ids(p); got[0] != 2 || got[2] != 1 {
		t.Errorf("SJF order=%v", got)
	}
	p = mk()
	LJF{}.Order(p, 0)
	if got := ids(p); got[0] != 1 || got[2] != 2 {
		t.Errorf("LJF order=%v", got)
	}
}

func TestWFP3PrefersLongWaiters(t *testing.T) {
	pending := []*QueuedTask{
		qt(1, 99*time.Second, 10*time.Second, 1), // waited 1s
		qt(2, 0, 10*time.Second, 1),              // waited 100s
	}
	WFP3{}.Order(pending, 100*time.Second)
	if ids(pending)[0] != 2 {
		t.Errorf("WFP3 did not prioritize the starved task: %v", ids(pending))
	}
}

func TestFairShareFavorsLightUsers(t *testing.T) {
	fs := NewFairShare()
	fs.Charge("heavy", 1e6)
	a := qt(1, 0, time.Second, 1)
	a.User = "heavy"
	b := qt(2, time.Second, time.Second, 1)
	b.User = "light"
	pending := []*QueuedTask{a, b}
	fs.Order(pending, 0)
	if pending[0].User != "light" {
		t.Error("fair share did not prioritize the light user")
	}
	if fs.Name() != "fairshare" {
		t.Error("name")
	}
}

func TestRandomOrderPermutes(t *testing.T) {
	pending := make([]*QueuedTask, 20)
	for i := range pending {
		pending[i] = qt(workload.TaskID(i), 0, time.Second, 1)
	}
	RandomOrder{R: rand.New(rand.NewSource(1))}.Order(pending, 0)
	changed := false
	for i, p := range pending {
		if p.Task.ID != workload.TaskID(i) {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("random order left queue untouched (astronomically unlikely)")
	}
	// Nil RNG is inert.
	RandomOrder{}.Order(pending, 0)
}

func machineWith(id int, free int, speed float64, accel string) *dcmodel.Machine {
	return &dcmodel.Machine{
		ID: dcmodel.MachineID(id),
		Class: dcmodel.MachineClass{
			Name: "m", Cores: free, MemoryMB: 1 << 20, Speed: speed,
			MaxWatts: 100, Accelerator: accel,
		},
	}
}

func TestPlacementPolicies(t *testing.T) {
	m4 := machineWith(0, 4, 1.0, "")
	m8 := machineWith(1, 8, 2.0, "")
	m16 := machineWith(2, 16, 0.5, "")
	machines := []*dcmodel.Machine{m4, m8, m16}
	task := qt(1, 0, time.Second, 4)

	if got := (FirstFit{}).Select(machines, task); got != m4 {
		t.Errorf("firstfit=%v", got.ID)
	}
	if got := (BestFit{}).Select(machines, task); got != m4 {
		t.Errorf("bestfit=%v", got.ID)
	}
	if got := (WorstFit{}).Select(machines, task); got != m16 {
		t.Errorf("worstfit=%v", got.ID)
	}
	if got := (FastestFit{}).Select(machines, task); got != m8 {
		t.Errorf("fastestfit=%v", got.ID)
	}
	if got := (RandomFit{R: rand.New(rand.NewSource(1))}).Select(machines, task); got == nil {
		t.Error("randomfit returned nil with candidates available")
	}

	big := qt(2, 0, time.Second, 99)
	for _, p := range []PlacementPolicy{FirstFit{}, BestFit{}, WorstFit{}, FastestFit{}, RandomFit{}} {
		if got := p.Select(machines, big); got != nil {
			t.Errorf("%s placed an unfittable task", p.Name())
		}
	}
}

func TestPlacementHonorsAccelerator(t *testing.T) {
	cpu := machineWith(0, 16, 1.0, "")
	gpu := machineWith(1, 16, 1.0, "gpu")
	machines := []*dcmodel.Machine{cpu, gpu}
	task := qt(1, 0, time.Second, 1)
	task.RequireAccelerator = "gpu"
	for _, p := range []PlacementPolicy{FirstFit{}, BestFit{}, WorstFit{}, FastestFit{}} {
		if got := p.Select(machines, task); got != gpu {
			t.Errorf("%s ignored accelerator constraint", p.Name())
		}
	}
}

func TestConfigNamed(t *testing.T) {
	c := Config{Queue: SJF{}, Placement: BestFit{}, Mode: EASY}
	if got := c.Named(); got != "sjf/bestfit/easy-backfill" {
		t.Errorf("Named=%q", got)
	}
	if (Config{}).Named() == "" {
		t.Error("zero config must still name itself")
	}
	for _, m := range []QueueMode{Strict, EASY, Greedy, QueueMode(99)} {
		if m.String() == "" {
			t.Error("empty mode name")
		}
	}
}

func TestConfigFreshResetsStatefulQueuePolicies(t *testing.T) {
	// Stateless policies pass through unchanged (same instance is fine).
	c := Config{Queue: SJF{}, Placement: BestFit{}, Mode: EASY, MaxRetries: 3}
	if got := c.Fresh(); got != c {
		t.Errorf("stateless config changed under Fresh: %+v", got)
	}

	// Fair-share: charged usage must not leak into the fresh instance.
	fs := NewFairShare()
	fs.Charge("alice", 1e6)
	fresh := Config{Queue: fs}.Fresh()
	ffs, ok := fresh.Queue.(*FairShare)
	if !ok {
		t.Fatalf("Fresh queue is %T, want *FairShare", fresh.Queue)
	}
	if ffs == fs {
		t.Error("Fresh returned the same fair-share instance")
	}
	if len(ffs.usage) != 0 {
		t.Errorf("fresh fair-share carries usage %v", ffs.usage)
	}

	// Portfolio: members are freshened recursively, epoch is kept, scores
	// and exploration state reset.
	inner := NewFairShare()
	inner.Charge("bob", 42)
	p := NewPortfolio(inner, SJF{})
	p.Epoch = 5 * time.Minute
	p.TaskCompleted(10*time.Minute, time.Minute, time.Minute) // mutate state
	fp, ok := Config{Queue: p}.Fresh().Queue.(*Portfolio)
	if !ok {
		t.Fatal("Fresh portfolio lost its type")
	}
	if fp == p || fp.Epoch != p.Epoch || fp.current != 0 || fp.explored != 0 {
		t.Errorf("portfolio not fresh: %+v", fp)
	}
	if fin, ok := fp.Policies[0].(*FairShare); !ok || len(fin.usage) != 0 {
		t.Errorf("portfolio member not freshened: %#v", fp.Policies[0])
	}
	if _, ok := fp.Policies[1].(SJF); !ok {
		t.Errorf("stateless member changed type: %T", fp.Policies[1])
	}
}
