package opendc

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"mcs/internal/dcmodel"
	"mcs/internal/failure"
	"mcs/internal/workload"
)

// sparseWorkload builds widely spaced jobs so machines idle between them —
// the energy-proportionality scenario of adaptation class (v) in the
// authors' survey [95].
func sparseWorkload() *workload.Workload {
	w := &workload.Workload{}
	for i := 0; i < 6; i++ {
		id := workload.JobID(i + 1)
		w.Jobs = append(w.Jobs, workload.Job{
			ID: id, User: "u", Submit: time.Duration(i) * time.Hour,
			Tasks: []workload.Task{{
				ID: workload.TaskID(i + 1), Job: id, Cores: 4, MemoryMB: 100,
				Runtime: 5 * time.Minute,
			}},
		})
	}
	return w
}

func TestPowerPolicySavesEnergyOnSparseLoad(t *testing.T) {
	run := func(power *PowerPolicy) *Result {
		res, err := Run(&Scenario{
			Cluster:  dcmodel.NewHomogeneous("c", 8, dcmodel.ClassCommodity, 8),
			Workload: sparseWorkload(),
			Power:    power,
			Horizon:  7 * time.Hour,
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	always := run(nil)
	managed := run(&PowerPolicy{IdleTimeout: 10 * time.Minute, WakeDelay: 30 * time.Second})
	if always.Completed != 6 || managed.Completed != 6 {
		t.Fatalf("completions %d/%d, want 6/6", always.Completed, managed.Completed)
	}
	// The energy claim: sleeping idle machines cuts energy substantially.
	if managed.EnergyKWh >= always.EnergyKWh*0.7 {
		t.Errorf("managed energy %.2f kWh not well below always-on %.2f kWh",
			managed.EnergyKWh, always.EnergyKWh)
	}
	// The cost: waking pays latency on arrivals that find machines asleep.
	if managed.MeanWait < always.MeanWait {
		t.Errorf("managed wait %v below always-on %v; wake delay unmodeled?",
			managed.MeanWait, always.MeanWait)
	}
	if managed.MeanWait > time.Minute {
		t.Errorf("managed mean wait %v exceeds the 30s wake delay by too much", managed.MeanWait)
	}
}

func TestPowerPolicyDoesNotLoseWorkUnderLoad(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	w, err := workload.Generate(workload.GeneratorConfig{Jobs: 100}, r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(&Scenario{
		Cluster:  dcmodel.NewHomogeneous("c", 8, dcmodel.ClassCommodity, 8),
		Workload: w,
		Power:    &PowerPolicy{IdleTimeout: time.Minute, WakeDelay: 10 * time.Second},
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Failed != w.TaskCount() {
		t.Fatalf("conservation broken under power management: %d+%d != %d",
			res.Completed, res.Failed, w.TaskCount())
	}
	if res.Failed != 0 {
		t.Errorf("power management failed %d tasks", res.Failed)
	}
}

func TestSleepingMachineStateInvariants(t *testing.T) {
	m := &dcmodel.Machine{ID: 1, Class: dcmodel.ClassCommodity}
	// Busy machines refuse to sleep.
	m.Allocate(1, 1)
	m.SetAsleep(true)
	if m.Asleep() {
		t.Error("busy machine slept")
	}
	m.Release(1, 1)
	m.SetAsleep(true)
	if !m.Asleep() || m.Fits(1, 1) || m.FreeCores() != 0 {
		t.Error("asleep machine still schedulable")
	}
	// Failure clears sleep; repair wakes.
	m.SetDown(true)
	if m.Asleep() {
		t.Error("down machine still asleep")
	}
	m.SetDown(false)
	if m.Asleep() || !m.Fits(1, 1) {
		t.Error("repaired machine not awake")
	}
}

func TestSleepPowerDraw(t *testing.T) {
	c := dcmodel.NewHomogeneous("c", 2, dcmodel.ClassCommodity, 8)
	awake := c.PowerWatts()
	c.Machines[0].SetAsleep(true)
	slept := c.PowerWatts()
	want := dcmodel.ClassCommodity.IdleWatts + dcmodel.SleepWatts
	if slept != want {
		t.Errorf("power with one asleep=%v, want %v", slept, want)
	}
	if slept >= awake {
		t.Errorf("sleeping did not reduce power: %v vs %v", slept, awake)
	}
}

// TestPowerManagedRunPinned pins the float bits of a power-managed run with
// failures on a heterogeneous cluster. Documents cannot reach sleep and wake,
// so the golden corpus does not cover this path: every sleep, wake, failure
// and repair here feeds the cluster power figure the energy integral reads.
func TestPowerManagedRunPinned(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	arrival, err := workload.ArrivalByName("bursty")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(workload.GeneratorConfig{Jobs: 400, Arrival: arrival}, r)
	if err != nil {
		t.Fatal(err)
	}
	run := func(power *PowerPolicy) *Result {
		res, err := Run(&Scenario{
			Cluster: dcmodel.NewHeterogeneous("c", []dcmodel.Mix{
				{Class: dcmodel.ClassCommodity, Count: 8},
				{Class: dcmodel.ClassSlow, Count: 4},
				{Class: dcmodel.ClassGPU, Count: 4},
			}, 4, rand.New(rand.NewSource(12))),
			Workload: w,
			Failures: failure.CorrelatedModel(time.Hour, 15*time.Minute, 2),
			Power:    power,
			Horizon:  3 * 24 * time.Hour,
			Seed:     13,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(&PowerPolicy{IdleTimeout: 3 * time.Minute, WakeDelay: 20 * time.Second})
	if len(res.FailureEvents) == 0 || res.FailureRestarts == 0 {
		t.Fatalf("no failures reached the run (%d events, %d restarts)", len(res.FailureEvents), res.FailureRestarts)
	}
	if always := run(nil); always.EnergyKWh <= res.EnergyKWh {
		t.Fatalf("power policy slept nothing: %v kWh managed vs %v always-on", res.EnergyKWh, always.EnergyKWh)
	}
	got := [3]uint64{math.Float64bits(res.EnergyKWh), math.Float64bits(res.Utilization), uint64(res.Makespan)}
	want := [3]uint64{0x402fde1a0f1eac5c, 0x3f71abe1a0736548, 0x138614643d4c}
	if got != want {
		t.Errorf("pinned bits moved: got %#x (energy %v kWh, utilization %v, makespan %v), want %#x",
			got, res.EnergyKWh, res.Utilization, res.Makespan, want)
	}
}
