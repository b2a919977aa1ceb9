package opendc

import (
	"cmp"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"mcs/internal/dcmodel"
	"mcs/internal/failure"
	"mcs/internal/workload"
)

func orderingJob(id workload.JobID, submit time.Duration, cores int, runtime time.Duration) workload.Job {
	return workload.Job{ID: id, User: "u", Submit: submit, Tasks: []workload.Task{{
		ID: workload.TaskID(id), Job: id, Cores: cores, MemoryMB: 1, Runtime: runtime,
	}}}
}

// TestRunAdmitsUnsortedJobsAndFailuresStably: RunOn admits jobs and the
// failure timeline in a stable time order, so an unsorted input runs exactly
// like its stably sorted form. Same-instant jobs (5 before 2) and failures
// keep their slice order, and swapping either pair changes the report. The
// drained run (no explicit horizon)
// also derives its internal bound from the sorted submit span.
func TestRunAdmitsUnsortedJobsAndFailuresStably(t *testing.T) {
	jobs := []workload.Job{
		orderingJob(3, 20*time.Second, 1, 30*time.Second),
		orderingJob(5, 10*time.Second, 4, 40*time.Second),
		orderingJob(2, 10*time.Second, 4, 25*time.Second),
		orderingJob(1, 0, 2, 50*time.Second),
		orderingJob(4, 30*time.Second, 3, 15*time.Second),
	}
	// The first 15 s failure takes machine 1 down for 3 s; the second finds
	// it down already and does nothing, so their order sets the repair time.
	failures := []failure.Event{
		{At: 45 * time.Second, Machines: []int{1}, Repair: 5 * time.Second},
		{At: 15 * time.Second, Machines: []int{1}, Repair: 3 * time.Second},
		{At: 15 * time.Second, Machines: []int{1}, Repair: 10 * time.Second},
	}
	small := dcmodel.ClassCommodity
	small.Cores = 4
	run := func(jobs []workload.Job, failures []failure.Event) *Result {
		t.Helper()
		res, err := Run(&Scenario{
			Cluster:  dcmodel.NewHomogeneous("c", 2, small, 0),
			Workload: &workload.Workload{Jobs: jobs},
			FailureSource: func(int, time.Duration, []string) ([]failure.Event, error) {
				return failures, nil
			},
			Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sortedJobs := slices.Clone(jobs)
	slices.SortStableFunc(sortedJobs, func(a, b workload.Job) int { return cmp.Compare(a.Submit, b.Submit) })
	sortedFailures := slices.Clone(failures)
	slices.SortStableFunc(sortedFailures, func(a, b failure.Event) int { return cmp.Compare(a.At, b.At) })

	got, want := run(jobs, failures), run(sortedJobs, sortedFailures)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unsorted input diverges from its stably sorted form:\n got  %+v\n want %+v", got, want)
	}
	if failures[0].At != 45*time.Second {
		t.Error("RunOn reordered the caller's failure slice")
	}

	// Swapped ties run differently, so the comparison above does pin the
	// stable order of both streams.
	swappedJobs := slices.Clone(sortedJobs)
	swappedJobs[1], swappedJobs[2] = swappedJobs[2], swappedJobs[1]
	swappedFailures := slices.Clone(sortedFailures)
	swappedFailures[0], swappedFailures[1] = swappedFailures[1], swappedFailures[0]
	if reflect.DeepEqual(run(swappedJobs, sortedFailures).Records, want.Records) {
		t.Error("same-instant job order does not reach the report")
	}
	if reflect.DeepEqual(run(sortedJobs, swappedFailures).Records, want.Records) {
		t.Error("same-instant failure order does not reach the report")
	}
}

// TestRunEmptyJobAndFailureLists: an empty failure timeline runs exactly
// like no failure injection, and an empty job list is the named
// ErrNoWorkload, not a panic.
func TestRunEmptyJobAndFailureLists(t *testing.T) {
	sc := func(src func(int, time.Duration, []string) ([]failure.Event, error)) *Scenario {
		return &Scenario{
			Cluster:       dcmodel.NewHomogeneous("c", 1, dcmodel.ClassCommodity, 8),
			Workload:      singleTaskWorkload(),
			FailureSource: src,
		}
	}
	empty, err := Run(sc(func(int, time.Duration, []string) ([]failure.Event, error) { return nil, nil }))
	if err != nil {
		t.Fatal(err)
	}
	none, err := Run(sc(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(empty, none) {
		t.Errorf("empty failure list differs from no injection:\n  %+v\n  %+v", empty, none)
	}
	_, err = Run(&Scenario{
		Cluster:  dcmodel.NewHomogeneous("c", 1, dcmodel.ClassCommodity, 8),
		Workload: &workload.Workload{Jobs: []workload.Job{}},
	})
	if !errors.Is(err, ErrNoWorkload) {
		t.Errorf("empty job list: err = %v, want ErrNoWorkload", err)
	}
}
