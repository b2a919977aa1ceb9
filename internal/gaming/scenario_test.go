package gaming_test

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcs/internal/gaming"
	"mcs/internal/scenario"
	"mcs/internal/trace"
	"mcs/internal/workload"
)

func TestGamingScenarioExampleRuns(t *testing.T) {
	res, err := scenario.RunDocument(json.RawMessage(gaming.ExampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "gaming" {
		t.Errorf("scenario = %q", res.Scenario)
	}
	if res.Metrics["playersServed"] == 0 {
		t.Error("no players served over a 24h horizon")
	}
	if res.Metrics["peakConcurrent"] == 0 {
		t.Error("peak concurrency never rose above zero")
	}
	if res.Metrics["peakServers"] < res.Metrics["meanServers"] {
		t.Errorf("peak servers %v below mean %v", res.Metrics["peakServers"], res.Metrics["meanServers"])
	}
	if share := res.Metrics["overloadTimeShare"]; share < 0 || share > 1 {
		t.Errorf("overloadTimeShare = %v out of [0,1]", share)
	}
	if res.Events == 0 {
		t.Error("no kernel events recorded")
	}
}

func TestGamingScenarioDefaultsFill(t *testing.T) {
	// A minimal document gets the documented defaults (12 zones, 24h) and
	// still produces a live world.
	res, err := scenario.RunDocument(json.RawMessage(`{"kind": "gaming", "seed": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["playersServed"] == 0 {
		t.Error("defaulted world served nobody")
	}
}

func TestGamingScenarioSeedStable(t *testing.T) {
	cfg := json.RawMessage(`{"zones": 4, "zoneCapacity": 40, "arrivalPerHour": 500, "horizonHours": 6}`)
	run := func(seed int64) []byte {
		res, err := scenario.Run("gaming", seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := run(3), run(3); string(a) != string(b) {
		t.Errorf("same-seed runs differ:\n  %s\n  %s", a, b)
	}
	if a, c := run(3), run(4); string(a) == string(c) {
		t.Error("different seeds produced identical worlds; RNG not wired in")
	}
}

func TestGamingScenarioRejectsBadConfig(t *testing.T) {
	for name, doc := range map[string]string{
		"horizon too large": `{"kind": "gaming", "horizonHours": 10000000}`,
		"malformed json":    `{"kind": "gaming", "zones": "several"}`,
	} {
		if _, err := scenario.RunDocument(json.RawMessage(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestGamingScenarioRejectsNegativeValues(t *testing.T) {
	for name, tc := range map[string]struct{ doc, field string }{
		"negative zones":             {`{"kind": "gaming", "zones": -1}`, "zones"},
		"negative zoneCapacity":      {`{"kind": "gaming", "zoneCapacity": -100}`, "zoneCapacity"},
		"negative maxServersPerZone": {`{"kind": "gaming", "maxServersPerZone": -4}`, "maxServersPerZone"},
		"negative arrivalPerHour":    {`{"kind": "gaming", "arrivalPerHour": -5}`, "arrivalPerHour"},
		"negative moveEveryMinutes":  {`{"kind": "gaming", "moveEveryMinutes": -10}`, "moveEveryMinutes"},
		"negative horizonHours":      {`{"kind": "gaming", "horizonHours": -24}`, "horizonHours"},
	} {
		_, err := scenario.RunDocument(json.RawMessage(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name %s", name, err, tc.field)
		}
	}
}

func TestGamingScenarioZeroMeansDefault(t *testing.T) {
	zero, err := scenario.RunDocument(json.RawMessage(`{"kind": "gaming", "zones": 0, "zoneCapacity": 0,
		"maxServersPerZone": 0, "arrivalPerHour": 0, "moveEveryMinutes": 0, "horizonHours": 0, "seed": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	omitted, err := scenario.RunDocument(json.RawMessage(`{"kind": "gaming", "seed": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(zero)
	b, _ := json.Marshal(omitted)
	if string(a) != string(b) {
		t.Errorf("explicit zeros differ from the defaults:\n  %s\n  %s", a, b)
	}
}

func TestGamingScenarioExportsSessionWorkload(t *testing.T) {
	s, err := scenario.New("gaming", json.RawMessage(`{
		"zones": 4, "zoneCapacity": 30, "arrivalPerHour": 200,
		"horizonHours": 2, "seed": 5
	}`))
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.(scenario.WorkloadProvider).SourceWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) == 0 {
		t.Fatal("no sessions generated")
	}
	horizon := 2 * time.Hour
	for i := range w.Jobs {
		j := &w.Jobs[i]
		if j.Submit >= horizon {
			t.Fatalf("job %d arrives at %v, beyond the horizon", j.ID, j.Submit)
		}
		if len(j.Tasks) != 1 || j.Tasks[0].Runtime <= 0 {
			t.Fatalf("job %d: malformed session %+v", j.ID, j)
		}
	}
}

func TestGamingTraceArrivalsBeyondHorizonAreSkipped(t *testing.T) {
	// A replayed trace may span more time than the configured horizon;
	// late arrivals must be ignored, not crash or count as served.
	dir := t.TempDir()
	path := filepath.Join(dir, "long.mcw")
	w := &workload.Workload{Jobs: []workload.Job{
		{ID: 1, User: "p1", Submit: time.Minute,
			Tasks: []workload.Task{{ID: 1, Job: 1, Cores: 1, Runtime: 10 * time.Minute}}},
		{ID: 2, User: "p2", Submit: 48 * time.Hour,
			Tasks: []workload.Task{{ID: 2, Job: 2, Cores: 1, Runtime: 10 * time.Minute}}},
	}}
	if err := trace.WriteFile(path, trace.FormatMCW, w); err != nil {
		t.Fatal(err)
	}
	doc := fmt.Sprintf(`{
		"kind": "gaming", "zones": 2, "zoneCapacity": 10,
		"horizonHours": 1, "workload": {"trace": %q}, "seed": 2
	}`, path)
	res, err := scenario.Run("gaming", 2, json.RawMessage(doc))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["playersServed"]; got != 1 {
		t.Errorf("playersServed = %v, want 1 (the in-horizon arrival)", got)
	}
}
