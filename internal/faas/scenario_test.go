package faas_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcs/internal/faas"
	"mcs/internal/scenario"
	"mcs/internal/trace"
	"mcs/internal/workload"
)

func TestFaasScenarioExampleRuns(t *testing.T) {
	res, err := scenario.RunDocument(json.RawMessage(faas.ExampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "faas" {
		t.Errorf("scenario = %q", res.Scenario)
	}
	if res.Metrics["invocations"] != 2000 {
		t.Errorf("invocations = %v, want 2000", res.Metrics["invocations"])
	}
	if res.Metrics["coldStarts"] == 0 {
		t.Error("no cold starts despite a cold platform")
	}
	if res.Metrics["peakInstances"] == 0 {
		t.Error("no instances ever started")
	}
	if res.Metrics["p99LatencySeconds"] < res.Metrics["p50LatencySeconds"] {
		t.Errorf("p99 %v below p50 %v", res.Metrics["p99LatencySeconds"], res.Metrics["p50LatencySeconds"])
	}
	if res.Events == 0 {
		t.Error("no kernel events recorded")
	}
}

func TestFaasScenarioDefaultCatalog(t *testing.T) {
	// An empty document must fall back to the image-pipeline catalog and
	// still run a full invocation stream.
	res, err := scenario.RunDocument(json.RawMessage(`{"kind": "faas", "invocations": 300, "seed": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["invocations"] != 300 {
		t.Errorf("invocations = %v, want 300", res.Metrics["invocations"])
	}
}

func TestFaasScenarioKeepWarmReducesColdStarts(t *testing.T) {
	doc := func(keepWarm int) json.RawMessage {
		raw, _ := json.Marshal(map[string]any{
			"kind": "faas", "invocations": 1000, "meanGapSeconds": 1,
			"keepWarm": keepWarm, "idleTimeoutSeconds": 30, "seed": 11,
		})
		return raw
	}
	cold, err := scenario.RunDocument(doc(0))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := scenario.RunDocument(doc(3))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Metrics["coldFraction"] >= cold.Metrics["coldFraction"] {
		t.Errorf("keepWarm did not reduce cold fraction: %v -> %v",
			cold.Metrics["coldFraction"], warm.Metrics["coldFraction"])
	}
}

func TestFaasScenarioSeedStable(t *testing.T) {
	cfg := json.RawMessage(`{"invocations": 400, "meanGapSeconds": 2, "keepWarm": 1}`)
	run := func(seed int64) []byte {
		res, err := scenario.Run("faas", seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := run(7), run(7); string(a) != string(b) {
		t.Errorf("same-seed runs differ:\n  %s\n  %s", a, b)
	}
	if a, c := run(7), run(8); string(a) == string(c) {
		t.Error("different seeds produced identical results; RNG not wired in")
	}
}

func TestFaasScenarioRejectsBadConfig(t *testing.T) {
	for name, doc := range map[string]string{
		"empty function name": `{"kind": "faas", "functions": [{"meanSeconds": 0.1}]}`,
		"malformed json":      `{"kind": "faas", "invocations": "lots"}`,
	} {
		if _, err := scenario.RunDocument(json.RawMessage(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFaasScenarioRejectsNegativeValues(t *testing.T) {
	for name, tc := range map[string]struct{ doc, field string }{
		"negative invocations":       {`{"kind": "faas", "invocations": -1}`, "invocations"},
		"negative meanGapSeconds":    {`{"kind": "faas", "meanGapSeconds": -3}`, "meanGapSeconds"},
		"negative keepWarm":          {`{"kind": "faas", "keepWarm": -1}`, "keepWarm"},
		"negative maxInstances":      {`{"kind": "faas", "maxInstances": -8}`, "maxInstances"},
		"negative idleTimeout":       {`{"kind": "faas", "idleTimeoutSeconds": -120}`, "idleTimeoutSeconds"},
		"negative workload.jobs":     {`{"kind": "faas", "workload": {"jobs": -5}}`, "workload.jobs"},
		"negative meanSeconds":       {`{"kind": "faas", "functions": [{"name": "a", "meanSeconds": -0.1}]}`, "functions[0].meanSeconds"},
		"negative sigmaLog":          {`{"kind": "faas", "functions": [{"name": "a"}, {"name": "b", "sigmaLog": -0.6}]}`, "functions[1].sigmaLog"},
		"negative coldStartSeconds":  {`{"kind": "faas", "functions": [{"name": "a", "coldStartSeconds": -1}]}`, "functions[0].coldStartSeconds"},
		"negative function memoryMB": {`{"kind": "faas", "functions": [{"name": "a", "memoryMB": -128}]}`, "functions[0].memoryMB"},
	} {
		_, err := scenario.RunDocument(json.RawMessage(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name %s", name, err, tc.field)
		}
	}
}

func TestFaasScenarioZeroMeansDefault(t *testing.T) {
	zero, err := scenario.RunDocument(json.RawMessage(`{"kind": "faas", "invocations": 0, "meanGapSeconds": 0,
		"keepWarm": 0, "maxInstances": 0, "idleTimeoutSeconds": 0, "workload": {"jobs": 0}, "seed": 1,
		"functions": [{"name": "f", "meanSeconds": 0, "sigmaLog": 0, "coldStartSeconds": 0, "memoryMB": 0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	omitted, err := scenario.RunDocument(json.RawMessage(`{"kind": "faas", "seed": 1, "functions": [{"name": "f"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(zero)
	b, _ := json.Marshal(omitted)
	if string(a) != string(b) {
		t.Errorf("explicit zeros differ from the defaults:\n  %s\n  %s", a, b)
	}
}

func TestFaasScenarioRejectsUnknownTraceFunction(t *testing.T) {
	// A trace invoking a function absent from the catalog must fail the
	// run, not silently drop calls.
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.mcw")
	w := &workload.Workload{Jobs: []workload.Job{{
		ID: 1, User: "not-in-catalog", Submit: time.Second,
		Tasks: []workload.Task{{ID: 1, Job: 1, Cores: 1, Runtime: time.Second}},
	}}}
	if err := trace.WriteFile(path, trace.FormatMCW, w); err != nil {
		t.Fatal(err)
	}
	doc := fmt.Sprintf(`{"kind": "faas", "workload": {"trace": %q}, "seed": 1}`, path)
	_, err := scenario.Run("faas", 1, json.RawMessage(doc))
	if err == nil {
		t.Fatal("unknown trace function accepted")
	}
	if !errors.Is(err, faas.ErrUnknownFunction) {
		t.Errorf("err = %v, want ErrUnknownFunction", err)
	}
}

func TestFaasScenarioExportsInvocationWorkload(t *testing.T) {
	s, err := scenario.New("faas", json.RawMessage(`{"invocations": 50, "meanGapSeconds": 1, "seed": 9}`))
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.(scenario.WorkloadProvider).SourceWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 50 {
		t.Fatalf("exported %d jobs, want 50", len(w.Jobs))
	}
	for i := range w.Jobs {
		j := &w.Jobs[i]
		if len(j.Tasks) != 1 || j.Tasks[0].Runtime <= 0 {
			t.Fatalf("job %d: malformed invocation %+v", j.ID, j)
		}
		// Execution demand travels with the workload: the catalog's
		// default functions are the only valid names.
		switch j.User {
		case "ingest", "resize", "store":
		default:
			t.Fatalf("job %d: unexpected function %q", j.ID, j.User)
		}
	}
}
