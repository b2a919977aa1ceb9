package banking_test

import (
	"encoding/json"
	"strings"
	"testing"

	"mcs/internal/banking"
	"mcs/internal/scenario"
)

func TestBankingScenarioExampleRuns(t *testing.T) {
	res, err := scenario.RunDocument(json.RawMessage(banking.ExampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "banking" {
		t.Errorf("scenario = %q", res.Scenario)
	}
	if res.Metrics["completed"] != 5000 {
		t.Errorf("completed = %v, want 5000", res.Metrics["completed"])
	}
	if res.Labels["discipline"] != "edf" {
		t.Errorf("discipline label = %q", res.Labels["discipline"])
	}
	if res.Metrics["p95LatencySeconds"] < res.Metrics["meanLatencySeconds"] {
		t.Errorf("p95 %v below mean %v", res.Metrics["p95LatencySeconds"], res.Metrics["meanLatencySeconds"])
	}
	if res.Events == 0 {
		t.Error("no kernel events recorded")
	}
}

func TestBankingScenarioDisciplines(t *testing.T) {
	doc := func(disc string) json.RawMessage {
		return json.RawMessage(`{"kind": "banking", "transactions": 800, "instantShare": 0.4, "discipline": "` + disc + `", "seed": 9}`)
	}
	for _, disc := range []string{"fcfs", "edf"} {
		res, err := scenario.RunDocument(doc(disc))
		if err != nil {
			t.Fatalf("%s: %v", disc, err)
		}
		if res.Labels["discipline"] != disc {
			t.Errorf("discipline label = %q, want %q", res.Labels["discipline"], disc)
		}
		if res.Metrics["completed"] != 800 {
			t.Errorf("%s: completed = %v", disc, res.Metrics["completed"])
		}
	}
}

func TestBankingScenarioSeedStable(t *testing.T) {
	cfg := json.RawMessage(`{"transactions": 600, "instantShare": 0.25, "discipline": "edf"}`)
	run := func() []byte {
		res, err := scenario.Run("banking", 13, cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := run(), run(); string(a) != string(b) {
		t.Errorf("same-seed runs differ:\n  %s\n  %s", a, b)
	}
}

func TestBankingScenarioRejectsBadConfig(t *testing.T) {
	for name, tc := range map[string]struct{ doc, field string }{
		"share too high":        {`{"kind": "banking", "instantShare": 1.5}`, "instantShare"},
		"share negative":        {`{"kind": "banking", "instantShare": -0.1}`, "instantShare"},
		"bad discipline":        {`{"kind": "banking", "discipline": "lifo"}`, "discipline"},
		"malformed json":        {`{"kind": "banking", "transactions": "many"}`, ""},
		"negative transactions": {`{"kind": "banking", "transactions": -5}`, "transactions"},
	} {
		_, err := scenario.RunDocument(json.RawMessage(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name %s", name, err, tc.field)
		}
	}
}

func TestBankingScenarioZeroTransactionsMeansDefault(t *testing.T) {
	res, err := scenario.RunDocument(json.RawMessage(`{"kind": "banking", "transactions": 0, "seed": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["completed"] != 5000 {
		t.Errorf("transactions 0: completed = %v, want the default 5000", res.Metrics["completed"])
	}
}
