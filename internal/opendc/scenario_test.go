package opendc

import (
	"encoding/json"
	"strings"
	"testing"

	"mcs/internal/scenario"
)

func TestDatacenterScenarioRejectsNegativeValues(t *testing.T) {
	for name, tc := range map[string]struct{ doc, field string }{
		"negative machines":          {`{"kind": "datacenter", "machines": -4}`, "machines"},
		"negative rackSize":          {`{"kind": "datacenter", "rackSize": -1}`, "rackSize"},
		"negative horizonSeconds":    {`{"kind": "datacenter", "horizonSeconds": -60}`, "horizonSeconds"},
		"overflowing horizonSeconds": {`{"kind": "datacenter", "horizonSeconds": 1e11}`, "horizonSeconds"},
		"negative workload.jobs":     {`{"kind": "datacenter", "workload": {"jobs": -5}}`, "workload.jobs"},
	} {
		_, err := scenario.RunDocument(json.RawMessage(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name %s", name, err, tc.field)
		}
	}
}

func TestDatacenterScenarioZeroMeansDefault(t *testing.T) {
	zero, err := scenario.RunDocument(json.RawMessage(
		`{"kind": "datacenter", "machines": 0, "rackSize": 0, "horizonSeconds": 0, "workload": {"jobs": 0}, "seed": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	omitted, err := scenario.RunDocument(json.RawMessage(`{"kind": "datacenter", "seed": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(zero)
	b, _ := json.Marshal(omitted)
	if string(a) != string(b) {
		t.Errorf("explicit zeros differ from the defaults:\n  %s\n  %s", a, b)
	}
}
