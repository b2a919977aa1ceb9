package autoscale

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mcs/internal/scenario"
	"mcs/internal/stats"
)

func TestAutoscaleScenarioPolicyMatrix(t *testing.T) {
	for _, policy := range []string{"react", "adapt", "hist", "reg", "conpaas", "token", "plan"} {
		for _, pattern := range []string{"flat", "bursty", "diurnal"} {
			doc := json.RawMessage(`{
				"kind": "autoscale", "policy": "` + policy + `", "pattern": "` + pattern + `",
				"horizonHours": 4, "seed": 5
			}`)
			res, err := scenario.RunDocument(doc)
			if err != nil {
				t.Fatalf("%s/%s: %v", policy, pattern, err)
			}
			if res.Labels["policy"] != policy || res.Labels["pattern"] != pattern {
				t.Errorf("labels = %v", res.Labels)
			}
			if res.Metrics["meanSupply"] <= 0 {
				t.Errorf("%s/%s: meanSupply = %v", policy, pattern, res.Metrics["meanSupply"])
			}
			if res.Events == 0 {
				t.Errorf("%s/%s: no kernel events", policy, pattern)
			}
		}
	}
}

func TestAutoscaleScenarioRejectsUnknowns(t *testing.T) {
	if _, err := scenario.RunDocument(json.RawMessage(`{"kind": "autoscale", "policy": "psychic"}`)); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := scenario.RunDocument(json.RawMessage(`{"kind": "autoscale", "pattern": "chaotic"}`)); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestAutoscaleScenarioRejectsNegativeValues(t *testing.T) {
	for _, field := range []string{"horizonHours", "intervalSeconds", "minSupply", "maxSupply",
		"initialSupply", "headroom", "maxStep", "percentile", "windowMinutes"} {
		doc := `{"kind": "autoscale", "` + field + `": -3}`
		_, err := scenario.RunDocument(json.RawMessage(doc))
		if err == nil {
			t.Errorf("negative %s accepted", field)
		} else if !strings.Contains(err.Error(), field) {
			t.Errorf("negative %s: error %q does not name the field", field, err)
		}
	}
}

func TestAutoscaleScenarioZeroMeansDefault(t *testing.T) {
	zero, err := scenario.RunDocument(json.RawMessage(`{"kind": "autoscale", "seed": 4, "horizonHours": 0,
		"intervalSeconds": 0, "minSupply": 0, "maxSupply": 0, "initialSupply": 0,
		"headroom": 0, "maxStep": 0, "percentile": 0, "windowMinutes": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	omitted, err := scenario.RunDocument(json.RawMessage(`{"kind": "autoscale", "seed": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(zero)
	b, _ := json.Marshal(omitted)
	if string(a) != string(b) {
		t.Errorf("explicit zeros differ from the defaults:\n  %s\n  %s", a, b)
	}
}

func TestAutoscaleScenarioProvisioningDelay(t *testing.T) {
	a := &autoscaleScenario{}
	if err := a.Configure(json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if a.opts.ProvisioningDelay != 2*time.Minute {
		t.Errorf("absent delay = %v, want 2m default", a.opts.ProvisioningDelay)
	}
	// An explicit 0 means instant provisioning, not the default.
	if err := a.Configure(json.RawMessage(`{"provisioningDelaySeconds": 0}`)); err != nil {
		t.Fatal(err)
	}
	if a.opts.ProvisioningDelay != 0 {
		t.Errorf("explicit 0 delay = %v, want 0", a.opts.ProvisioningDelay)
	}
	if err := a.Configure(json.RawMessage(`{"provisioningDelaySeconds": -5}`)); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestDemandByNamePatterns(t *testing.T) {
	horizon := 24 * time.Hour
	for _, pattern := range []string{"flat", "bursty", "diurnal"} {
		ts, err := DemandByName(pattern, horizon, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		if ts.Len() != int(horizon/(5*time.Minute)) {
			t.Errorf("%s: %d points", pattern, ts.Len())
		}
		if ts.MaxValue() <= 0 {
			t.Errorf("%s: no demand", pattern)
		}
	}
	// Bursty should be spikier than flat.
	flat, _ := DemandByName("flat", horizon, rand.New(rand.NewSource(7)))
	bursty, _ := DemandByName("bursty", horizon, rand.New(rand.NewSource(7)))
	if stats.Std(bursty.Values()) <= stats.Std(flat.Values()) {
		t.Error("bursty demand is not burstier than flat")
	}
}
