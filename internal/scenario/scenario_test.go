package scenario

import (
	"encoding/json"
	"errors"
	"testing"

	"mcs/internal/sim"
)

type fakeScenario struct {
	name      string
	cfgErr    error
	runErr    error
	events    uint64
	metric    float64
	gotRaw    json.RawMessage
	runCalled bool
}

func (f *fakeScenario) Name() string { return f.name }

func (f *fakeScenario) Configure(raw json.RawMessage) error {
	f.gotRaw = raw
	return f.cfgErr
}

func (f *fakeScenario) Run(k *sim.Kernel) (*Result, error) {
	f.runCalled = true
	if f.runErr != nil {
		return nil, f.runErr
	}
	k.AfterFunc(0, func(sim.Time) {})
	k.Run()
	return &Result{Metrics: map[string]float64{"x": f.metric}, Events: f.events}, nil
}

func TestRegistryRegisterLookupList(t *testing.T) {
	Register("test-alpha", func() Scenario { return &fakeScenario{name: "test-alpha"} })
	Register("test-beta", func() Scenario { return &fakeScenario{name: "test-beta"} })
	if _, ok := Lookup("test-alpha"); !ok {
		t.Fatal("registered kind not found")
	}
	if _, ok := Lookup("test-missing"); ok {
		t.Fatal("unregistered kind found")
	}
	var seenAlpha, seenBeta bool
	names := List()
	for i, name := range names {
		if i > 0 && names[i-1] >= name {
			t.Errorf("List not sorted: %v", names)
		}
		seenAlpha = seenAlpha || name == "test-alpha"
		seenBeta = seenBeta || name == "test-beta"
	}
	if !seenAlpha || !seenBeta {
		t.Errorf("List missing registered kinds: %v", names)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register("test-dup", func() Scenario { return &fakeScenario{} })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register("test-dup", func() Scenario { return &fakeScenario{} })
}

func TestRunFillsEnvelope(t *testing.T) {
	f := &fakeScenario{name: "test-env", metric: 4.5}
	Register("test-env", func() Scenario { return f })
	res, err := Run("test-env", 77, json.RawMessage(`{"kind":"test-env"}`))
	if err != nil {
		t.Fatal(err)
	}
	if !f.runCalled {
		t.Fatal("Run never called the scenario")
	}
	if res.Scenario != "test-env" || res.Seed != 77 {
		t.Errorf("envelope = %q/%d", res.Scenario, res.Seed)
	}
	// Events zero in the scenario result: filled from the kernel.
	if res.Events != 1 {
		t.Errorf("events = %d, want 1 (from kernel)", res.Events)
	}
	if res.Metrics["x"] != 4.5 {
		t.Errorf("metrics = %v", res.Metrics)
	}
	if string(f.gotRaw) != `{"kind":"test-env"}` {
		t.Errorf("raw config = %s", f.gotRaw)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run("test-nope", 0, nil); err == nil {
		t.Error("unknown kind accepted")
	}
	Register("test-cfgerr", func() Scenario { return &fakeScenario{cfgErr: errors.New("bad cfg")} })
	if _, err := Run("test-cfgerr", 0, nil); err == nil {
		t.Error("configure error swallowed")
	}
	Register("test-runerr", func() Scenario { return &fakeScenario{runErr: errors.New("boom")} })
	if _, err := Run("test-runerr", 0, nil); err == nil {
		t.Error("run error swallowed")
	}
}

func TestParseCommonDefaultsKind(t *testing.T) {
	env, err := ParseCommon(json.RawMessage(`{"seed": 12, "machines": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != DefaultKind || env.Seed != 12 {
		t.Errorf("envelope = %+v", env)
	}
	env, err = ParseCommon(json.RawMessage(`{"kind": "faas"}`))
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != "faas" {
		t.Errorf("kind = %q", env.Kind)
	}
	if _, err := ParseCommon(json.RawMessage(`not json`)); err == nil {
		t.Error("malformed envelope accepted")
	}
}

func TestResultJSONExcludesWallClock(t *testing.T) {
	res := &Result{Scenario: "s", Metrics: map[string]float64{"a": 1}, WallClock: 123456}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	for key := range decoded {
		if key == "wallClock" || key == "WallClock" {
			t.Error("wall clock leaked into result JSON; same-seed runs would differ")
		}
	}
	names := res.MetricNames()
	if len(names) != 1 || names[0] != "a" {
		t.Errorf("MetricNames = %v", names)
	}
}
