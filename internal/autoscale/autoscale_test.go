package autoscale

import (
	"math"
	"testing"
	"time"

	"mcs/internal/sim"
	"mcs/internal/stats"
)

// step builds a demand series from per-minute values.
func step(values ...float64) *stats.TimeSeries {
	ts := stats.NewTimeSeries()
	for i, v := range values {
		ts.Add(time.Duration(i)*time.Minute, v)
	}
	return ts
}

func TestReactTracksDemandWithHeadroom(t *testing.T) {
	d := step(10)
	got := React{Headroom: 0.1}.Decide(0, d, 0)
	if got != 11 {
		t.Errorf("react=%d, want 11", got)
	}
	if got := (React{}).Decide(0, d, 0); got != 10 {
		t.Errorf("react no headroom=%d, want 10", got)
	}
}

func TestAdaptLimitsStep(t *testing.T) {
	d := step(100)
	a := Adapt{MaxStep: 3}
	if got := a.Decide(0, d, 10); got != 13 {
		t.Errorf("adapt up=%d, want 13", got)
	}
	d2 := step(0)
	if got := a.Decide(0, d2, 10); got != 7 {
		t.Errorf("adapt down=%d, want 7", got)
	}
	d3 := step(10)
	if got := a.Decide(0, d3, 10); got != 10 {
		t.Errorf("adapt hold=%d, want 10", got)
	}
}

func TestHistLearnsDiurnalPattern(t *testing.T) {
	// Two days of demand: hour 10 always 50, other hours 5.
	d := stats.NewTimeSeries()
	for day := 0; day < 2; day++ {
		for hour := 0; hour < 24; hour++ {
			v := 5.0
			if hour == 10 {
				v = 50
			}
			d.Add(time.Duration(day*24+hour)*time.Hour, v)
		}
	}
	h := Hist{Percentile: 0.95}
	// Decision at day 2, hour 10: should provision for the known peak.
	now := 58 * time.Hour // 2*24 + 10
	if got := h.Decide(now, d, 0); got < 45 {
		t.Errorf("hist at peak hour=%d, want ≈50", got)
	}
	// And nearly nothing at a quiet hour.
	if got := h.Decide(50*time.Hour, d, 0); got > 10 {
		t.Errorf("hist at quiet hour=%d, want ≈5", got)
	}
}

func TestRegExtrapolatesTrend(t *testing.T) {
	d := step(10, 20, 30, 40, 50) // +10/min
	now := 4 * time.Minute
	got := Reg{Window: 10 * time.Minute}.Decide(now, d, 0)
	if got <= 50 {
		t.Errorf("reg=%d, want extrapolation above current 50", got)
	}
	// Falling demand must not go negative.
	d2 := step(50, 10, 5, 1, 0, 0, 0, 0, 0, 0, 0)
	got2 := Reg{Window: 10 * time.Minute}.Decide(10*time.Minute, d2, 0)
	if got2 < 0 {
		t.Errorf("reg negative supply %d", got2)
	}
}

func TestConPaaSProvisionsForMaxPredictor(t *testing.T) {
	d := step(10, 10, 10, 40)
	got := ConPaaS{Window: 10 * time.Minute}.Decide(3*time.Minute, d, 0)
	if got < 40 {
		t.Errorf("conpaas=%d, want ≥ last demand 40", got)
	}
}

func TestTokenIsExact(t *testing.T) {
	d := step(7)
	if got := (Token{}).Decide(0, d, 99); got != 7 {
		t.Errorf("token=%d, want 7", got)
	}
}

func TestPlanProvisionsForWindowPeak(t *testing.T) {
	d := step(5, 60, 5, 5)
	got := Plan{Window: 10 * time.Minute}.Decide(3*time.Minute, d, 0)
	if got != 60 {
		t.Errorf("plan=%d, want 60 (window peak)", got)
	}
}

func TestAllReturnsSevenDistinctScalers(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("All()=%d scalers, want 7", len(all))
	}
	names := map[string]bool{}
	for _, a := range all {
		if a.Name() == "" {
			t.Error("empty autoscaler name")
		}
		if names[a.Name()] {
			t.Errorf("duplicate autoscaler name %q", a.Name())
		}
		names[a.Name()] = true
	}
}

func TestSimulateHonorsBoundsAndDelay(t *testing.T) {
	d := step(0, 0, 100, 100, 100, 0, 0, 0, 0, 0)
	horizon := 10 * time.Minute
	supply := SimulateOn(sim.New(0), React{}, d, horizon, SimOptions{
		Interval:          time.Minute,
		ProvisioningDelay: 2 * time.Minute,
		MinSupply:         1,
		MaxSupply:         50,
	})
	samples := supply.Resample(0, horizon, time.Minute)
	for i, s := range samples {
		if s < 1 || s > 50 {
			t.Fatalf("supply[%d]=%v out of [1,50]", i, s)
		}
	}
	// Demand jumps at t=2min; with a 2-minute provisioning delay the cap
	// (50) cannot be effective before t=4min.
	if samples[2] != 1 || samples[3] != 1 {
		t.Errorf("provisioning delay ignored: %v", samples)
	}
	if samples[4] != 50 {
		t.Errorf("scale-up never landed: %v", samples)
	}
	// Scale-down is immediate once demand drops (React follows demand).
	if samples[6] != 1 {
		t.Errorf("scale-down not applied: %v", samples)
	}
}

func TestSimulateOnlySeesPastDemand(t *testing.T) {
	// A clairvoyant bug would provision for the future spike before it
	// happens. Plan with a look-back window must not.
	d := step(1, 1, 1, 1, 1, 1, 1, 1, 100, 1)
	supply := SimulateOn(sim.New(0), Plan{Window: 5 * time.Minute}, d, 10*time.Minute, SimOptions{Interval: time.Minute})
	samples := supply.Resample(0, 10*time.Minute, time.Minute)
	for i := 0; i < 8; i++ {
		if samples[i] > 2 {
			t.Fatalf("clairvoyant supply %v at t=%dmin before spike at t=8min", samples[i], i)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	d := step(3, 9, 27, 9, 3, 1)
	a := SimulateOn(sim.New(0), ConPaaS{}, d, 6*time.Minute, SimOptions{})
	b := SimulateOn(sim.New(0), ConPaaS{}, d, 6*time.Minute, SimOptions{})
	pa, pb := a.Points(), b.Points()
	if len(pa) != len(pb) {
		t.Fatal("nondeterministic supply series")
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("nondeterministic supply series")
		}
	}
}

func TestClamp(t *testing.T) {
	if clamp(5, 0, 10) != 5 || clamp(-1, 0, 10) != 0 || clamp(99, 0, 10) != 10 {
		t.Error("clamp broken")
	}
	if clamp(99, 0, 0) != 99 {
		t.Error("clamp with no upper bound broken")
	}
}

func TestScalersNeverReturnNegative(t *testing.T) {
	d := step(0, 0, 0)
	for _, a := range All() {
		if got := a.Decide(2*time.Minute, d, 0); got < 0 {
			t.Errorf("%s returned negative supply %d", a.Name(), got)
		}
	}
}

func TestScalersHandleEmptyHistory(t *testing.T) {
	d := stats.NewTimeSeries()
	for _, a := range All() {
		got := a.Decide(time.Hour, d, 3)
		if got < 0 || math.IsNaN(float64(got)) {
			t.Errorf("%s on empty history = %d", a.Name(), got)
		}
	}
}

func BenchmarkSimulateDay(b *testing.B) {
	d := stats.NewTimeSeries()
	for m := 0; m < 24*60; m++ {
		d.Add(time.Duration(m)*time.Minute, float64(10+m%17))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SimulateOn(sim.New(0), ConPaaS{}, d, 24*time.Hour, SimOptions{})
	}
}
