// Package autoscale implements the autoscaler policies from the evaluation
// study the paper builds challenge C7 on (Ilyushkin et al., "An Experimental
// Performance Evaluation of Autoscalers for Complex Workflows", ref [43]):
// the general-purpose scalers React, Adapt, Hist, Reg, and ConPaaS, and the
// workflow-aware scalers Token and Plan. Each policy maps a demand history to
// a desired supply of resource units.
//
// The SimulateOn harness replays a demand curve against a policy with a
// configurable provisioning delay, producing the supply curve that package
// elasticity scores — reproducing the study's methodology, and with it the
// paper's claim that no single autoscaler dominates (experiment D1).
package autoscale

import (
	"math"
	"time"

	"mcs/internal/sim"
	"mcs/internal/stats"
)

// Autoscaler decides a desired supply level from the demand history.
type Autoscaler interface {
	// Decide returns the desired number of resource units given the
	// current time, the demand history (step series of demanded units),
	// and the current supply.
	Decide(now time.Duration, demand *stats.TimeSeries, current int) int
	// Name identifies the policy in reports.
	Name() string
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if hi > 0 && v > hi {
		return hi
	}
	return v
}

// React provisions exactly the current demand plus a fixed headroom fraction
// (Chieu et al.; the "reactive baseline" of [43]).
type React struct {
	Headroom float64 // e.g. 0.1 provisions 10% above demand
}

// Decide implements Autoscaler.
func (p React) Decide(now time.Duration, demand *stats.TimeSeries, _ int) int {
	d := demand.At(now)
	return int(math.Ceil(d * (1 + p.Headroom)))
}

// Name implements Autoscaler.
func (React) Name() string { return "react" }

// Adapt changes supply gradually, limiting the per-decision step to MaxStep
// units (Ali-Eldin et al.): smooth, but slow on bursts.
type Adapt struct {
	MaxStep int
}

// Decide implements Autoscaler.
func (p Adapt) Decide(now time.Duration, demand *stats.TimeSeries, current int) int {
	step := p.MaxStep
	if step <= 0 {
		step = 2
	}
	target := int(math.Ceil(demand.At(now)))
	if target > current {
		return current + minInt(step, target-current)
	}
	if target < current {
		return current - minInt(step, current-target)
	}
	return current
}

// Name implements Autoscaler.
func (Adapt) Name() string { return "adapt" }

// Hist provisions the Percentile of the demand observed during the same
// hour-of-day across the whole history (Urgaonkar et al.): excellent for
// diurnal patterns, blind to novel bursts.
type Hist struct {
	Percentile float64 // default 0.95
}

// Decide implements Autoscaler.
func (p Hist) Decide(now time.Duration, demand *stats.TimeSeries, current int) int {
	pct := p.Percentile
	if pct <= 0 {
		pct = 0.95
	}
	hour := int(now.Hours()) % 24
	var sameHour []float64
	for _, pt := range demand.Points() {
		if int(pt.T.Hours())%24 == hour {
			sameHour = append(sameHour, pt.V)
		}
	}
	if len(sameHour) == 0 {
		return int(math.Ceil(demand.At(now)))
	}
	return int(math.Ceil(stats.Quantile(sameHour, pct)))
}

// Name implements Autoscaler.
func (Hist) Name() string { return "hist" }

// Reg predicts the next-epoch demand with a least-squares line over Window
// (Iqbal et al.): tracks trends, overshoots on turning points.
type Reg struct {
	Window time.Duration // default 10 minutes
}

// Decide implements Autoscaler.
func (p Reg) Decide(now time.Duration, demand *stats.TimeSeries, current int) int {
	win := p.Window
	if win <= 0 {
		win = 10 * time.Minute
	}
	var xs, ys []float64
	for _, pt := range demand.Points() {
		if pt.T >= now-win && pt.T <= now {
			xs = append(xs, pt.T.Seconds())
			ys = append(ys, pt.V)
		}
	}
	if len(xs) < 2 {
		return int(math.Ceil(demand.At(now)))
	}
	fit := stats.FitLine(xs, ys)
	pred := fit.Predict(now.Seconds() + win.Seconds()/2)
	if pred < 0 {
		pred = 0
	}
	return int(math.Ceil(pred))
}

// Name implements Autoscaler.
func (Reg) Name() string { return "reg" }

// ConPaaS combines several predictors over a sliding window and provisions
// for the largest prediction (Fernandez et al.): robust, over-provisions.
type ConPaaS struct {
	Window time.Duration // default 15 minutes
}

// Decide implements Autoscaler.
func (p ConPaaS) Decide(now time.Duration, demand *stats.TimeSeries, current int) int {
	win := p.Window
	if win <= 0 {
		win = 15 * time.Minute
	}
	var xs, ys []float64
	for _, pt := range demand.Points() {
		if pt.T >= now-win && pt.T <= now {
			xs = append(xs, pt.T.Seconds())
			ys = append(ys, pt.V)
		}
	}
	last := demand.At(now)
	if len(ys) == 0 {
		return int(math.Ceil(last))
	}
	mean := stats.Mean(ys)
	pred := math.Max(last, mean)
	if len(xs) >= 2 {
		lin := stats.FitLine(xs, ys).Predict(now.Seconds() + win.Seconds()/2)
		pred = math.Max(pred, lin)
	}
	if pred < 0 {
		pred = 0
	}
	return int(math.Ceil(pred))
}

// Name implements Autoscaler.
func (ConPaaS) Name() string { return "conpaas" }

// Token is the workflow-aware scaler of [43]: it provisions exactly the
// current level of parallelism (the demand signal for workflows), tokens
// being eligible tasks. No headroom, no smoothing.
type Token struct{}

// Decide implements Autoscaler.
func (Token) Decide(now time.Duration, demand *stats.TimeSeries, _ int) int {
	return int(math.Ceil(demand.At(now)))
}

// Name implements Autoscaler.
func (Token) Name() string { return "token" }

// Plan is the plan-based workflow scaler of [43]: it provisions for the peak
// demand expected over the planning window, estimated from the recent past —
// pre-provisioning ahead of workflow structure.
type Plan struct {
	Window time.Duration // default 20 minutes
}

// Decide implements Autoscaler.
func (p Plan) Decide(now time.Duration, demand *stats.TimeSeries, current int) int {
	win := p.Window
	if win <= 0 {
		win = 20 * time.Minute
	}
	peak := demand.At(now)
	for _, pt := range demand.Points() {
		if pt.T >= now-win && pt.T <= now && pt.V > peak {
			peak = pt.V
		}
	}
	return int(math.Ceil(peak))
}

// Name implements Autoscaler.
func (Plan) Name() string { return "plan" }

// Compile-time interface compliance checks.
var (
	_ Autoscaler = React{}
	_ Autoscaler = Adapt{}
	_ Autoscaler = Hist{}
	_ Autoscaler = Reg{}
	_ Autoscaler = ConPaaS{}
	_ Autoscaler = Token{}
	_ Autoscaler = Plan{}
)

// All returns one instance of every autoscaler with default parameters, in
// the order the study tables list them.
func All() []Autoscaler {
	return []Autoscaler{
		React{Headroom: 0.1},
		Adapt{MaxStep: 2},
		Hist{Percentile: 0.95},
		Reg{},
		ConPaaS{},
		Token{},
		Plan{},
	}
}

// SimOptions configures the replay harness.
type SimOptions struct {
	// Interval is the decision epoch (default 1 minute).
	Interval time.Duration
	// ProvisioningDelay is how long a scale-up takes to become effective
	// (VM boot time); scale-downs are immediate (default 2 epochs).
	ProvisioningDelay time.Duration
	// MinSupply and MaxSupply bound the supply (0 MaxSupply = unbounded).
	MinSupply, MaxSupply int
	// InitialSupply is the starting supply (default MinSupply).
	InitialSupply int
}

// SimulateOn replays the demand series against the autoscaler from time 0
// to horizon and returns the effective supply series (step function),
// honoring the provisioning delay. Every decision epoch is a kernel event,
// so registry runs account autoscaler decisions in the common event count;
// callers without a kernel of their own pass sim.New(0).
func SimulateOn(k *sim.Kernel, a Autoscaler, demand *stats.TimeSeries, horizon time.Duration, opts SimOptions) *stats.TimeSeries {
	interval, delay := opts.Interval, opts.ProvisioningDelay
	if interval <= 0 {
		interval = time.Minute
	}
	if delay < 0 {
		delay = 0
	}
	current := opts.InitialSupply
	if current < opts.MinSupply {
		current = opts.MinSupply
	}
	supply := stats.NewTimeSeries()
	supply.Add(0, float64(current))
	visible := stats.NewTimeSeries() // demand history up to now
	pts := demand.Points()
	next := 0
	// Each epoch reveals the demand up to now, asks the policy, and
	// records any supply change: scale-ups land after the provisioning
	// delay, scale-downs are immediate.
	var tick sim.Handler
	tick = func(now sim.Time) {
		for next < len(pts) && pts[next].T <= now {
			visible.Add(pts[next].T, pts[next].V)
			next++
		}
		want := clamp(a.Decide(now, visible, current), opts.MinSupply, opts.MaxSupply)
		if want > current {
			supply.Add(now+delay, float64(want))
		} else if want < current {
			supply.Add(now, float64(want))
		}
		current = want
		if now+interval <= horizon {
			k.AfterFunc(interval, tick)
		}
	}
	k.AfterFunc(0, tick)
	k.Run()
	return supply
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
