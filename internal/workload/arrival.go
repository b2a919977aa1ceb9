package workload

import (
	"math"
	"math/rand"
	"time"

	"mcs/internal/stats"
)

// ArrivalProcess generates successive inter-arrival times. Implementations
// model the arrival phenomenology the paper highlights: Poisson baselines,
// short-term burstiness ([113]), and diurnal cycles.
type ArrivalProcess interface {
	// Next returns the time until the next arrival, drawn with r.
	Next(r *rand.Rand) time.Duration
}

// Poisson is a homogeneous Poisson arrival process with RatePerHour arrivals
// per hour.
type Poisson struct {
	RatePerHour float64
}

// Next implements ArrivalProcess.
func (p Poisson) Next(r *rand.Rand) time.Duration {
	if p.RatePerHour <= 0 {
		return time.Hour
	}
	hrs := r.ExpFloat64() / p.RatePerHour
	return time.Duration(hrs * float64(time.Hour))
}

// MMPP2 is a two-state Markov-modulated Poisson process: a "calm" state with
// CalmRatePerHour and a "burst" state with BurstRatePerHour, switching with
// mean holding times MeanCalm and MeanBurst. MMPPs reproduce the short-term
// burstiness observed in grid workloads (paper C7, ref [113]).
type MMPP2 struct {
	CalmRatePerHour  float64
	BurstRatePerHour float64
	MeanCalm         time.Duration
	MeanBurst        time.Duration

	inBurst   bool
	stateLeft time.Duration
}

// Next implements ArrivalProcess.
func (m *MMPP2) Next(r *rand.Rand) time.Duration {
	var total time.Duration
	for {
		if m.stateLeft <= 0 {
			m.inBurst = !m.inBurst
			mean := m.MeanCalm
			if m.inBurst {
				mean = m.MeanBurst
			}
			m.stateLeft = time.Duration(r.ExpFloat64() * float64(mean))
			continue
		}
		rate := m.CalmRatePerHour
		if m.inBurst {
			rate = m.BurstRatePerHour
		}
		if rate <= 0 {
			total += m.stateLeft
			m.stateLeft = 0
			continue
		}
		gap := time.Duration(r.ExpFloat64() / rate * float64(time.Hour))
		if gap <= m.stateLeft {
			m.stateLeft -= gap
			return total + gap
		}
		total += m.stateLeft
		m.stateLeft = 0
	}
}

// Diurnal is a non-homogeneous Poisson process whose rate follows a 24-hour
// sinusoid: rate(t) = Base * (1 + Amplitude*sin(2π t/24h + phase)). It uses
// thinning (Lewis & Shedler) against the peak rate. Amplitude must be in
// [0, 1).
type Diurnal struct {
	BasePerHour float64
	Amplitude   float64
	PeakHour    float64 // hour-of-day with maximum rate

	now time.Duration
}

func (d *Diurnal) rateAt(t time.Duration) float64 {
	hours := t.Seconds() / 3600
	phase := 2 * math.Pi * (hours - d.PeakHour + 6) / 24
	return d.BasePerHour * (1 + d.Amplitude*math.Sin(phase))
}

// Next implements ArrivalProcess via thinning.
func (d *Diurnal) Next(r *rand.Rand) time.Duration {
	peak := d.BasePerHour * (1 + d.Amplitude)
	if peak <= 0 {
		return time.Hour
	}
	start := d.now
	for {
		gap := time.Duration(r.ExpFloat64() / peak * float64(time.Hour))
		d.now += gap
		if r.Float64() <= d.rateAt(d.now)/peak {
			return d.now - start
		}
	}
}

// FixedInterval emits arrivals at a constant interval — the controlled
// baseline for experiments.
type FixedInterval struct {
	Interval time.Duration
}

// Next implements ArrivalProcess.
func (f FixedInterval) Next(*rand.Rand) time.Duration { return f.Interval }

// Compile-time interface compliance checks.
var (
	_ ArrivalProcess = Poisson{}
	_ ArrivalProcess = (*MMPP2)(nil)
	_ ArrivalProcess = (*Diurnal)(nil)
	_ ArrivalProcess = FixedInterval{}
)

// BurstinessIndex quantifies arrival burstiness as the coefficient of
// variation of inter-arrival times; 1 for Poisson, >1 for bursty processes.
func BurstinessIndex(interarrivals []time.Duration) float64 {
	if len(interarrivals) < 2 {
		return 0
	}
	xs := make([]float64, len(interarrivals))
	for i, d := range interarrivals {
		xs[i] = d.Seconds()
	}
	mean := stats.Mean(xs)
	if mean == 0 {
		return 0
	}
	return stats.Std(xs) / mean
}
