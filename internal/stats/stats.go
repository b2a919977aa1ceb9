// Package stats provides the statistical substrate of the MCS toolkit:
// descriptive statistics, empirical distributions, time series, and the
// random-variate distributions used by workload, failure, and mobility
// models. The paper (§3.3) names "quantitative research ... statistical
// modeling of workloads, failures" as a pillar of the MCS methodology; this
// package is that pillar.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Online accumulates count, mean, variance (Welford's algorithm), min, and
// max in a single pass without storing samples. The zero value is ready to
// use.
type Online struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add incorporates one sample.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// Count returns the number of samples seen.
func (o *Online) Count() uint64 { return o.n }

// Mean returns the sample mean, or 0 with no samples.
func (o *Online) Mean() float64 { return o.mean }

// Var returns the unbiased sample variance, or 0 with fewer than 2 samples.
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Std returns the sample standard deviation.
func (o *Online) Std() float64 { return math.Sqrt(o.Var()) }

// Min returns the smallest sample, or 0 with no samples.
func (o *Online) Min() float64 { return o.min }

// Max returns the largest sample, or 0 with no samples.
func (o *Online) Max() float64 { return o.max }

// CV returns the coefficient of variation (std/mean), or 0 when the mean is 0.
func (o *Online) CV() float64 {
	if o.mean == 0 {
		return 0
	}
	return o.Std() / math.Abs(o.mean)
}

// Summary holds one-shot descriptive statistics of a sample.
type Summary struct {
	Count                   int
	Mean, Std, CV           float64
	Min, Max                float64
	P25, P50, P90, P95, P99 float64
}

// Summarize computes descriptive statistics of xs. It does not modify xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var o Online
	for _, x := range sorted {
		o.Add(x)
	}
	return Summary{
		Count: len(sorted),
		Mean:  o.Mean(),
		Std:   o.Std(),
		CV:    o.CV(),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P25:   quantileSorted(sorted, 0.25),
		P50:   quantileSorted(sorted, 0.50),
		P90:   quantileSorted(sorted, 0.90),
		P95:   quantileSorted(sorted, 0.95),
		P99:   quantileSorted(sorted, 0.99),
	}
}

// String renders the summary as a compact single line for reports.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
		s.Count, s.Mean, s.Std, s.Min, s.P50, s.P95, s.P99, s.Max)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It copies xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the unbiased sample standard deviation of xs.
func Std(xs []float64) float64 {
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	return o.Std()
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// of xs under the Student-t distribution: t(0.975, n-1) · s/√n. It returns
// 0 with fewer than two samples, where the interval is undefined. Used by
// repetition-aware experiment campaigns to report mean ± CI instead of
// bare extrema.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return tCritical95(n-1) * Std(xs) / math.Sqrt(float64(n))
}

// CI95Pooled returns the half-width of the 95% confidence interval for
// one group's mean when xs consists of `groups` equal contiguous groups of
// replicates: t(0.975, n−groups) · s_w/√(n/groups), where s_w² is the
// pooled within-group variance (the one-way-ANOVA residual). Pooling
// variance across groups — but never their systematic differences —
// is what a repetition campaign over a parameter grid quotes: the
// uncertainty of each grid point's mean, not the spread of the grid.
// With groups == 1 it reduces exactly to CI95. It returns 0 when xs does
// not split evenly into groups or has fewer than two replicates per group.
func CI95Pooled(xs []float64, groups int) float64 {
	n := len(xs)
	if groups < 1 || n == 0 || n%groups != 0 {
		return 0
	}
	per := n / groups
	if per < 2 {
		return 0
	}
	var ssw float64
	for g := 0; g < groups; g++ {
		grp := xs[g*per : (g+1)*per]
		m := Mean(grp)
		for _, x := range grp {
			ssw += (x - m) * (x - m)
		}
	}
	df := n - groups
	sw := math.Sqrt(ssw / float64(df))
	return tCritical95(df) * sw / math.Sqrt(float64(per))
}

// t975 holds two-sided 95% Student-t critical values for df 1..30.
var t975 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCritical95 returns the two-sided 95% critical value of Student's t with
// df degrees of freedom (tabulated to df 30, a few anchors beyond, then
// the normal limit 1.96).
func tCritical95(df int) float64 {
	switch {
	case df < 1:
		return 0
	case df <= len(t975):
		return t975[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}

// LinearFit holds the result of an ordinary-least-squares line fit.
type LinearFit struct {
	Slope, Intercept, R2 float64
}

// FitLine fits y = Slope*x + Intercept by least squares. Used by the Reg
// autoscaler and trend analyses.
func FitLine(xs, ys []float64) LinearFit {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return LinearFit{}
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{Intercept: my}
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = sxy * sxy / (sxx * syy)
	}
	return fit
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 { return f.Slope*x + f.Intercept }
