package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestOnlineMatchesDirectComputation(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	if o.Count() != 8 {
		t.Fatalf("count=%d", o.Count())
	}
	if !almostEqual(o.Mean(), 5, 1e-12) {
		t.Errorf("mean=%v, want 5", o.Mean())
	}
	// Unbiased variance of this classic sample is 32/7.
	if !almostEqual(o.Var(), 32.0/7.0, 1e-12) {
		t.Errorf("var=%v, want %v", o.Var(), 32.0/7.0)
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Errorf("min=%v max=%v", o.Min(), o.Max())
	}
}

func TestOnlineEmptyAndSingle(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Var() != 0 || o.CV() != 0 {
		t.Error("zero-value Online must report zeros")
	}
	o.Add(3)
	if o.Var() != 0 || o.Mean() != 3 || o.Min() != 3 || o.Max() != 3 {
		t.Error("single-sample stats wrong")
	}
}

// Property: Online mean/var agree with two-pass formulas on random samples.
func TestOnlineProperty(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		var o Online
		for i, v := range raw {
			xs[i] = float64(v)
			o.Add(xs[i])
		}
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		wantVar := ss / float64(len(xs)-1)
		return almostEqual(o.Mean(), mean, 1e-6*(1+math.Abs(mean))) &&
			almostEqual(o.Var(), wantVar, 1e-6*(1+wantVar))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v)=%v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile must be 0")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	prop := func(raw []int16, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		qa := float64(a) / 255
		qb := float64(b) / 255
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{10, 20, 30, 40})
	if s.Count != 4 || !almostEqual(s.Mean, 25, 1e-12) || s.Min != 10 || s.Max != 40 {
		t.Errorf("summary wrong: %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
	if (Summary{}) != Summarize(nil) {
		t.Error("empty summarize must be zero value")
	}
}

func TestFitLineRecoversKnownLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 2
	}
	f := FitLine(xs, ys)
	if !almostEqual(f.Slope, 3, 1e-9) || !almostEqual(f.Intercept, 2, 1e-9) {
		t.Errorf("fit=%+v, want slope 3 intercept 2", f)
	}
	if !almostEqual(f.R2, 1, 1e-9) {
		t.Errorf("R2=%v, want 1", f.R2)
	}
	if !almostEqual(f.Predict(10), 32, 1e-9) {
		t.Errorf("predict(10)=%v", f.Predict(10))
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if f := FitLine([]float64{1}, []float64{1}); f.Slope != 0 {
		t.Error("n<2 must return zero fit")
	}
	f := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3})
	if f.Slope != 0 || !almostEqual(f.Intercept, 2, 1e-12) {
		t.Errorf("constant-x fit=%+v", f)
	}
}

func TestDistributionMeansConvergeToAnalytic(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const n = 200_000
	dists := []Dist{
		Deterministic{Value: 4},
		Uniform{Lo: 1, Hi: 3},
		Exponential{Rate: 0.5},
		Normal{Mu: 7, Sigma: 2},
		LogNormal{Mu: 0.5, Sigma: 0.4},
		Weibull{K: 0.7, Lambda: 10},
		Pareto{Xm: 1, Alpha: 3},
		Erlang{K: 3, Rate: 1.5},
	}
	for _, d := range dists {
		var o Online
		for i := 0; i < n; i++ {
			o.Add(d.Sample(r))
		}
		want := d.Mean()
		tol := 0.05 * (math.Abs(want) + 1)
		if !almostEqual(o.Mean(), want, tol) {
			t.Errorf("%v: empirical mean %v, analytic %v", d, o.Mean(), want)
		}
		if d.String() == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
}

func TestParetoInfiniteMean(t *testing.T) {
	p := Pareto{Xm: 1, Alpha: 0.9}
	if !math.IsInf(p.Mean(), 1) {
		t.Error("Pareto alpha<=1 must have infinite mean")
	}
}

func TestZipfSkewsTowardLowRanks(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	z := Zipf{S: 1.5, N: 100}
	counts := make(map[int]int)
	for i := 0; i < 20000; i++ {
		v := int(z.Sample(r))
		if v < 1 || v > 100 {
			t.Fatalf("zipf sample %d out of range", v)
		}
		counts[v]++
	}
	if counts[1] <= counts[10] {
		t.Errorf("rank1=%d not more popular than rank10=%d", counts[1], counts[10])
	}
	if z.Mean() <= 1 {
		t.Errorf("zipf mean=%v", z.Mean())
	}
}

func TestTruncateClampsSamples(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	d := Truncate{D: Normal{Mu: 0, Sigma: 10}, Lo: 1, Hi: 2}
	for i := 0; i < 1000; i++ {
		x := d.Sample(r)
		if x < 1 || x > 2 {
			t.Fatalf("truncated sample %v escaped [1,2]", x)
		}
	}
	if m := d.Mean(); m < 1 || m > 2 {
		t.Errorf("truncated mean %v escaped [1,2]", m)
	}
}

func TestTimeSeriesStepSemantics(t *testing.T) {
	ts := NewTimeSeries()
	ts.Add(0, 1)
	ts.Add(10*time.Second, 3)
	ts.Add(20*time.Second, 0)
	if got := ts.At(-time.Second); got != 0 {
		t.Errorf("At(before first)=%v", got)
	}
	if got := ts.At(5 * time.Second); got != 1 {
		t.Errorf("At(5s)=%v, want 1", got)
	}
	if got := ts.At(10 * time.Second); got != 3 {
		t.Errorf("At(10s)=%v, want 3", got)
	}
	// Integral over [0,20] = 1*10 + 3*10 = 40.
	if got := ts.Integral(0, 20*time.Second); !almostEqual(got, 40, 1e-9) {
		t.Errorf("Integral=%v, want 40", got)
	}
	if got := ts.TimeAverage(0, 20*time.Second); !almostEqual(got, 2, 1e-9) {
		t.Errorf("TimeAverage=%v, want 2", got)
	}
}

func TestTimeSeriesOutOfOrderInsert(t *testing.T) {
	ts := NewTimeSeries()
	ts.Add(10*time.Second, 10)
	ts.Add(5*time.Second, 5)
	ts.Add(1*time.Second, 1)
	pts := ts.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].T < pts[i-1].T {
			t.Fatalf("points not sorted: %v", pts)
		}
	}
	if ts.At(6*time.Second) != 5 {
		t.Errorf("At(6s)=%v, want 5", ts.At(6*time.Second))
	}
}

// TestTimeSeriesGrowReservesExactly checks that after Grow(n) the next n Adds
// allocate nothing, on an empty series and on one that already holds points.
func TestTimeSeriesGrowReservesExactly(t *testing.T) {
	// 1024 points fill a malloc size class exactly, so a reserve one short
	// of n leaves no slack for the last Add.
	const n = 1025
	for _, held := range []int{0, 3} {
		fill := func(adds int) func() {
			return func() {
				ts := NewTimeSeries()
				for i := 0; i < held; i++ {
					ts.Add(time.Duration(i), 0)
				}
				ts.Grow(n)
				for i := 0; i < adds; i++ {
					ts.Add(time.Duration(held+i), float64(i))
				}
			}
		}
		reserve := testing.AllocsPerRun(10, fill(0))
		if got := testing.AllocsPerRun(10, fill(n)); got != reserve {
			t.Errorf("held %d: %d Adds after Grow(%d) allocated %v times, want 0", held, n, n, got-reserve)
		}
	}
}

func TestTimeSeriesResample(t *testing.T) {
	ts := NewTimeSeries()
	ts.Add(0, 1)
	ts.Add(3*time.Second, 2)
	got := ts.Resample(0, 6*time.Second, time.Second)
	want := []float64{1, 1, 1, 2, 2, 2}
	if len(got) != len(want) {
		t.Fatalf("resample len=%d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("resample[%d]=%v, want %v", i, got[i], want[i])
		}
	}
	if ts.MaxValue() != 2 || ts.End() != 3*time.Second {
		t.Errorf("MaxValue=%v End=%v", ts.MaxValue(), ts.End())
	}
}

func BenchmarkOnlineAdd(b *testing.B) {
	var o Online
	for i := 0; i < b.N; i++ {
		o.Add(float64(i & 1023))
	}
}

func BenchmarkWeibullSample(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	w := Weibull{K: 0.7, Lambda: 10}
	for i := 0; i < b.N; i++ {
		_ = w.Sample(r)
	}
}

func TestCI95(t *testing.T) {
	if got := CI95(nil); got != 0 {
		t.Errorf("CI95(nil) = %v", got)
	}
	if got := CI95([]float64{3}); got != 0 {
		t.Errorf("CI95(single) = %v", got)
	}
	// n=4, values 1..4: mean 2.5, s ≈ 1.2910, t(0.975,3) = 3.182,
	// half-width = 3.182 * s/2 ≈ 2.0539.
	got := CI95([]float64{1, 2, 3, 4})
	if math.Abs(got-2.0539) > 0.001 {
		t.Errorf("CI95(1..4) = %v, want ≈2.0539", got)
	}
	// Identical samples: zero-width interval.
	if got := CI95([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("CI95(constant) = %v, want 0", got)
	}
	// Large n approaches the normal critical value: for n=200 the
	// half-width must use 1.96, not a small-sample t.
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i % 2) // alternating 0/1, s ≈ 0.5013
	}
	want := 1.96 * Std(big) / math.Sqrt(200)
	if got := CI95(big); math.Abs(got-want) > 1e-12 {
		t.Errorf("CI95(n=200) = %v, want %v", got, want)
	}
}

func TestCI95Pooled(t *testing.T) {
	// One group reduces exactly to CI95.
	xs := []float64{1, 2, 3, 4}
	if got, want := CI95Pooled(xs, 1), CI95(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("CI95Pooled(xs, 1) = %v, want CI95 = %v", got, want)
	}
	// Two groups far apart but with zero within-group spread: the pooled
	// CI must be 0 — systematic between-group differences never leak in.
	apart := []float64{10, 10, 10, 1000, 1000, 1000}
	if got := CI95Pooled(apart, 2); got != 0 {
		t.Errorf("CI95Pooled(between-group spread only) = %v, want 0", got)
	}
	// Hand check: groups (0,2) and (10,14): SSW = 2 + 8 = 10, df = 2,
	// s_w = √5, half-width = t(0.975,2) · √5/√2 = 4.303·1.5811 = 6.803.
	got := CI95Pooled([]float64{0, 2, 10, 14}, 2)
	if math.Abs(got-6.8034) > 0.001 {
		t.Errorf("CI95Pooled hand case = %v, want ≈6.8034", got)
	}
	// Degenerate shapes return 0.
	for name, c := range map[string]struct {
		xs     []float64
		groups int
	}{
		"empty":         {nil, 1},
		"zero groups":   {xs, 0},
		"uneven split":  {[]float64{1, 2, 3}, 2},
		"one per group": {[]float64{1, 2}, 2},
	} {
		if got := CI95Pooled(c.xs, c.groups); got != 0 {
			t.Errorf("%s: CI95Pooled = %v, want 0", name, got)
		}
	}
}
