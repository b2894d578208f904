package quantile

import (
	"math"
	"math/rand"
	"testing"
)

func TestLineEvalAndInverse(t *testing.T) {
	l := Line{Intercept: 2, Slope: 3}
	if got := l.Eval(4); got != 14 {
		t.Fatalf("Eval = %v", got)
	}
	if got := l.InverseAt(14, 0, 100); math.Abs(got-4) > 1e-9 {
		t.Fatalf("InverseAt = %v", got)
	}
	if got := l.InverseAt(1e9, 0, 100); got != 100 {
		t.Fatalf("clamp high = %v", got)
	}
	if got := l.InverseAt(-1e9, 5, 100); got != 5 {
		t.Fatalf("clamp low = %v", got)
	}
	flat := Line{Intercept: 1, Slope: 0}
	if got := flat.InverseAt(10, 0, 77); got != 77 {
		t.Fatalf("degenerate slope should return max, got %v", got)
	}
}

func TestFitRecoversNoiselessLine(t *testing.T) {
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
		ys[i] = 5 + 2*xs[i]
	}
	l := Fit(xs, ys, 0.99)
	if math.Abs(l.Slope-2) > 0.2 {
		t.Fatalf("slope = %v, want ~2", l.Slope)
	}
	if math.Abs(l.Eval(50)-105) > 8 {
		t.Fatalf("Eval(50) = %v, want ~105", l.Eval(50))
	}
}

func TestFitP99AboveMedianForNoisyData(t *testing.T) {
	// y = 10 + x + noise; the 0.99-quantile line must sit above the
	// 0.5-quantile line across the support.
	rng := rand.New(rand.NewSource(3))
	n := 2000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(rng.Intn(100) + 1)
		ys[i] = 10 + xs[i] + math.Abs(rng.NormFloat64())*20
	}
	p50 := Fit(xs, ys, 0.5)
	p99 := Fit(xs, ys, 0.99)
	above := 0
	for x := 1.0; x <= 100; x++ {
		if p99.Eval(x) > p50.Eval(x) {
			above++
		}
	}
	if above < 90 {
		t.Fatalf("p99 line above p50 at only %d/100 points", above)
	}
	// Check coverage: ~99% of points should fall under the p99 line
	// (tolerate optimization slack down to 90%).
	under := 0
	for i := range xs {
		if ys[i] <= p99.Eval(xs[i]) {
			under++
		}
	}
	frac := float64(under) / float64(n)
	if frac < 0.90 {
		t.Fatalf("p99 line covers only %.3f of points", frac)
	}
}

func TestFitDegenerateInputs(t *testing.T) {
	if l := Fit(nil, nil, 0.5); l != (Line{}) {
		t.Fatalf("empty fit = %+v", l)
	}
	l := Fit([]float64{3}, []float64{7}, 0.9)
	if l.Intercept != 7 || l.Slope != 0 {
		t.Fatalf("single-point fit = %+v", l)
	}
	// Constant x: OLS denominator zero; must not panic.
	l = Fit([]float64{2, 2, 2}, []float64{1, 2, 3}, 0.5)
	if math.IsNaN(l.Intercept) || math.IsNaN(l.Slope) {
		t.Fatalf("constant-x fit = %+v", l)
	}
}

func TestFitPanicsOnBadArgs(t *testing.T) {
	for _, tc := range []func(){
		func() { Fit([]float64{1}, []float64{1, 2}, 0.5) },
		func() { Fit([]float64{1}, []float64{1}, 0) },
		func() { Fit([]float64{1}, []float64{1}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc()
		}()
	}
}
