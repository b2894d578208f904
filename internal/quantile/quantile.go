// Package quantile implements linear quantile regression via subgradient
// descent on the pinball (tilted absolute) loss.
//
// Clipper's alternative batching controller (paper §4.3.1) fits the
// 99th-percentile batch latency as a linear function of batch size,
// lat_p99(n) ≈ a + b·n, and inverts it to choose the largest batch whose
// P99 stays under the latency SLO. This package provides that fit.
package quantile

// Line is a fitted model y = Intercept + Slope*x.
type Line struct {
	Intercept float64
	Slope     float64
}

// Eval returns the line's prediction at x.
func (l Line) Eval(x float64) float64 { return l.Intercept + l.Slope*x }

// InverseAt returns the largest x such that Eval(x) <= y, assuming a
// positive slope. For non-positive slopes it returns max (the fit is
// degenerate and imposes no constraint). The result is clamped to
// [min, max].
func (l Line) InverseAt(y float64, min, max float64) float64 {
	if l.Slope <= 0 {
		return max
	}
	x := (y - l.Intercept) / l.Slope
	if x < min {
		return min
	}
	if x > max {
		return max
	}
	return x
}

// Fit estimates the tau-quantile regression line through (xs, ys) by
// projected subgradient descent on the pinball loss, warm-started from the
// ordinary least squares fit. tau must lie in (0, 1); len(xs) == len(ys).
//
// With fewer than two points, Fit returns a flat line at the tau-quantile
// of ys (or zero for no data).
func Fit(xs, ys []float64, tau float64) Line {
	n := len(xs)
	if n != len(ys) {
		panic("quantile: mismatched inputs")
	}
	if tau <= 0 || tau >= 1 {
		panic("quantile: tau out of (0,1)")
	}
	if n == 0 {
		return Line{}
	}
	if n == 1 {
		return Line{Intercept: ys[0]}
	}

	// Scale x to stabilize step sizes.
	xMax := 1.0
	for _, x := range xs {
		if x > xMax {
			xMax = x
		}
	}

	line := olsFit(xs, ys)
	a, b := line.Intercept, line.Slope*xMax // work in scaled space

	// Subgradient of pinball loss: residual>0 contributes -tau, <0
	// contributes (1-tau), each scaled by the regressor. Steps are scaled
	// by the OLS residual magnitude so a noiseless fit stays put and a
	// noisy fit can shift by the noise scale.
	resScale := 0.0
	for i := range xs {
		r := ys[i] - line.Eval(xs[i])
		if r < 0 {
			r = -r
		}
		resScale += r
	}
	resScale /= float64(n)
	lr0 := 4 * resScale
	const iters = 400
	for it := 0; it < iters; it++ {
		lr := lr0 / (1 + float64(it)*0.1)
		ga, gb := 0.0, 0.0
		for i := range xs {
			xi := xs[i] / xMax
			r := ys[i] - (a + b*xi)
			var g float64
			if r > 0 {
				g = -tau
			} else if r < 0 {
				g = 1 - tau
			}
			ga += g
			gb += g * xi
		}
		inv := 1 / float64(n)
		a -= lr * ga * inv
		b -= lr * gb * inv
	}
	return Line{Intercept: a, Slope: b / xMax}
}

// olsFit is ordinary least squares for warm starting.
func olsFit(xs, ys []float64) Line {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Line{Intercept: sy / n}
	}
	slope := (n*sxy - sx*sy) / den
	return Line{Intercept: (sy - slope*sx) / n, Slope: slope}
}
