package selection

import (
	"math"

	"clipper/internal/container"
)

// This file provides two additional single-model selection policies beyond
// the paper's Exp3: UCB1 and Thompson sampling. The paper's selection-
// policy interface (Listing 2) is explicitly designed for users to plug in
// their own techniques; these serve both as useful built-ins and as
// non-trivial exercises of that interface — UCB1 needs per-arm pull counts
// in its state, Thompson needs per-arm Beta posteriors.

// ucb1 is the deterministic optimism-under-uncertainty bandit of Auer et
// al. (2002): pull the arm maximizing mean reward + sqrt(2 ln n / n_i).
// Unlike Exp3 it assumes stochastic (non-adversarial) rewards, which makes
// it faster to converge on stationary workloads but slower to react to
// model degradation.
//
// State layout: weights[2i] = arm i's pull count, weights[2i+1] = arm i's
// cumulative reward.
type ucb1 struct{}

// NewUCB1 returns a UCB1 policy.
func NewUCB1() Policy { return &ucb1{} }

// Name implements Policy.
func (p *ucb1) Name() string { return "ucb1" }

// Init implements Policy.
func (p *ucb1) Init(k int) State {
	return State{Weights: make([]float64, 2*k)}
}

func (p *ucb1) arms(s State) int { return len(s.Weights) / 2 }

// Select implements Policy: the unexplored arm with the lowest index, or
// the arm with the highest upper confidence bound.
func (p *ucb1) Select(s State, u float64) []int {
	k := p.arms(s)
	if k == 0 {
		return nil
	}
	total := 0.0
	for i := 0; i < k; i++ {
		if s.Weights[2*i] == 0 {
			return []int{i} // explore untried arms first
		}
		total += s.Weights[2*i]
	}
	best, bestV := 0, math.Inf(-1)
	for i := 0; i < k; i++ {
		n := s.Weights[2*i]
		mean := s.Weights[2*i+1] / n
		bound := mean + math.Sqrt(2*math.Log(total)/n)
		if bound > bestV {
			best, bestV = i, bound
		}
	}
	return []int{best}
}

// Combine implements Policy: the queried arm's prediction; confidence is
// its empirical mean reward.
func (p *ucb1) Combine(s State, preds []*container.Prediction) (container.Prediction, float64) {
	for i, pr := range preds {
		if pr == nil {
			continue
		}
		conf := 0.0
		if 2*i+1 < len(s.Weights) && s.Weights[2*i] > 0 {
			conf = s.Weights[2*i+1] / s.Weights[2*i]
		}
		return *pr, conf
	}
	return container.Prediction{Label: -1}, 0
}

// Observe implements Policy.
func (p *ucb1) Observe(s State, feedback int, preds []*container.Prediction) State {
	out := s.Clone()
	for i, pr := range preds {
		if pr == nil || 2*i+1 >= len(out.Weights) {
			continue
		}
		out.Weights[2*i]++
		out.Weights[2*i+1] += 1 - zeroOneLoss(feedback, pr.Label)
		break
	}
	return out
}

// thompson is Bernoulli Thompson sampling: each arm keeps a Beta(a, b)
// posterior over its success probability; selection samples from each
// posterior and plays the argmax. It typically matches or beats UCB1 on
// stationary workloads and handles delayed feedback gracefully.
//
// State layout: weights[2i] = arm i's alpha (successes+1), weights[2i+1] =
// arm i's beta (failures+1).
type thompson struct{}

// NewThompson returns a Thompson-sampling policy.
func NewThompson() Policy { return &thompson{} }

// Name implements Policy.
func (p *thompson) Name() string { return "thompson" }

// Init implements Policy: uniform Beta(1,1) priors.
func (p *thompson) Init(k int) State {
	w := make([]float64, 2*k)
	for i := range w {
		w[i] = 1
	}
	return State{Weights: w}
}

// Select implements Policy. The single uniform variate u seeds a small
// deterministic generator so the policy remains a pure function of (state,
// u), as the interface requires.
func (p *thompson) Select(s State, u float64) []int {
	k := len(s.Weights) / 2
	if k == 0 {
		return nil
	}
	rng := splitmix64(math.Float64bits(u))
	best, bestV := 0, math.Inf(-1)
	for i := 0; i < k; i++ {
		a, b := s.Weights[2*i], s.Weights[2*i+1]
		v := sampleBeta(a, b, rng)
		if v > bestV {
			best, bestV = i, v
		}
	}
	return []int{best}
}

// Combine implements Policy: the queried arm's prediction with its
// posterior mean as confidence.
func (p *thompson) Combine(s State, preds []*container.Prediction) (container.Prediction, float64) {
	for i, pr := range preds {
		if pr == nil {
			continue
		}
		conf := 0.0
		if 2*i+1 < len(s.Weights) {
			a, b := s.Weights[2*i], s.Weights[2*i+1]
			if a+b > 0 {
				conf = a / (a + b)
			}
		}
		return *pr, conf
	}
	return container.Prediction{Label: -1}, 0
}

// Observe implements Policy: Beta posterior update of the queried arm.
func (p *thompson) Observe(s State, feedback int, preds []*container.Prediction) State {
	out := s.Clone()
	for i, pr := range preds {
		if pr == nil || 2*i+1 >= len(out.Weights) {
			continue
		}
		if zeroOneLoss(feedback, pr.Label) == 0 {
			out.Weights[2*i]++ // success -> alpha
		} else {
			out.Weights[2*i+1]++ // failure -> beta
		}
		break
	}
	return out
}

// splitmix64 returns a tiny deterministic PRNG state machine seeded by x.
func splitmix64(x uint64) func() float64 {
	return func() float64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
}

// sampleBeta draws an approximate Beta(a,b) sample using the ratio of
// gamma samples, with gamma sampled by the Marsaglia-Tsang method for
// shape >= 1 (our shapes always are: priors start at 1 and only grow).
func sampleBeta(a, b float64, next func() float64) float64 {
	x := sampleGamma(a, next)
	y := sampleGamma(b, next)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

func sampleGamma(shape float64, next func() float64) float64 {
	if shape < 1 {
		shape = 1
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for i := 0; i < 64; i++ {
		xn := normalFrom(next)
		v := 1 + c*xn
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := next()
		if u == 0 {
			continue
		}
		if math.Log(u) < 0.5*xn*xn+d-d*v+d*math.Log(v) {
			return d * v
		}
	}
	return d // extremely unlikely fallback: the mode
}

// normalFrom converts two uniforms to one standard normal (Box-Muller).
func normalFrom(next func() float64) float64 {
	u1 := next()
	if u1 <= 0 {
		u1 = 1e-12
	}
	u2 := next()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
