package selection

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"clipper/internal/container"
)

func pp(label int) *container.Prediction { return &container.Prediction{Label: label} }

func TestStateMarshalRoundTrip(t *testing.T) {
	in := State{Weights: []float64{1, 0.5, 2.25}}
	out, err := UnmarshalState(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Weights) != 3 || out.Weights[2] != 2.25 {
		t.Fatalf("out = %+v", out)
	}
	empty, err := UnmarshalState(State{}.Marshal())
	if err != nil || len(empty.Weights) != 0 {
		t.Fatalf("empty round trip: %+v %v", empty, err)
	}
}

func TestStateMarshalProperty(t *testing.T) {
	f := func(ws []float64) bool {
		for i, w := range ws {
			if math.IsNaN(w) {
				ws[i] = 0
			}
		}
		out, err := UnmarshalState(State{Weights: ws}.Marshal())
		if err != nil || len(out.Weights) != len(ws) {
			return false
		}
		for i := range ws {
			if out.Weights[i] != ws[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalStateTruncated(t *testing.T) {
	buf := State{Weights: []float64{1, 2}}.Marshal()
	for _, cut := range []int{0, 3, 5, len(buf) - 1} {
		if _, err := UnmarshalState(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestStateCloneIndependent(t *testing.T) {
	a := State{Weights: []float64{1, 2}}
	b := a.Clone()
	b.Weights[0] = 99
	if a.Weights[0] != 1 {
		t.Fatal("Clone aliases storage")
	}
}

func TestLoss(t *testing.T) {
	if zeroOneLoss(1, 1) != 0 || zeroOneLoss(1, 2) != 1 {
		t.Fatal("0/1 loss broken")
	}
}

func TestExp3InitAndSelectDistribution(t *testing.T) {
	p := NewExp3(0.1)
	s := p.Init(4)
	if len(s.Weights) != 4 {
		t.Fatalf("Init weights = %v", s.Weights)
	}
	counts := make([]int, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		sel := p.Select(s, rng.Float64())
		if len(sel) != 1 {
			t.Fatalf("Exp3 selected %d models", len(sel))
		}
		counts[sel[0]]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("uniform weights should select ~evenly; arm %d got %d/4000", i, c)
		}
	}
}

func TestExp3SelectEdgeCases(t *testing.T) {
	p := NewExp3(0).(*exp3)
	if p.Eta != 0.1 {
		t.Fatalf("default eta = %v", p.Eta)
	}
	if sel := p.Select(State{}, 0.5); sel != nil {
		t.Fatalf("empty state selected %v", sel)
	}
	s := State{Weights: []float64{0, 0}}
	if sel := p.Select(s, 0.5); len(sel) != 1 {
		t.Fatalf("zero-weight state selected %v", sel)
	}
	// u at the extreme must still select a valid arm.
	s = p.Init(3)
	if sel := p.Select(s, 0.999999999); sel[0] != 2 {
		t.Fatalf("u~1 selected %v", sel)
	}
}

func TestExp3ConvergesToBestModel(t *testing.T) {
	// Model 2 is right 90% of the time; the others 40%. After feedback
	// exp3 should concentrate selection probability on model 2.
	p := NewExp3(0.1)
	s := p.Init(3)
	rng := rand.New(rand.NewSource(7))
	acc := []float64{0.4, 0.4, 0.9}
	for i := 0; i < 3000; i++ {
		sel := p.Select(s, rng.Float64())
		m := sel[0]
		preds := make([]*container.Prediction, 3)
		label := 0
		if rng.Float64() > acc[m] {
			label = 1 // wrong
		}
		preds[m] = pp(label)
		s = p.Observe(s, 0, preds)
	}
	sum := 0.0
	for _, w := range s.Weights {
		sum += w
	}
	if frac := s.Weights[2] / sum; frac < 0.8 {
		t.Fatalf("best-arm probability = %.3f, want >= 0.8 (weights %v)", frac, s.Weights)
	}
}

func TestExp3Combine(t *testing.T) {
	p := NewExp3(0.1)
	s := p.Init(2)
	preds := []*container.Prediction{nil, pp(5)}
	pred, conf := p.Combine(s, preds)
	if pred.Label != 5 {
		t.Fatalf("Label = %d", pred.Label)
	}
	if math.Abs(conf-0.5) > 1e-9 {
		t.Fatalf("conf = %v, want 0.5 (uniform weights)", conf)
	}
	pred, conf = p.Combine(s, make([]*container.Prediction, 2))
	if pred.Label != -1 || conf != 0 {
		t.Fatalf("all-missing combine = %+v conf=%v", pred, conf)
	}
}

func TestExp4SelectsAll(t *testing.T) {
	p := NewExp4(0.3)
	s := p.Init(5)
	sel := p.Select(s, 0.123)
	if len(sel) != 5 {
		t.Fatalf("Exp4 selected %d of 5", len(sel))
	}
}

func TestExp4CombineMajorityAndConfidence(t *testing.T) {
	p := NewExp4(0.3)
	s := p.Init(5)
	preds := []*container.Prediction{pp(1), pp(1), pp(1), pp(2), pp(2)}
	pred, conf := p.Combine(s, preds)
	if pred.Label != 1 {
		t.Fatalf("Label = %d", pred.Label)
	}
	if math.Abs(conf-0.6) > 1e-9 {
		t.Fatalf("conf = %v, want 0.6", conf)
	}
	// Missing predictions depress confidence (straggler mitigation).
	preds = []*container.Prediction{pp(1), pp(1), pp(1), nil, nil}
	_, conf = p.Combine(s, preds)
	if math.Abs(conf-0.6) > 1e-9 {
		t.Fatalf("conf with stragglers = %v, want 0.6", conf)
	}
	// All missing.
	pred, conf = p.Combine(s, make([]*container.Prediction, 5))
	if pred.Label != -1 || conf != 0 {
		t.Fatalf("all-missing = %+v conf=%v", pred, conf)
	}
}

func TestExp4CombineScoreAveraging(t *testing.T) {
	p := NewExp4(0.3)
	s := p.Init(2)
	preds := []*container.Prediction{
		{Label: 0, Scores: []float64{0.8, 0.2}},
		{Label: 1, Scores: []float64{0.4, 0.6}},
	}
	pred, _ := p.Combine(s, preds)
	if pred.Scores == nil {
		t.Fatal("expected averaged scores")
	}
	if math.Abs(pred.Scores[0]-0.6) > 1e-9 {
		t.Fatalf("scores = %v", pred.Scores)
	}
}

func TestExp4DownweightsFailingModel(t *testing.T) {
	p := NewExp4(0.3)
	s := p.Init(3)
	// Model 0 always wrong; 1 and 2 always right.
	for i := 0; i < 50; i++ {
		preds := []*container.Prediction{pp(9), pp(0), pp(0)}
		s = p.Observe(s, 0, preds)
	}
	if s.Weights[0] >= s.Weights[1]*0.1 {
		t.Fatalf("failing model not downweighted: %v", s.Weights)
	}
}

func TestExp4RecoversAfterDegradation(t *testing.T) {
	// Figure 8's scenario in miniature: the best model degrades, then
	// recovers; the ensemble error must track it down and back up.
	p := NewExp4(0.3)
	s := p.Init(2)
	rng := rand.New(rand.NewSource(5))
	phaseErr := func(phase int) (m0, m1 float64) {
		switch phase {
		case 0:
			return 0.05, 0.4 // model 0 best
		case 1:
			return 0.95, 0.4 // model 0 degraded
		default:
			return 0.05, 0.4 // recovered
		}
	}
	run := func(phase, n int) float64 {
		wrong := 0
		e0, e1 := phaseErr(phase)
		for i := 0; i < n; i++ {
			mk := func(e float64, truth int) *container.Prediction {
				if rng.Float64() < e {
					return pp(truth + 1)
				}
				return pp(truth)
			}
			truth := i % 3
			preds := []*container.Prediction{mk(e0, truth), mk(e1, truth)}
			final, _ := p.Combine(s, preds)
			if final.Label != truth {
				wrong++
			}
			s = p.Observe(s, truth, preds)
		}
		return float64(wrong) / float64(n)
	}
	run(0, 500) // converge on model 0
	if s.Weights[0] <= s.Weights[1] {
		t.Fatalf("phase 0 did not favor model 0: %v", s.Weights)
	}
	run(1, 500) // degrade
	if s.Weights[0] >= s.Weights[1] {
		t.Fatalf("degradation not detected: %v", s.Weights)
	}
	errRecovered := run(2, 1500) // recover
	if s.Weights[0] <= s.Weights[1] {
		t.Fatalf("recovery not detected: %v", s.Weights)
	}
	if errRecovered > 0.30 {
		t.Fatalf("post-recovery error = %.3f, want <= 0.30", errRecovered)
	}
}

func TestStaticPolicy(t *testing.T) {
	p := NewStatic(1)
	s := p.Init(3)
	if sel := p.Select(s, 0.9); len(sel) != 1 || sel[0] != 1 {
		t.Fatalf("Select = %v", sel)
	}
	preds := []*container.Prediction{nil, pp(7), nil}
	pred, conf := p.Combine(s, preds)
	if pred.Label != 7 || conf != 1 {
		t.Fatalf("Combine = %+v conf=%v", pred, conf)
	}
	s2 := p.Observe(s, 0, preds)
	for i := range s.Weights {
		if s2.Weights[i] != s.Weights[i] {
			t.Fatal("static policy must not learn")
		}
	}
	oob := NewStatic(9)
	if sel := oob.Select(s, 0.1); sel != nil {
		t.Fatalf("out-of-range static selected %v", sel)
	}
}

func TestNormalizeGuards(t *testing.T) {
	ws := []float64{math.NaN(), 1}
	normalize(ws)
	if ws[0] != 1 || ws[1] != 1 {
		t.Fatalf("NaN weights not reset: %v", ws)
	}
	ws = []float64{0, 0}
	normalize(ws)
	if ws[0] != 1 {
		t.Fatalf("zero weights not reset: %v", ws)
	}
	ws = []float64{1e-300, 2}
	normalize(ws)
	if ws[0] < minWeight {
		t.Fatalf("weight floor not applied: %v", ws)
	}
}

func TestWeightedVoteTieBreaksDeterministically(t *testing.T) {
	ws := []float64{1, 1}
	preds := []*container.Prediction{pp(3), pp(1)}
	winner, _, _, _ := weightedVote(ws, preds)
	if winner.Label != 1 {
		t.Fatalf("tie should break to lower label, got %d", winner.Label)
	}
}

func TestWeightedVoteMixedScores(t *testing.T) {
	// One voter lacks scores: the combined prediction must omit scores
	// rather than emit a misleading partial average.
	ws := []float64{1, 1}
	preds := []*container.Prediction{
		{Label: 0, Scores: []float64{1, 0}},
		{Label: 0},
	}
	winner, _, _, _ := weightedVote(ws, preds)
	if winner.Scores != nil {
		t.Fatalf("partial scores should be dropped: %v", winner.Scores)
	}
}

func TestExp3LongRunNumericalStability(t *testing.T) {
	p := NewExp3(0.5)
	s := p.Init(2)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		sel := p.Select(s, rng.Float64())
		preds := make([]*container.Prediction, 2)
		preds[sel[0]] = pp(sel[0]) // model 0 always right for label 0
		s = p.Observe(s, 0, preds)
	}
	for _, w := range s.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			t.Fatalf("unstable weights after long run: %v", s.Weights)
		}
	}
}

// runBandit plays a stationary Bernoulli bandit for n rounds and returns
// the fraction of plays on each arm.
func runBandit(t *testing.T, p Policy, armAcc []float64, n int, seed int64) []float64 {
	t.Helper()
	s := p.Init(len(armAcc))
	rng := rand.New(rand.NewSource(seed))
	plays := make([]float64, len(armAcc))
	for q := 0; q < n; q++ {
		sel := p.Select(s, rng.Float64())
		if len(sel) != 1 {
			t.Fatalf("%s selected %d arms", p.Name(), len(sel))
		}
		arm := sel[0]
		plays[arm]++
		label := 0
		if rng.Float64() > armAcc[arm] {
			label = 1 // wrong
		}
		preds := make([]*container.Prediction, len(armAcc))
		preds[arm] = &container.Prediction{Label: label}
		s = p.Observe(s, 0, preds)
	}
	for i := range plays {
		plays[i] /= float64(n)
	}
	return plays
}

func TestBanditsBeatUniformRandom(t *testing.T) {
	// The single-model policy should play the best arm far more than 1/k
	// under a clear gap.
	arms := []float64{0.3, 0.35, 0.95, 0.4}
	p := NewExp3(0.1)
	plays := runBandit(t, p, arms, 4000, 7)
	if plays[2] < 0.5 {
		t.Errorf("%s best-arm share = %.3f, want >= 0.5", p.Name(), plays[2])
	}
}
