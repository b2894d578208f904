package container

import (
	"context"
	"testing"

	"clipper/internal/testutil"
)

// scoreEcho is a ViewPredictor that answers each row with its first
// feature as the label and a 10-wide score vector written straight into
// the response tensor, so both directions of the wire carry a tensor.
type scoreEcho struct{}

func (scoreEcho) Info() Info { return Info{Name: "echo", Version: 1} }

func (scoreEcho) PredictBatch(xs [][]float64) ([]Prediction, error) {
	panic("a ViewPredictor is served through PredictView alone")
}

func (scoreEcho) PredictView(v BatchView, out *PredictionView) error {
	const classes = 10
	scores := out.Size(v.Rows(), classes)
	for i := range out.Labels {
		x0 := v.Row(i)[0]
		out.Labels[i] = int(x0)
		for j := 0; j < classes; j++ {
			scores[i*classes+j] = x0 + float64(j)
		}
	}
	return nil
}

// TestLoopbackViewAllocs pins the whole tensor path's allocation bill: a
// 64×128 batch view sent through Remote.PredictViewContext to a
// ViewPredictor behind Loopback, scores scattered back, both sides'
// allocations counted (the server runs in this process). Bodies, views,
// encode buffers and frames are pooled, so what remains is one allocation
// per batch — the backing array the scattered scores share — or 0.016 per
// query.
func TestLoopbackViewAllocs(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const batch, dim = 64, 128
	remote, stop, err := Loopback(scoreEcho{})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	v := viewOf(benchRows(batch, dim))
	ctx := context.Background()
	var delivered int
	deliver := func(i int, p Prediction) { delivered++ }
	call := func() {
		if err := remote.PredictViewContext(ctx, v, deliver); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		call() // warm the pools on both sides
	}
	delivered = 0
	perBatch := testing.AllocsPerRun(100, call)
	if delivered != 101*batch { // AllocsPerRun makes one warm-up call of its own
		t.Fatalf("delivered %d predictions, want %d", delivered, 101*batch)
	}
	if perBatch > 1 {
		t.Errorf("loopback view round trip allocates %.0f times per batch of %d (%.3f per query), want at most 1 (0.016 per query)", perBatch, batch, perBatch/batch)
	}
}
