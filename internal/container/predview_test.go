package container

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"clipper/internal/rpc"
)

func samplePredictions() []Prediction {
	return []Prediction{
		{Label: 3, Scores: []float64{0.1, 0.2, 0.7}},
		{Label: -1},
		{Label: 0, Scores: []float64{1}},
	}
}

// TestPredictionViewAppendRoundTrip: the ragged producer path fills a
// view whose accessors, and whose trip across the wire, match the
// []Prediction equivalent.
func TestPredictionViewAppendRoundTrip(t *testing.T) {
	preds := samplePredictions()
	var v PredictionView
	for _, p := range preds {
		v.Append(p.Label, p.Scores)
	}
	if v.Count() != len(preds) {
		t.Fatalf("Count = %d, want %d", v.Count(), len(preds))
	}
	if v.Width() != -1 {
		t.Fatalf("Width = %d, want -1 (ragged)", v.Width())
	}
	for i, p := range preds {
		if v.Label(i) != p.Label {
			t.Fatalf("Label(%d) = %d, want %d", i, v.Label(i), p.Label)
		}
		if !reflect.DeepEqual(v.ScoresOf(i), p.Scores) && len(p.Scores) > 0 {
			t.Fatalf("ScoresOf(%d) = %v, want %v", i, v.ScoresOf(i), p.Scores)
		}
	}
	back, err := decodePreds(AppendPredictionView(nil, &v))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, preds) {
		t.Fatalf("wire round trip = %v, want %v", back, preds)
	}
}

// TestPredictionViewSize: the uniform producer fast path shapes the view
// and hands back the flat score tensor in place.
func TestPredictionViewSize(t *testing.T) {
	var v PredictionView
	v.Append(9, []float64{1, 2}) // dirty the view; Size must fully reshape it
	scores := v.Size(3, 2)
	if len(scores) != 6 {
		t.Fatalf("len(scores) = %d, want 6", len(scores))
	}
	for i := range scores {
		scores[i] = float64(i)
	}
	v.Labels[0], v.Labels[1], v.Labels[2] = 1, 0, 1
	if v.Width() != 2 || v.Count() != 3 {
		t.Fatalf("Width,Count = %d,%d, want 2,3", v.Width(), v.Count())
	}
	want := []Prediction{
		{Label: 1, Scores: []float64{0, 1}},
		{Label: 0, Scores: []float64{2, 3}},
		{Label: 1, Scores: []float64{4, 5}},
	}
	if !bytes.Equal(AppendPredictionView(nil, &v), encodePreds(want)) {
		t.Fatal("Size-produced view encodes differently from the struct equivalent")
	}
	// Label-only shape: zero-width rows, no scores.
	v.Size(2, 0)
	if got := AppendPredictionView(nil, &v); !bytes.Equal(got, encodePreds([]Prediction{{}, {}})) {
		t.Fatalf("label-only Size encoding = %v", got)
	}
}

// TestAppendBatchViewRoundTrip: a flat-collected batch crosses the wire
// with its rows and its shape (uniform width, ragged, empty) intact. The
// byte layout itself is pinned by TestWireLayoutPinned.
func TestAppendBatchViewRoundTrip(t *testing.T) {
	cases := [][][]float64{
		{{1, 2, 3}, {4, 5, 6}},
		{{1}, {}, {2, 3}}, // ragged
		{},                // empty
		{{}, {}},          // label-only rows
	}
	for _, xs := range cases {
		v := viewOf(xs)
		var back BatchView
		if err := DecodeBatchView(AppendBatchView(nil, v), &back); err != nil {
			t.Fatal(err)
		}
		if back.Rows() != len(xs) || back.Dim() != v.Dim() {
			t.Fatalf("round trip shape %d/%d, want %d/%d", back.Rows(), back.Dim(), len(xs), v.Dim())
		}
		for i, x := range xs {
			if len(x) > 0 && !reflect.DeepEqual(back.Row(i), x) {
				t.Fatalf("row %d = %v, want %v", i, back.Row(i), x)
			}
		}
	}
}

// TestDecodePredictionViewReuse pins the response decoder's zero-alloc
// steady state: once the view's backing arrays are warm, decoding any
// response that fits them allocates nothing.
func TestDecodePredictionViewReuse(t *testing.T) {
	big := encodePreds(benchPreds(64, 10))
	small := encodePreds(samplePredictions())
	var v PredictionView
	if err := DecodePredictionView(big, &v); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodePredictionView(big, &v); err != nil {
			t.Fatal(err)
		}
		if err := DecodePredictionView(small, &v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodePredictionView allocates %v/op, want 0", allocs)
	}
}

// TestPutPredViewRetentionCap: pooled prediction views obey the 1 MiB
// retention rule on every backing array.
func TestPutPredViewRetentionCap(t *testing.T) {
	if !putPredView(&PredictionView{Scores: make([]float64, 64)}) {
		t.Fatal("small view not pooled")
	}
	for _, v := range []*PredictionView{
		{Scores: make([]float64, maxPooledPredViewFloats+1)},
		{Labels: make([]int, maxPooledPredViewFloats+1)},
		{offsets: make([]int, maxPooledPredViewFloats+1)},
	} {
		if putPredView(v) {
			t.Fatal("oversized prediction view retained in the pool")
		}
	}
}

// TestPutBatchViewRetentionCap: the exported producer-side pool helpers
// apply the same cap as the handler's decode views.
func TestPutBatchViewRetentionCap(t *testing.T) {
	v := GetBatchView()
	v.AppendRow([]float64{1, 2})
	if !PutBatchView(v) {
		t.Fatal("small batch view not pooled")
	}
	if PutBatchView(&BatchView{Data: make([]float64, maxPooledViewFloats+1)}) {
		t.Fatal("oversized batch view retained in the pool")
	}
	if PutBatchView(&BatchView{offsets: make([]int, maxPooledViewFloats+1)}) {
		t.Fatal("batch view with oversized offsets retained in the pool")
	}
}

// TestHandlerViewCountMismatch: a ViewPredictor returning the wrong
// number of predictions must fail the request, as Validate does behind
// the rows adapter.
func TestHandlerViewCountMismatch(t *testing.T) {
	bad := NewFuncView(Info{Name: "bad", Version: 1},
		func(v BatchView, out *PredictionView) error {
			out.Size(v.Rows()+1, 0)
			return nil
		})
	if _, err := Handler(bad)(rpc.MethodPredict, encodeRows([][]float64{{1}}), nil); err == nil {
		t.Fatal("count mismatch accepted")
	}
}

// TestPredictViewContextMatchesPredictBatch drives both client entry
// points over one Loopback ViewPredictor and requires identical
// predictions: the row-slice call is a wrapper, not a second path.
func TestPredictViewContextMatchesPredictBatch(t *testing.T) {
	spy := &viewSpy{rowsSpy: rowsSpy{info: Info{Name: "spy", Version: 1, InputDim: 2}}}
	remote, stop, err := Loopback(spy)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	xs := [][]float64{{1, 10}, {2, 20}, {3, 30}, {4, 40}}

	want, err := remote.PredictBatchContext(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}

	v := GetBatchView()
	defer PutBatchView(v)
	for _, x := range xs {
		v.AppendRow(x)
	}
	got := make([]Prediction, len(xs))
	seen := make([]int, len(xs))
	err = remote.PredictViewContext(context.Background(), v, func(i int, p Prediction) {
		got[i] = p
		seen[i]++
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if seen[i] != 1 {
			t.Fatalf("row %d delivered %d times, want exactly once", i, seen[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PredictViewContext predictions %v differ from PredictBatchContext %v", got, want)
	}
}

// TestPredictViewContextErrorDeliversNothing: on error, deliver must not
// have been invoked — the queue relies on all-or-nothing to fan the error
// out to every submitter exactly once.
func TestPredictViewContextErrorDeliversNothing(t *testing.T) {
	boom := NewFuncView(Info{Name: "boom", Version: 1},
		func(v BatchView, out *PredictionView) error {
			return ErrContainerClosed
		})
	remote, stop, err := Loopback(boom)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	v := GetBatchView()
	defer PutBatchView(v)
	v.AppendRow([]float64{1})
	delivered := 0
	err = remote.PredictViewContext(context.Background(), v, func(i int, p Prediction) {
		delivered++
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if delivered != 0 {
		t.Fatalf("deliver ran %d times on the error path, want 0", delivered)
	}
}
