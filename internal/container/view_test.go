package container

import (
	"math"
	"reflect"
	"testing"

	"clipper/internal/rpc"
)

func TestDecodeBatchViewRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		in      [][]float64
		wantDim int
	}{
		{"uniform", [][]float64{{1, 2, 3}, {4, 5, 6}}, 3},
		{"single", [][]float64{{math.Pi}}, 1},
		{"ragged", [][]float64{{1, 2, 3}, {}, {-4.5, math.Pi}}, -1},
		{"empty", nil, 0},
		{"label-only", [][]float64{{}, {}}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var v BatchView
			if err := DecodeBatchView(encodeRows(tc.in), &v); err != nil {
				t.Fatal(err)
			}
			if v.Rows() != len(tc.in) {
				t.Fatalf("Rows = %d, want %d", v.Rows(), len(tc.in))
			}
			if v.Dim() != tc.wantDim {
				t.Fatalf("Dim = %d, want %d", v.Dim(), tc.wantDim)
			}
			for r := range tc.in {
				got := v.Row(r)
				if len(got) != len(tc.in[r]) {
					t.Fatalf("row %d len = %d, want %d", r, len(got), len(tc.in[r]))
				}
				for i := range got {
					if got[i] != tc.in[r][i] {
						t.Fatalf("row %d[%d] = %v, want %v", r, i, got[i], tc.in[r][i])
					}
				}
			}
		})
	}
}

func TestDecodeBatchViewTruncated(t *testing.T) {
	buf := encodeRows([][]float64{{1, 2, 3, 4}})
	for _, cut := range []int{1, 3, 5, 9, len(buf) - 1} {
		var v BatchView
		if err := DecodeBatchView(buf[:cut], &v); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

// TestDecodeBatchViewReuse pins the zero-copy path's whole point: once
// the view's backing arrays are warm, decoding any batch that fits them
// allocates nothing.
func TestDecodeBatchViewReuse(t *testing.T) {
	big := encodeRows(benchRows(64, 128))
	small := encodeRows(benchRows(3, 16))
	var v BatchView
	if err := DecodeBatchView(big, &v); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeBatchView(big, &v); err != nil {
			t.Fatal(err)
		}
		if err := DecodeBatchView(small, &v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeBatchView allocates %v/op, want 0", allocs)
	}
}

// rowsSpy is a row-shape Predictor that counts its calls; viewSpy adds the
// view shape on top, so the handler's one dispatch decision — made by
// asView at construction — is observable.
type rowsSpy struct {
	info      Info
	rowsCalls int
}

func (p *rowsSpy) Info() Info { return p.info }

func (p *rowsSpy) PredictBatch(xs [][]float64) ([]Prediction, error) {
	p.rowsCalls++
	out := make([]Prediction, len(xs))
	for i, x := range xs {
		out[i] = Prediction{Label: int(x[0]), Scores: []float64{x[0], x[1]}}
	}
	return out, nil
}

type viewSpy struct {
	rowsSpy
	viewCalls int
}

func (p *viewSpy) PredictView(v BatchView, out *PredictionView) error {
	p.viewCalls++
	out.Reset()
	for i := 0; i < v.Rows(); i++ {
		x := v.Row(i)
		out.Append(int(x[0]), []float64{x[0], x[1]})
	}
	return nil
}

// TestHandlerDispatch: a ViewPredictor is served through PredictView
// alone, a plain Predictor through PredictBatch behind the rows adapter,
// and the two answer with identical response bytes.
func TestHandlerDispatch(t *testing.T) {
	xs := [][]float64{{1, 10}, {2, 20}, {3, 30}}
	info := Info{Name: "spy", Version: 1, InputDim: 2}
	view := &viewSpy{rowsSpy: rowsSpy{info: info}}
	viewResp, err := Handler(view)(rpc.MethodPredict, encodeRows(xs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if view.viewCalls != 1 || view.rowsCalls != 0 {
		t.Fatalf("view=%d rows=%d, want the view shape served natively", view.viewCalls, view.rowsCalls)
	}
	rows := &rowsSpy{info: info}
	rowsResp, err := Handler(rows)(rpc.MethodPredict, encodeRows(xs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows.rowsCalls != 1 {
		t.Fatalf("rows=%d, want one PredictBatch call", rows.rowsCalls)
	}
	if !reflect.DeepEqual(viewResp, rowsResp) {
		t.Fatal("the two shapes produced different response bytes")
	}
}

// TestHandlerDimError: a dimension mismatch is rejected before the
// predictor runs, with the same error — naming the first offending query
// — whichever shape sits behind the handler.
func TestHandlerDimError(t *testing.T) {
	bad := [][]float64{{1, 10}, {2}, {3, 30}} // query 1 has dim 1
	info := Info{Name: "spy", Version: 1, InputDim: 2}
	view := &viewSpy{rowsSpy: rowsSpy{info: info}}
	_, verr := Handler(view)(rpc.MethodPredict, encodeRows(bad), nil)
	rows := &rowsSpy{info: info}
	_, rerr := Handler(rows)(rpc.MethodPredict, encodeRows(bad), nil)
	if verr == nil || rerr == nil {
		t.Fatalf("dim mismatch accepted: view err %v, rows err %v", verr, rerr)
	}
	if view.viewCalls+view.rowsCalls+rows.rowsCalls != 0 {
		t.Fatal("predictor ran despite dim mismatch")
	}
	if verr.Error() != rerr.Error() {
		t.Fatalf("view error %q != rows error %q", verr, rerr)
	}
	if want := "container: query 1 has dim 1, model spy wants 2"; verr.Error() != want {
		t.Fatalf("error %q, want %q", verr, want)
	}
}

// TestRowsAdapterOwnsItsInput: the rows a Predictor receives behind the
// adapter are copies, not aliases of the pooled view — a predictor that
// keeps its input (as it always could) must not see it rewritten by the
// next batch.
func TestRowsAdapterOwnsItsInput(t *testing.T) {
	var kept [][]float64
	p := NewFunc(Info{Name: "keeper", Version: 1}, func(xs [][]float64) ([]Prediction, error) {
		kept = xs
		return make([]Prediction, len(xs)), nil
	})
	v := viewOf([][]float64{{1, 2}, {3}})
	var out PredictionView
	if err := asView(p).PredictView(*v, &out); err != nil {
		t.Fatal(err)
	}
	for i := range v.Data {
		v.Data[i] = -1 // the pooled view moves on to another batch
	}
	if !reflect.DeepEqual(kept, [][]float64{{1, 2}, {3}}) {
		t.Fatalf("retained rows were rewritten through the view: %v", kept)
	}
}

// TestPutEncBufRetentionCap is the regression for unbounded pooled-buffer
// retention: a batch that grows its encode buffer past maxPooledEncBuf
// must see that buffer dropped, not pooled forever.
func TestPutEncBufRetentionCap(t *testing.T) {
	small := make([]byte, 0, 4096)
	if !putEncBuf(&small, small) {
		t.Fatal("default-sized buffer not pooled")
	}
	atCap := make([]byte, 0, maxPooledEncBuf)
	if !putEncBuf(&atCap, atCap) {
		t.Fatal("at-cap buffer not pooled")
	}
	huge := make([]byte, 0, maxPooledEncBuf+1)
	if putEncBuf(&huge, huge) {
		t.Fatal("oversized encode buffer retained in the pool")
	}
}
