package container

import (
	"bytes"
	"testing"
)

// The codec decodes payloads that arrive off the network; hostile row
// counts, truncated rows, and zero-length rows must only ever produce
// errors — never panics or oversized allocations — and whatever a decoder
// accepts must survive the encoder unchanged. CI runs each target with
// -fuzz=FuzzDecode... -fuzztime=5s.

func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})                                   // empty buffer
	f.Add([]byte{0, 0, 0, 0})                         // zero rows
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})             // hostile row count
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // two zero-length rows
	f.Add(encodeRows([][]float64{{1, 2, 3}, {4, 5, 6}}))
	f.Add(encodeRows([][]float64{{1}, {}, {2, 3}})) // ragged with empty row
	full := encodeRows([][]float64{{1, 2, 3, 4}})
	f.Add(full[:len(full)-3]) // truncated mid-row
	f.Fuzz(func(t *testing.T, data []byte) {
		var v BatchView
		if err := DecodeBatchView(data, &v); err != nil {
			return
		}
		// encode∘decode is the identity on what the decoder consumed (it
		// tolerates trailing bytes the encoder never emits): values are
		// moved as bits, so even NaN payloads survive.
		enc := AppendBatchView(nil, &v)
		if len(enc) > len(data) || !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("re-encoding differs from the accepted payload:\n got %v\nfrom %v", enc, data)
		}
		// decode∘encode is the identity on views: same shape, same bits.
		var back BatchView
		if err := DecodeBatchView(enc, &back); err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if back.Rows() != v.Rows() || back.Dim() != v.Dim() {
			t.Fatalf("round trip shape %d/%d, want %d/%d", back.Rows(), back.Dim(), v.Rows(), v.Dim())
		}
		if !bytes.Equal(AppendBatchView(nil, &back), enc) {
			t.Fatal("round trip changed the batch")
		}
	})
}

func FuzzDecodePredictions(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // hostile count
	f.Add(encodePreds([]Prediction{{Label: 1, Scores: []float64{0.5, 0.5}}}))
	f.Add(encodePreds([]Prediction{{Label: -1}, {Label: 2}})) // label-only
	f.Add(encodePreds([]Prediction{
		{Label: 0, Scores: []float64{1}}, {Label: 1}, {Label: 2, Scores: []float64{2, 3}},
	})) // ragged
	full := encodePreds([]Prediction{{Label: 0, Scores: []float64{1, 2, 3}}})
	f.Add(full[:len(full)-5]) // truncated scores
	f.Fuzz(func(t *testing.T, data []byte) {
		var v PredictionView
		if err := DecodePredictionView(data, &v); err != nil {
			return
		}
		enc := AppendPredictionView(nil, &v)
		if len(enc) > len(data) || !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("re-encoding differs from the accepted payload:\n got %v\nfrom %v", enc, data)
		}
		var back PredictionView
		if err := DecodePredictionView(enc, &back); err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if back.Count() != v.Count() || back.Width() != v.Width() {
			t.Fatalf("round trip shape %d/%d, want %d/%d", back.Count(), back.Width(), v.Count(), v.Width())
		}
		for i := 0; i < v.Count(); i++ {
			if back.Label(i) != v.Label(i) || len(back.ScoresOf(i)) != len(v.ScoresOf(i)) {
				t.Fatalf("prediction %d changed in the round trip", i)
			}
		}
		if !bytes.Equal(AppendPredictionView(nil, &back), enc) {
			t.Fatal("round trip changed the predictions")
		}
	})
}

// TestHostileRowCountDoesNotAllocate pins the validation order: a huge
// claimed row count over a tiny buffer must fail in the header scan,
// before anything is sized from attacker-controlled numbers.
func TestHostileRowCountDoesNotAllocate(t *testing.T) {
	hostile := []byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4}
	var v BatchView
	if err := DecodeBatchView(hostile, &v); err == nil {
		t.Fatal("hostile row count accepted by the batch decoder")
	}
	if v.Data != nil || v.offsets != nil {
		t.Fatal("batch decoder sized arrays from a hostile header")
	}
	var pv PredictionView
	if err := DecodePredictionView(hostile, &pv); err == nil {
		t.Fatal("hostile count accepted by the prediction decoder")
	}
	if pv.Scores != nil || pv.Labels != nil || pv.offsets != nil {
		t.Fatal("prediction decoder sized arrays from a hostile header")
	}
	if !bytes.Equal(hostile, []byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4}) {
		t.Fatal("decoder mutated its input")
	}
}
