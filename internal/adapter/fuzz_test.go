package adapter

import (
	"bytes"
	"testing"
)

// FuzzDecodePredictRequest drives every wire decoder with arbitrary
// bytes: none may panic or over-read, and a payload that decodes as a
// predict or feedback request must re-encode to the identical bytes (the
// layout is canonical, so decode∘encode is the identity on valid input).
func FuzzDecodePredictRequest(f *testing.F) {
	seed, _ := AppendPredictRequest(nil, "demo", "user-7", []float64{1, 2.5, -3})
	f.Add(seed)
	fb, _ := AppendFeedbackRequest(nil, "demo", "", 4, []float64{0.5})
	f.Add(fb)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodePredictRequest(data); err == nil {
			enc, encErr := AppendPredictRequest(nil, string(req.App), string(req.Context), req.Input)
			if encErr != nil {
				t.Fatalf("re-encode failed on decoded request: %v", encErr)
			}
			if !bytes.Equal(enc, data) {
				t.Fatalf("predict round trip: % x != % x", enc, data)
			}
		}
		if req, err := decodeFeedbackRequest(data); err == nil {
			enc, encErr := AppendFeedbackRequest(nil, string(req.App), string(req.Context), req.Label, req.Input)
			if encErr != nil {
				t.Fatalf("re-encode failed on decoded feedback: %v", encErr)
			}
			if !bytes.Equal(enc, data) {
				t.Fatalf("feedback round trip: % x != % x", enc, data)
			}
		}
		// Response decoders must tolerate any server bytes.
		DecodePredictResult(data)
		DecodeStatus(data)
	})
}
