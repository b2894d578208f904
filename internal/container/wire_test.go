package container

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// TestWireLayoutPinned pins both payload layouts byte for byte, written
// out from the format the codec documents (little-endian; batch: u32
// rows, per row u32 len + f64s; predictions: u32 count, per prediction
// i32 label + u32 scoreLen + f64s). The wire has one encoder per payload,
// so these literals — not a second implementation — are what keeps the
// format from drifting.
func TestWireLayoutPinned(t *testing.T) {
	batch := []byte{
		3, 0, 0, 0, // rows
		2, 0, 0, 0, // row 0: len 2
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // 1.0
		0, 0, 0, 0, 0, 0, 0, 0xc0, // -2.0
		0, 0, 0, 0, // row 1: empty
		1, 0, 0, 0, // row 2: len 1
		0, 0, 0, 0, 0, 0, 0xe0, 0x3f, // 0.5
	}
	if got := encodeRows([][]float64{{1, -2}, {}, {0.5}}); !bytes.Equal(got, batch) {
		t.Fatalf("batch layout drifted:\n got %v\nwant %v", got, batch)
	}
	preds := []byte{
		2, 0, 0, 0, // count
		0xff, 0xff, 0xff, 0xff, // label -1
		0, 0, 0, 0, // no scores
		7, 0, 0, 0, // label 7
		1, 0, 0, 0, // one score
		0, 0, 0, 0, 0, 0, 0xd0, 0x3f, // 0.25
	}
	if got := encodePreds([]Prediction{{Label: -1}, {Label: 7, Scores: []float64{0.25}}}); !bytes.Equal(got, preds) {
		t.Fatalf("predictions layout drifted:\n got %v\nwant %v", got, preds)
	}
	// The zero-count payloads are four zero bytes each, from a fresh view
	// and from a Size(0, …) one.
	var pv PredictionView
	pv.Size(0, 3)
	for name, got := range map[string][]byte{
		"batch":       encodeRows(nil),
		"predictions": encodePreds(nil),
		"sized":       AppendPredictionView(nil, &pv),
	} {
		if !bytes.Equal(got, []byte{0, 0, 0, 0}) {
			t.Fatalf("empty %s payload = %v", name, got)
		}
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	in := [][]float64{{1, 2, 3}, {}, {-4.5, math.Pi}}
	out, err := decodeRows(encodeRows(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %v want %v", out, in)
	}
}

func TestBatchCodecEmpty(t *testing.T) {
	out, err := decodeRows(encodeRows(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("got %v", out)
	}
}

func TestBatchCodecPropertyRoundTrip(t *testing.T) {
	f := func(rows [][]float64) bool {
		for _, r := range rows {
			for i, v := range r {
				if math.IsNaN(v) {
					r[i] = 0 // NaN != NaN breaks DeepEqual, not the codec
				}
			}
		}
		out, err := decodeRows(encodeRows(rows))
		if err != nil {
			return false
		}
		if len(out) != len(rows) {
			return false
		}
		for i := range rows {
			if len(out[i]) != len(rows[i]) {
				return false
			}
			for j := range rows[i] {
				if out[i][j] != rows[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchCodecTruncated(t *testing.T) {
	buf := encodeRows([][]float64{{1, 2, 3, 4}})
	for _, cut := range []int{1, 3, 5, 9, len(buf) - 1} {
		if _, err := decodeRows(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestPredictionsCodecRoundTrip(t *testing.T) {
	in := []Prediction{
		{Label: 3, Scores: []float64{0.1, 0.9}},
		{Label: -1},
		{Label: 0, Scores: []float64{}},
	}
	out, err := decodePreds(encodePreds(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0].Label != 3 || out[0].Scores[1] != 0.9 {
		t.Fatalf("pred0 = %+v", out[0])
	}
	if out[1].Label != -1 || out[1].Scores != nil {
		t.Fatalf("pred1 = %+v", out[1])
	}
}

func TestPredictionsCodecTruncated(t *testing.T) {
	buf := encodePreds([]Prediction{{Label: 1, Scores: []float64{1, 2}}})
	for _, cut := range []int{2, 6, 10, len(buf) - 1} {
		if _, err := decodePreds(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestInfoCodecRoundTrip(t *testing.T) {
	in := Info{Name: "sklearn-svm", Version: 7, InputDim: 784, NumClasses: 10}
	out, err := DecodeInfo(EncodeInfo(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v want %+v", out, in)
	}
}

func TestInfoCodecTruncated(t *testing.T) {
	buf := EncodeInfo(Info{Name: "x", Version: 1})
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeInfo(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}
