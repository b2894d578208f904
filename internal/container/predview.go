package container

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// PredictionView is the response-direction mirror of BatchView: a flat,
// row-major view over a decoded prediction batch. Every prediction's
// scores sit back to back in one Scores slice, with one entry in Labels
// per prediction, so the response path never materializes per-query
// Prediction structs or per-query score slices.
//
// A view decoded by DecodePredictionView owns no payload memory — the
// decoder copies values out of the wire buffer — and its backing arrays
// are meant to be reused: decoding into the same view allocates nothing
// in steady state. Producers (ViewPredictor implementations) fill a view
// through Size + Labels/Scores or Append; consumers must treat a view
// handed to them as valid only for the duration of the call and must not
// alias Scores or Labels in anything they retain.
type PredictionView struct {
	// Scores holds all predictions' scores, row-major: prediction i's
	// scores span Scores[offset(i):offset(i+1)].
	Scores []float64
	// Labels holds one predicted label per prediction.
	Labels []int

	offsets []int // prediction i's scores span Scores[offsets[i]:offsets[i+1]]
	width   int   // uniform score width; -1 when ragged, 0 when label-only/empty
}

// Count returns the number of predictions in the view.
func (v *PredictionView) Count() int { return len(v.Labels) }

// Width returns the uniform per-prediction score width when every
// prediction has the same number of scores (0 for an empty or label-only
// view), or -1 when the widths are ragged.
func (v *PredictionView) Width() int { return v.width }

// Label returns prediction i's label.
func (v *PredictionView) Label(i int) int { return v.Labels[i] }

// ScoresOf returns prediction i's scores as a slice of the flat tensor
// (nil for a label-only prediction). It aliases the view's backing array
// and is valid only as long as the view is.
func (v *PredictionView) ScoresOf(i int) []float64 {
	lo, hi := v.offsets[i], v.offsets[i+1]
	if lo == hi {
		return nil
	}
	return v.Scores[lo:hi:hi]
}

// Reset empties the view while keeping its backing arrays.
func (v *PredictionView) Reset() {
	v.Scores = v.Scores[:0]
	v.Labels = v.Labels[:0]
	v.offsets = v.offsets[:0]
	v.width = 0
}

// Size shapes the view as count predictions of uniform score width
// classes (0 for label-only), reusing its backing arrays, and returns the
// flat count×classes score tensor for the producer to fill. Labels are
// zeroed and filled through the Labels field. This is the ViewPredictor
// producer fast path: one Size call, one ScoresFlat call, no per-query
// anything.
func (v *PredictionView) Size(count, classes int) []float64 {
	if cap(v.Labels) < count {
		v.Labels = make([]int, count)
	}
	v.Labels = v.Labels[:count]
	for i := range v.Labels {
		v.Labels[i] = 0
	}
	if cap(v.offsets) < count+1 {
		v.offsets = make([]int, count+1)
	}
	v.offsets = v.offsets[:count+1]
	total := count * classes
	if cap(v.Scores) < total {
		v.Scores = make([]float64, total)
	}
	v.Scores = v.Scores[:total]
	for i := 0; i <= count; i++ {
		v.offsets[i] = i * classes
	}
	v.width = classes
	if count == 0 {
		v.width = 0
	}
	return v.Scores
}

// Append adds one prediction to the view, copying scores into the flat
// tensor. It is the general (possibly ragged) producer path; uniform
// producers prefer Size.
func (v *PredictionView) Append(label int, scores []float64) {
	if len(v.offsets) == 0 {
		v.offsets = append(v.offsets, 0)
	}
	v.Scores = append(v.Scores, scores...)
	v.offsets = append(v.offsets, len(v.Scores))
	v.Labels = append(v.Labels, label)
	if len(v.offsets) == 2 {
		v.width = len(scores)
	} else if v.width != len(scores) {
		v.width = -1
	}
}

// DecodePredictionView decodes a predictions payload (the layout
// AppendPredictionView writes) into v, reusing v's backing arrays.
// Validation is two-pass, as in DecodeBatchView: a hostile count or
// truncated score vector fails in the header scan, before anything is
// sized; then labels and scores are copied straight into the flat
// tensors. With a reused view the steady-state decode is allocation-free
// at any batch size.
func DecodePredictionView(buf []byte, v *PredictionView) error {
	count, off, err := readU32(buf, 0)
	if err != nil {
		return err
	}
	total := 0
	scan := off
	for i := uint32(0); i < count; i++ {
		var scoreLen uint32
		_, scan, err = readU32(buf, scan)
		if err != nil {
			return err
		}
		scoreLen, scan, err = readU32(buf, scan)
		if err != nil {
			return err
		}
		if int(scoreLen)*8 > len(buf)-scan {
			return fmt.Errorf("container: prediction %d scores truncated", i)
		}
		total += int(scoreLen)
		scan += int(scoreLen) * 8
	}
	n := int(count)
	if cap(v.Labels) < n {
		v.Labels = make([]int, n)
	}
	v.Labels = v.Labels[:n]
	if cap(v.offsets) < n+1 {
		v.offsets = make([]int, n+1)
	}
	v.offsets = v.offsets[:n+1]
	if cap(v.Scores) < total {
		v.Scores = make([]float64, total)
	}
	v.Scores = v.Scores[:total]
	v.width = 0
	pos := 0
	for i := 0; i < n; i++ {
		var label, scoreLen uint32
		label, off, _ = readU32(buf, off)
		scoreLen, off, _ = readU32(buf, off)
		v.Labels[i] = int(int32(label))
		v.offsets[i] = pos
		for j := 0; j < int(scoreLen); j++ {
			v.Scores[pos+j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		if i == 0 {
			v.width = int(scoreLen)
		} else if v.width != int(scoreLen) {
			v.width = -1
		}
		pos += int(scoreLen)
	}
	v.offsets[n] = pos
	return nil
}

// AppendPredictionView appends the serialization of the flat view v to
// dst and returns the extended slice — the server encodes every response
// straight from the flat response tensor into its pooled scratch, without
// building Prediction structs.
//
// Layout: u32 count, then per prediction: i32 label, u32 scoreLen,
// f64 × scoreLen.
func AppendPredictionView(dst []byte, v *PredictionView) []byte {
	need := 4 + 8*len(v.Labels) + 8*len(v.Scores)
	off := len(dst)
	if cap(dst)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(v.Labels)))
	off += 4
	for i, label := range v.Labels {
		binary.LittleEndian.PutUint32(dst[off:], uint32(int32(label)))
		off += 4
		lo, hi := v.offsets[i], v.offsets[i+1]
		binary.LittleEndian.PutUint32(dst[off:], uint32(hi-lo))
		off += 4
		for _, s := range v.Scores[lo:hi] {
			binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(s))
			off += 8
		}
	}
	return dst
}

// predViewPool recycles PredictionViews across batches on both sides of
// the wire: the server and Local fill one per batch, and Remote decodes
// one per response. Steady state allocates neither the view nor (after
// warm-up) its backing arrays.
var predViewPool = sync.Pool{
	New: func() any { return new(PredictionView) },
}

// maxPooledPredViewFloats caps the backing arrays a pooled prediction
// view may retain — the same ~1 MiB retention rule as putEncBuf and the
// rpc body pools: one giant scored batch must not pin a giant score
// tensor in the pool forever. Labels and offsets are capped at the same
// element count (same element size).
const maxPooledPredViewFloats = maxPooledEncBuf / 8

func getPredView() *PredictionView {
	return predViewPool.Get().(*PredictionView)
}

// putPredView returns a prediction view to the pool unless one outlier
// batch grew any of its backing arrays past the retention cap. Reports
// whether the view was pooled (exercised by the retention regression
// test).
func putPredView(v *PredictionView) bool {
	if cap(v.Scores) > maxPooledPredViewFloats ||
		cap(v.Labels) > maxPooledPredViewFloats ||
		cap(v.offsets) > maxPooledPredViewFloats {
		return false
	}
	predViewPool.Put(v)
	return true
}
