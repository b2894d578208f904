package container

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The codec encodes prediction batches, predictions and model infos in a
// compact little-endian binary format. The paper notes that query
// serialization is a measurable part of container latency (Figure 11's
// Python-vs-C++ gap); keeping the codec explicit lets the benchmarks model
// that cost faithfully.

// BatchView is a flat, row-major tensor view over a batch: every row's
// values sit back to back in one Data slice, so a ViewPredictor consumes
// the whole batch without per-row [][]float64 slices.
//
// A view decoded by DecodeBatchView owns no payload memory — the decoder
// copies values out of the wire buffer — but its backing arrays are meant
// to be reused: decoding into the same view reuses Data and the offset
// table, so the steady-state decode allocates nothing. Consumers must
// treat a view handed to them (e.g. via PredictView) as valid only for
// the duration of the call, and must not alias Data in anything they
// return.
type BatchView struct {
	// Data holds all rows' values, row-major.
	Data []float64

	offsets []int // row r spans Data[offsets[r]:offsets[r+1]]
	dim     int   // uniform row width; -1 when rows are ragged, 0 when empty
}

// Rows returns the number of rows in the view.
func (v *BatchView) Rows() int {
	if len(v.offsets) == 0 {
		return 0
	}
	return len(v.offsets) - 1
}

// Reset empties the view while keeping its backing arrays, so a pooled
// view accumulates the next batch without reallocating.
func (v *BatchView) Reset() {
	v.Data = v.Data[:0]
	v.offsets = v.offsets[:0]
	v.dim = 0
}

// AppendRow copies x into the view as its next row. This is the batching
// queue's flat collection primitive: submits accumulate straight into one
// tensor, so no [][]float64 batch is ever assembled. With a reused view
// the steady-state append allocates nothing once the backing arrays have
// grown to the working batch size.
func (v *BatchView) AppendRow(x []float64) {
	if len(v.offsets) == 0 {
		v.offsets = append(v.offsets, 0)
	}
	v.Data = append(v.Data, x...)
	v.offsets = append(v.offsets, len(v.Data))
	if len(v.offsets) == 2 {
		v.dim = len(x)
	} else if v.dim != len(x) {
		v.dim = -1
	}
}

// Dim returns the uniform row width when every row has the same length
// (0 for an empty batch), or -1 when rows are ragged.
func (v *BatchView) Dim() int { return v.dim }

// Row returns row r as a slice of Data. It aliases the view's backing
// array and is valid only as long as the view is.
func (v *BatchView) Row(r int) []float64 {
	return v.Data[v.offsets[r]:v.offsets[r+1]]
}

// DecodeBatchView decodes a batch payload (the layout AppendBatchView
// writes) into v, reusing v's backing arrays. Validation is two-pass: the
// first walks the row headers, so a hostile row count or a truncated row
// fails before anything is sized (every row consumes at least its length
// prefix); the second copies the values straight into the flat tensor —
// no per-row slices, no second copy. With a reused view the steady-state
// decode is allocation-free at any batch size; a fresh view pays at most
// one allocation each for Data and the offset table.
func DecodeBatchView(buf []byte, v *BatchView) error {
	rows, off, err := readU32(buf, 0)
	if err != nil {
		return err
	}
	total := 0
	scan := off
	for r := uint32(0); r < rows; r++ {
		var n uint32
		n, scan, err = readU32(buf, scan)
		if err != nil {
			return err
		}
		if int(n)*8 > len(buf)-scan {
			return fmt.Errorf("container: row %d truncated", r)
		}
		total += int(n)
		scan += int(n) * 8
	}
	if cap(v.offsets) < int(rows)+1 {
		v.offsets = make([]int, int(rows)+1)
	}
	v.offsets = v.offsets[:int(rows)+1]
	if cap(v.Data) < total {
		v.Data = make([]float64, total)
	}
	v.Data = v.Data[:total]
	v.dim = 0
	pos := 0
	for r := 0; r < int(rows); r++ {
		var n uint32
		n, off, _ = readU32(buf, off)
		v.offsets[r] = pos
		for i := 0; i < int(n); i++ {
			v.Data[pos+i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		if r == 0 {
			v.dim = int(n)
		} else if v.dim != int(n) {
			v.dim = -1
		}
		pos += int(n)
	}
	v.offsets[rows] = pos
	return nil
}

// AppendBatchView appends the serialization of the flat batch v to dst
// and returns the extended slice. Callers on the hot path reuse dst
// across batches (e.g. from a sync.Pool) so steady-state encoding
// allocates nothing.
//
// Layout: u32 rows, then per row: u32 len, f64 × len.
func AppendBatchView(dst []byte, v *BatchView) []byte {
	rows := v.Rows()
	need := 4 + 4*rows + 8*len(v.Data)
	off := len(dst)
	if cap(dst)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	binary.LittleEndian.PutUint32(dst[off:], uint32(rows))
	off += 4
	for r := 0; r < rows; r++ {
		row := v.Data[v.offsets[r]:v.offsets[r+1]]
		binary.LittleEndian.PutUint32(dst[off:], uint32(len(row)))
		off += 4
		for _, val := range row {
			binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(val))
			off += 8
		}
	}
	return dst
}

// EncodeInfo serializes a model description.
//
// Layout: u16 nameLen, name bytes, i32 version, i32 inputDim, i32 classes.
func EncodeInfo(info Info) []byte {
	name := []byte(info.Name)
	buf := make([]byte, 2+len(name)+12)
	binary.LittleEndian.PutUint16(buf, uint16(len(name)))
	copy(buf[2:], name)
	off := 2 + len(name)
	binary.LittleEndian.PutUint32(buf[off:], uint32(int32(info.Version)))
	binary.LittleEndian.PutUint32(buf[off+4:], uint32(int32(info.InputDim)))
	binary.LittleEndian.PutUint32(buf[off+8:], uint32(int32(info.NumClasses)))
	return buf
}

// DecodeInfo reverses EncodeInfo.
func DecodeInfo(buf []byte) (Info, error) {
	if len(buf) < 2 {
		return Info{}, fmt.Errorf("container: info truncated")
	}
	nameLen := int(binary.LittleEndian.Uint16(buf))
	if len(buf) < 2+nameLen+12 {
		return Info{}, fmt.Errorf("container: info truncated")
	}
	off := 2 + nameLen
	return Info{
		Name:       string(buf[2 : 2+nameLen]),
		Version:    int(int32(binary.LittleEndian.Uint32(buf[off:]))),
		InputDim:   int(int32(binary.LittleEndian.Uint32(buf[off+4:]))),
		NumClasses: int(int32(binary.LittleEndian.Uint32(buf[off+8:]))),
	}, nil
}

func readU32(buf []byte, off int) (uint32, int, error) {
	if off+4 > len(buf) {
		return 0, 0, fmt.Errorf("container: buffer truncated at offset %d", off)
	}
	return binary.LittleEndian.Uint32(buf[off:]), off + 4, nil
}
