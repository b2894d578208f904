package adapter

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"clipper/internal/gateway"
	"clipper/internal/rpc"
)

// Gateway wire methods, carried in the rpc.Frame Method byte. They live
// above 0x10 so they can never collide with the container protocol's
// MethodPredict/MethodInfo — a gateway frame accidentally sent to a
// model container (or vice versa) fails loudly instead of decoding as
// garbage.
const (
	MethodGWPredict  rpc.Method = 0x10
	MethodGWFeedback rpc.Method = 0x11
)

// Binary layouts, all little-endian:
//
//	predict request   u16 appLen | app | u16 ctxLen | ctx | u32 n | n × f64
//	feedback request  u16 appLen | app | u16 ctxLen | ctx | i64 label | u32 n | n × f64
//	predict response  u8 code==0 | i64 label | f64 confidence | u8 flags | u32 missing | i64 latency_us
//	                  u8 code!=0 | error message bytes
//	status response   u8 code | error message bytes when code != 0
//	flags             bit0 used_default, bit1 degraded

const (
	flagUsedDefault = 1 << 0
	flagDegraded    = 1 << 1
)

var errTruncated = errors.New("adapter: truncated request")

// PredictReq is a decoded predict request. App and Context alias the
// frame payload and MUST NOT be retained after the handler returns (the
// payload is leased); Input is freshly allocated and safe to hand to the
// core, whose straggler-gather goroutines may outlive the call.
type PredictReq struct {
	App     []byte
	Context []byte
	Input   []float64
}

// feedbackReq is a decoded feedback request, with the same aliasing
// rules as PredictReq.
type feedbackReq struct {
	App     []byte
	Context []byte
	Label   int64
	Input   []float64
}

func splitStr16(b []byte) (s, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, errTruncated
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return nil, nil, errTruncated
	}
	return b[:n], b[n:], nil
}

// decodeVec decodes u32 n | n×f64 and requires the vector to consume the
// entire remainder — trailing bytes are a framing error, not padding.
func decodeVec(b []byte) ([]float64, error) {
	if len(b) < 4 {
		return nil, errTruncated
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b)%8 != 0 || n != len(b)/8 {
		return nil, fmt.Errorf("adapter: vector length %d does not match %d payload bytes", n, len(b))
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return v, nil
}

// DecodePredictRequest parses a MethodGWPredict payload.
func DecodePredictRequest(b []byte) (PredictReq, error) {
	var req PredictReq
	var err error
	if req.App, b, err = splitStr16(b); err != nil {
		return req, err
	}
	if req.Context, b, err = splitStr16(b); err != nil {
		return req, err
	}
	req.Input, err = decodeVec(b)
	return req, err
}

// decodeFeedbackRequest parses a MethodGWFeedback payload.
func decodeFeedbackRequest(b []byte) (feedbackReq, error) {
	var req feedbackReq
	var err error
	if req.App, b, err = splitStr16(b); err != nil {
		return req, err
	}
	if req.Context, b, err = splitStr16(b); err != nil {
		return req, err
	}
	if len(b) < 8 {
		return req, errTruncated
	}
	req.Label = int64(binary.LittleEndian.Uint64(b))
	req.Input, err = decodeVec(b[8:])
	return req, err
}

func appendStr16(dst []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return dst, fmt.Errorf("adapter: string of %d bytes exceeds wire limit", len(s))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

func appendVec(dst []byte, v []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// AppendPredictRequest encodes a predict request onto dst.
func AppendPredictRequest(dst []byte, app, cctx string, input []float64) ([]byte, error) {
	var err error
	if dst, err = appendStr16(dst, app); err != nil {
		return dst, err
	}
	if dst, err = appendStr16(dst, cctx); err != nil {
		return dst, err
	}
	return appendVec(dst, input), nil
}

// AppendFeedbackRequest encodes a feedback request onto dst.
func AppendFeedbackRequest(dst []byte, app, cctx string, label int64, input []float64) ([]byte, error) {
	var err error
	if dst, err = appendStr16(dst, app); err != nil {
		return dst, err
	}
	if dst, err = appendStr16(dst, cctx); err != nil {
		return dst, err
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(label))
	return appendVec(dst, input), nil
}

// AppendPredictResult encodes a successful predict response onto dst.
func AppendPredictResult(dst []byte, r gateway.PredictResult) []byte {
	dst = append(dst, byte(gateway.CodeOK))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Label))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Confidence))
	var flags byte
	if r.UsedDefault {
		flags |= flagUsedDefault
	}
	if r.Degraded {
		flags |= flagDegraded
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Missing))
	return binary.LittleEndian.AppendUint64(dst, uint64(r.Latency.Microseconds()))
}

// appendError encodes err as a non-OK status: its gateway code byte plus
// the message. A nil-safe guard maps a spurious CodeOK to CodeInternal
// so a zero status byte always means success on the wire.
func appendError(dst []byte, err error) []byte {
	code := gateway.CodeOf(err)
	if code == gateway.CodeOK {
		code = gateway.CodeInternal
	}
	dst = append(dst, byte(code))
	return append(dst, err.Error()...)
}

// appendStatus encodes a bare success/failure status.
func appendStatus(dst []byte, err error) []byte {
	if err == nil {
		return append(dst, byte(gateway.CodeOK))
	}
	return appendError(dst, err)
}

// DecodePredictResult parses a predict response. A non-OK status comes
// back as a *gateway.Error with the wire code and message; the message
// is copied because the payload is leased.
func DecodePredictResult(b []byte) (gateway.PredictResult, error) {
	var r gateway.PredictResult
	if len(b) < 1 {
		return r, errTruncated
	}
	if code := gateway.Code(b[0]); code != gateway.CodeOK {
		return r, &gateway.Error{Code: code, Msg: string(b[1:])}
	}
	b = b[1:]
	if len(b) < 8+8+1+4+8 {
		return r, errTruncated
	}
	r.Label = int(int64(binary.LittleEndian.Uint64(b)))
	r.Confidence = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	flags := b[16]
	r.UsedDefault = flags&flagUsedDefault != 0
	r.Degraded = flags&flagDegraded != 0
	r.Missing = int(binary.LittleEndian.Uint32(b[17:]))
	r.Latency = time.Duration(int64(binary.LittleEndian.Uint64(b[21:]))) * time.Microsecond
	return r, nil
}

// DecodeStatus parses a status response: nil for CodeOK, otherwise a
// typed error carrying the wire code and message.
func DecodeStatus(b []byte) error {
	if len(b) < 1 {
		return errTruncated
	}
	if code := gateway.Code(b[0]); code != gateway.CodeOK {
		return &gateway.Error{Code: code, Msg: string(b[1:])}
	}
	return nil
}
