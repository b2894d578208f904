package adapter_test

// The differential test for the adapter merge. Before the binrpc adapter
// was deleted, the op script below was driven as raw frames through the
// old binrpc server and — its predict and feedback ops — through the old
// data-plane-only stream server; the two agreed byte for byte, and what
// binrpc answered was recorded in testdata/binrpc_wire.golden. The one
// binary adapter left must answer the same script with the same bytes and
// count the same operations. Since the binary protocol became the data
// plane alone, the golden's predict, feedback and 0x7f lines are still
// binrpc's; its lines for methods 0x12–0x16 were re-recorded as the
// unknown-method error frames they now answer.

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"testing"

	"clipper/internal/adapter"
	"clipper/internal/adapter/stream"
	"clipper/internal/gateway"
	"clipper/internal/rpc"
)

type wireOp struct {
	method  rpc.Method
	payload []byte
}

// wireScript is the recorded op stream; an op's correlation ID is its
// index plus one. Ops run one after another, so the second predict is a
// cache hit.
func wireScript(t *testing.T) []wireOp {
	t.Helper()
	predict := func(app string, input ...float64) []byte {
		b, err := adapter.AppendPredictRequest(nil, app, "", input)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	feedback, err := adapter.AppendFeedbackRequest(nil, "fixed", "", 1, []float64{3, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	register := []byte(`{"name":"rt","models":["m0"],"policy":"static:0"}`)
	return []wireOp{
		{adapter.MethodGWPredict, predict("fixed", 3, 1, 4)}, // cache miss
		{adapter.MethodGWPredict, predict("fixed", 3, 1, 4)}, // cache hit
		{adapter.MethodGWPredict, predict("fixed", 3, 1, 4)[:9]},
		{adapter.MethodGWPredict, predict("nope", 1)},
		{adapter.MethodGWFeedback, feedback},
		{adapter.MethodGWFeedback, feedback[:len(feedback)-3]},
		// 0x12–0x16 once carried app list, model list, health, register
		// and metrics; those are served over REST alone, so each answers
		// an unknown-method error frame.
		{0x12, nil},
		{0x13, nil},
		{0x14, nil},
		{0x16, register},
		{0x16, register},
		{0x15, nil},
		{0x7f, nil}, // no such method
	}
}

// playWire sends ops over a raw connection, one at a time, and renders
// one line per reply: correlation ID, frame type, method, payload. What
// differs from run to run is masked: the latency_µs field that ends a
// predict result.
func playWire(t *testing.T, addr string, ops []wireOp) string {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var out strings.Builder
	for i, op := range ops {
		req := &rpc.Frame{ID: uint64(i + 1), Type: rpc.MsgRequest, Method: op.method, Payload: op.payload}
		if err := rpc.WriteFrame(nc, req); err != nil {
			t.Fatal(err)
		}
		f, err := rpc.ReadFrame(nc)
		if err != nil {
			t.Fatalf("op %d: %v", i+1, err)
		}
		body := hex.EncodeToString(f.Payload)
		ok := f.Type == rpc.MsgResponse && len(f.Payload) > 0 && f.Payload[0] == byte(gateway.CodeOK)
		if ok && op.method == adapter.MethodGWPredict {
			body = body[:len(body)-16] + "<latency_us>"
		}
		fmt.Fprintf(&out, "id=%d type=%d method=0x%02x payload=%s\n", f.ID, f.Type, byte(f.Method), body)
		f.Release()
	}
	return out.String()
}

// gatewayCounts renders one adapter's requests_total and errors_total
// samples with the adapter label removed, sorted.
func gatewayCounts(t *testing.T, gw *gateway.Gateway, label string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := gw.Clipper().Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	tag := `adapter="` + label + `",`
	var lines []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "clipper_gateway_requests_total{"+tag) ||
			strings.HasPrefix(line, "clipper_gateway_errors_total{"+tag) {
			lines = append(lines, strings.Replace(line, tag, "", 1))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func TestWireMatchesRecordedBinrpc(t *testing.T) {
	want, err := os.ReadFile("testdata/binrpc_wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	// A new node: every gateway counter starts at zero, so the counts
	// after the script are its deltas.
	gw := gateway.New(newParityNode(t))
	srv := stream.New(gw)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	got := playWire(t, addr, wireScript(t)) + gatewayCounts(t, gw, "stream")
	if got != string(want) {
		t.Fatalf("the stream adapter diverges from the recorded binrpc wire:\n--- got\n%s--- want\n%s", got, want)
	}
}
