package stream

import (
	"testing"
	"time"

	"clipper/internal/adapter"
	"clipper/internal/gateway"
	"clipper/internal/rpc"
	"clipper/internal/testutil"
)

// TestConnGoAllocs pins the steady-state allocation count of one
// pipelined predict — encode, send, receive, decode, callback — against a
// server that answers from a canned result and allocates nothing itself.
func TestConnGoAllocs(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv := rpc.NewServer(func(_ rpc.Method, _, scratch []byte) ([]byte, error) {
		return adapter.AppendPredictResult(scratch, gateway.PredictResult{Label: 1}), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	input := make([]float64, 784)
	fired := make(chan error, 1)
	cb := func(res gateway.PredictResult, err error) {
		if err == nil && res.Label != 1 {
			t.Errorf("label %d", res.Label)
		}
		fired <- err
	}
	call := func() {
		conn.Go("app", "", input, cb)
		if err := <-fired; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		call() // warm the pools
	}
	if avg := testing.AllocsPerRun(1000, call); avg > 1 {
		t.Errorf("Conn.Go allocates %.0f times per predict, want at most 1", avg)
	}
}
