package stream

import (
	"context"
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

// TestLargeRequestBuffersNotPooled: a request that outgrows 1 MiB does not
// leave its buffer in reqPool, on any of the three calls that encode into
// one. Skipped under -race, whose build drops Puts at random.
func TestLargeRequestBuffersNotPooled(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("the race build drops sync.Pool Puts at random")
	}
	srv := rpc.NewServer(func(m rpc.Method, _, scratch []byte) ([]byte, error) {
		if m == adapter.MethodGWFeedback {
			return append(scratch, byte(gateway.CodeOK)), nil
		}
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

	input := make([]float64, 200_000) // a 1.6 MB request
	ctx := context.Background()
	fired := make(chan error, 1)
	for name, call := range map[string]func() error{
		"Predict": func() error {
			_, err := conn.Predict(ctx, "app", "", input)
			return err
		},
		"Feedback": func() error { return conn.Feedback(ctx, "app", "", 1, input) },
		"Go": func() error {
			conn.Go("app", "", input, func(_ gateway.PredictResult, err error) { fired <- err })
			return <-fired
		},
	} {
		if err := call(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 8; i++ {
			if bp := reqPool.Get().(*[]byte); cap(*bp) > 1<<20 {
				t.Fatalf("%s left a %d-byte buffer in reqPool, above the 1 MiB cap", name, cap(*bp))
			}
		}
	}
}
