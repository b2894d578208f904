package rpc_test

// The client-facing adapters serve through rpc.Server, so the lease
// contract — every request frame released once, every response scratch
// recycled once — and its counters cover them too. These tests drive the
// stream adapter through the two ways a connection dies under in-flight
// requests, and through quick predicts sharing a connection with slow
// ones, and require both counters back at baseline.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clipper/internal/adapter/stream"
	"clipper/internal/batching"
	"clipper/internal/container"
	"clipper/internal/core"
	"clipper/internal/gateway"
	"clipper/internal/rpc"
	"clipper/internal/selection"
)

// newSlowStream serves "app" over a model that takes 30ms per batch, so
// requests are reliably in flight when the connection is cut, and
// "quick" over an instant model.
func newSlowStream(t *testing.T) (*stream.Server, *stream.Conn) {
	t.Helper()
	cl := core.New(core.Config{})
	t.Cleanup(cl.Close)
	quick := container.NewFunc(container.Info{Name: "quick", Version: 1, NumClasses: 2},
		func(xs [][]float64) ([]container.Prediction, error) {
			return make([]container.Prediction, len(xs)), nil
		})
	if _, err := cl.Deploy(quick, nil, batching.QueueConfig{Controller: batching.NewFixed(8)}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RegisterApp(core.AppConfig{Name: "quick", Models: []string{"quick"}, Policy: selection.NewStatic(0)}); err != nil {
		t.Fatal(err)
	}
	slow := container.NewFunc(container.Info{Name: "slow", Version: 1, NumClasses: 2},
		func(xs [][]float64) ([]container.Prediction, error) {
			time.Sleep(30 * time.Millisecond)
			return make([]container.Prediction, len(xs)), nil
		})
	if _, err := cl.Deploy(slow, nil, batching.QueueConfig{Controller: batching.NewFixed(8)}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RegisterApp(core.AppConfig{Name: "app", Models: []string{"slow"}, Policy: selection.NewStatic(0)}); err != nil {
		t.Fatal(err)
	}
	srv := stream.NewServer(cl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := stream.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return srv, conn
}

// inFlight pipelines n predicts and returns a wait for their callbacks.
func inFlight(conn *stream.Conn, n int) (wait func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		conn.Go("app", "", []float64{float64(i)}, func(gateway.PredictResult, error) { wg.Done() })
	}
	time.Sleep(5 * time.Millisecond) // let the server read them
	return wg.Wait
}

func settle(t *testing.T, what string, load func() int64, base int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for load() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s never drained: %d active, baseline %d", what, load(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamClientKilledMidResponse: the client vanishes while the server
// is computing its responses; their writes meet a dead connection.
func TestStreamClientKilledMidResponse(t *testing.T) {
	leases, bufs := rpc.ActiveLeases(), rpc.ActiveRespBufs()
	_, conn := newSlowStream(t)
	wait := inFlight(conn, 8)
	conn.Close()
	wait()
	settle(t, "request leases", rpc.ActiveLeases, leases)
	settle(t, "response bufs", rpc.ActiveRespBufs, bufs)
}

// TestStreamShutdownExpiredContext: Shutdown with no drain window closes
// connections under their handlers and reports the context's error.
func TestStreamShutdownExpiredContext(t *testing.T) {
	leases, bufs := rpc.ActiveLeases(), rpc.ActiveRespBufs()
	srv, conn := newSlowStream(t)
	wait := inFlight(conn, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}
	wait()
	settle(t, "request leases", rpc.ActiveLeases, leases)
	settle(t, "response bufs", rpc.ActiveRespBufs, bufs)
}

// TestSlowPredictsDoNotBlockPipeline: quick predicts share one
// connection with slow ones and are held up by none of them. Behind 64
// predicts on the slow model go 64 predicts on the quick model; every
// quick predict finishes before the last slow predict, and every
// callback fires exactly once.
func TestSlowPredictsDoNotBlockPipeline(t *testing.T) {
	leases, bufs := rpc.ActiveLeases(), rpc.ActiveRespBufs()
	_, conn := newSlowStream(t)

	const n = 64
	var seq atomic.Int64 // completion order
	var slowDone, quickDone [n]atomic.Int64
	var fired [2 * n]atomic.Int32
	var wg sync.WaitGroup
	predicts := func(app string, base int, done *[n]atomic.Int64) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			conn.Go(app, "", []float64{float64(base + i)}, func(_ gateway.PredictResult, err error) {
				if err != nil {
					t.Errorf("%s predict %d: %v", app, i, err)
				}
				fired[base+i].Add(1)
				done[i].Store(seq.Add(1))
				wg.Done()
			})
		}
	}
	predicts("app", 0, &slowDone)
	predicts("quick", n, &quickDone)
	wg.Wait()

	var lastQuick, lastSlow int64
	for i := 0; i < n; i++ {
		lastQuick = max(lastQuick, quickDone[i].Load())
		lastSlow = max(lastSlow, slowDone[i].Load())
	}
	if lastQuick > lastSlow {
		t.Errorf("last quick predict finished %d-th, the last slow predict ahead of it %d-th", lastQuick, lastSlow)
	}
	for i := range fired {
		if c := fired[i].Load(); c != 1 {
			t.Errorf("predict %d: %d callbacks, want exactly 1", i, c)
		}
	}
	conn.Close()
	settle(t, "request leases", rpc.ActiveLeases, leases)
	settle(t, "response bufs", rpc.ActiveRespBufs, bufs)
}
