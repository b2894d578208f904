package stream

// Pipelining semantics under -race: out-of-order completion on one
// connection, exactly-one callback per correlation ID under concurrency,
// and exactly-one callback (with an error) when the connection dies
// mid-stream from either side.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clipper/internal/batching"
	"clipper/internal/container"
	"clipper/internal/core"
	"clipper/internal/gateway"
	"clipper/internal/rpc"
	"clipper/internal/selection"
)

type fixedModel struct {
	name  string
	label int
	delay time.Duration
}

func (f *fixedModel) Info() container.Info {
	return container.Info{Name: f.name, Version: 1, NumClasses: 10}
}

func (f *fixedModel) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	out := make([]container.Prediction, len(xs))
	for i := range out {
		out[i] = container.Prediction{Label: f.label}
	}
	return out, nil
}

// newNode returns a node with a "fast" app and a "slow" app (40ms model).
func newNode(t *testing.T) *core.Clipper {
	t.Helper()
	cl := core.New(core.Config{})
	t.Cleanup(cl.Close)
	if _, err := cl.Deploy(&fixedModel{name: "quick", label: 1}, nil,
		batching.QueueConfig{Controller: batching.NewFixed(8)}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Deploy(&fixedModel{name: "pokey", label: 2, delay: 40 * time.Millisecond}, nil,
		batching.QueueConfig{Controller: batching.NewFixed(8)}); err != nil {
		t.Fatal(err)
	}
	for app, model := range map[string]string{"fast": "quick", "slow": "pokey"} {
		if _, err := cl.RegisterApp(core.AppConfig{
			Name: app, Models: []string{model}, Policy: selection.NewStatic(0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

// newStreamNode serves newNode's apps on one stream server and returns a
// connected client.
func newStreamNode(t *testing.T) (*Server, *Conn) {
	t.Helper()
	srv := NewServer(newNode(t))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return srv, conn
}

// predictSlow starts a blocking predict on the slow app over conn and
// returns where its outcome lands: the Call path, in flight beside Go's.
func predictSlow(conn *Conn) <-chan error {
	ch := make(chan error, 1)
	go func() {
		_, err := conn.Predict(context.Background(), "slow", "", []float64{-1})
		ch <- err
	}()
	return ch
}

// TestOutOfOrderCompletion: a fast predict issued after a slow one on
// the same connection completes first — responses are not serialized in
// request order.
func TestOutOfOrderCompletion(t *testing.T) {
	_, conn := newStreamNode(t)

	type done struct {
		app string
		err error
	}
	order := make(chan done, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	conn.Go("slow", "", []float64{1}, func(res gateway.PredictResult, err error) {
		order <- done{"slow", err}
		wg.Done()
	})
	conn.Go("fast", "", []float64{2}, func(res gateway.PredictResult, err error) {
		order <- done{"fast", err}
		wg.Done()
	})
	wg.Wait()
	first, second := <-order, <-order
	if first.err != nil || second.err != nil {
		t.Fatalf("errors: %v, %v", first.err, second.err)
	}
	if first.app != "fast" || second.app != "slow" {
		t.Fatalf("completion order = %s, %s; want fast overtaking slow", first.app, second.app)
	}
}

// TestExactlyOncePipelined: N concurrent predicts on one connection each
// get exactly one callback with the right answer.
func TestExactlyOncePipelined(t *testing.T) {
	_, conn := newStreamNode(t)

	const n = 128
	counts := make([]atomic.Int32, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			conn.Go("fast", "", []float64{float64(i)}, func(res gateway.PredictResult, err error) {
				defer wg.Done()
				counts[i].Add(1)
				if err != nil {
					t.Errorf("predict %d: %v", i, err)
				} else if res.Label != 1 {
					t.Errorf("predict %d: label %d", i, res.Label)
				}
			})
		}(i)
	}
	wg.Wait()
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("predict %d: %d callbacks, want exactly 1", i, c)
		}
	}
}

// TestServerKillMidStream: the server force-closes connections (expired
// drain context) while pipelined predicts and a blocking one are in
// flight; every outstanding correlation ID still gets exactly one
// callback, and the blocking predict its error.
func TestServerKillMidStream(t *testing.T) {
	srv, conn := newStreamNode(t)

	const n = 8
	counts := make([]atomic.Int32, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		conn.Go("slow", "", []float64{float64(i)}, func(res gateway.PredictResult, err error) {
			counts[i].Add(1)
			wg.Done()
		})
	}
	blocked := predictSlow(conn)
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired drain window: force-close now
	srv.Shutdown(ctx)
	wg.Wait()
	if err := <-blocked; err == nil {
		t.Fatal("blocking predict in flight at the kill succeeded")
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("predict %d: %d callbacks, want exactly 1", i, c)
		}
	}
	select {
	case <-conn.Done():
	case <-time.After(time.Second):
		t.Fatal("connection did not report death")
	}
	if conn.Err() == nil {
		t.Fatal("Err() = nil after kill")
	}
}

// TestClientCloseMidStream: Close from the client side fires every
// pending callback exactly once with rpc.ErrClientClosed — the blocking
// predict in flight included — and later calls fail immediately.
func TestClientCloseMidStream(t *testing.T) {
	_, conn := newStreamNode(t)

	const n = 4
	counts := make([]atomic.Int32, n)
	var errs atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		conn.Go("slow", "", []float64{float64(i)}, func(res gateway.PredictResult, err error) {
			counts[i].Add(1)
			if errors.Is(err, rpc.ErrClientClosed) {
				errs.Add(1)
			}
			wg.Done()
		})
	}
	blocked := predictSlow(conn)
	time.Sleep(5 * time.Millisecond)
	conn.Close()
	wg.Wait()
	if err := <-blocked; !errors.Is(err, rpc.ErrClientClosed) {
		t.Fatalf("blocking predict in flight at Close = %v, want rpc.ErrClientClosed", err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("predict %d: %d callbacks, want exactly 1", i, c)
		}
	}
	if errs.Load() != n {
		t.Fatalf("%d callbacks saw rpc.ErrClientClosed, want %d (client closed before any response)", errs.Load(), n)
	}
	if _, err := conn.Predict(context.Background(), "fast", "", []float64{1}); err == nil {
		t.Fatal("Predict on closed conn succeeded")
	}
}
