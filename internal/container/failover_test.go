package container_test

// Connection-pool failover through the full stack: a batching.Queue
// dispatching pipelined batches to a container.Remote backed by an
// rpc.Pool, with one pooled connection killed mid-flight. The contract
// under test is the one docs/ARCHITECTURE.md states for the pipeline:
// every submitted request receives exactly one Result — batches in flight
// on the dead connection deliver error Results, batches on the surviving
// connections (and all later batches) deliver predictions — and the
// replica keeps serving throughout. Run under -race in CI.

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"clipper/internal/batching"
	"clipper/internal/container"
	"clipper/internal/rpc"
)

// killableDialer hands out in-memory connections to one container server
// and remembers them so the test can sever a specific connection.
type killableDialer struct {
	srv *rpc.Server

	mu    sync.Mutex
	conns []net.Conn
}

func (d *killableDialer) dial() (io.ReadWriteCloser, error) {
	cli, srv := net.Pipe()
	go d.srv.ServeConn(srv)
	d.mu.Lock()
	d.conns = append(d.conns, cli)
	d.mu.Unlock()
	return cli, nil
}

func (d *killableDialer) kill(i int) {
	d.mu.Lock()
	c := d.conns[i]
	d.mu.Unlock()
	c.Close()
}

func TestPooledConnFailureDrainsWindow(t *testing.T) {
	// A slow-ish container so several batches are genuinely in flight
	// (InFlight 4 over 3 connections) when the connection dies.
	pred := container.NewFunc(container.Info{Name: "slow", Version: 1},
		func(xs [][]float64) ([]container.Prediction, error) {
			time.Sleep(time.Millisecond)
			out := make([]container.Prediction, len(xs))
			for i, x := range xs {
				out[i] = container.Prediction{Label: int(x[0])}
			}
			return out, nil
		})
	d := &killableDialer{srv: rpc.NewServer(container.Handler(pred))}
	defer d.srv.Close()

	remote, err := container.NewRemotePool(d.dial, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	q := batching.NewQueue(remote, batching.QueueConfig{
		Controller: batching.NewFixed(4),
		InFlight:   4,
	})
	defer q.Close()

	const (
		submitters = 8
		perWorker  = 50
		total      = submitters * perWorker
	)
	type outcome struct {
		results int // Results received for this request (must end up 1)
		err     error
	}
	var (
		mu        sync.Mutex
		delivered int // total Results received, exactly one per request
		failed    int // Results carrying an error (dead-conn batches)
		lastOKAt  int // submission index of the latest successful Result
		submitted int
	)

	var wg sync.WaitGroup
	killOnce := sync.Once{}
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				mu.Lock()
				idx := submitted
				submitted++
				mu.Unlock()
				// Sever connection 0 mid-run, while batches are in flight.
				if idx == total/3 {
					killOnce.Do(func() { d.kill(0) })
				}
				tk, err := q.SubmitTicket(context.Background(), "", []float64{float64(idx)})
				if err != nil {
					t.Errorf("submit %d: %v", idx, err)
					return
				}
				ch := tk.Done()
				var o outcome
				for res := range channelOnce(ch) {
					o.results++
					o.err = res.Err
				}
				if o.results != 1 {
					t.Errorf("request %d received %d results, want exactly 1", idx, o.results)
				}
				mu.Lock()
				delivered++
				if o.err != nil {
					failed++
				} else if idx > lastOKAt {
					lastOKAt = idx
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if delivered != total {
		t.Fatalf("delivered %d results for %d requests", delivered, total)
	}
	// The window drained onto the survivors: requests submitted after the
	// kill point still succeeded (the pool is 3-wide, so losing one
	// connection must not take the replica down).
	if lastOKAt <= total/3 {
		t.Fatalf("no successful results after the kill at index %d (last success %d)",
			total/3, lastOKAt)
	}
	if failed == total {
		t.Fatal("every request failed — the pool never failed over")
	}
	t.Logf("total=%d failed=%d lastOK=%d", total, failed, lastOKAt)

	// And the replica is still fully live afterwards.
	if _, err := q.Submit(context.Background(), []float64{1}); err != nil {
		t.Fatalf("post-failover submit: %v", err)
	}
}

// channelOnce adapts the result channel for a bounded range: it forwards
// everything the queue delivers until the buffered channel would block
// forever, guarding the exactly-one-Result assertion against both zero and
// duplicate deliveries.
func channelOnce(ch <-chan batching.Result) <-chan batching.Result {
	out := make(chan batching.Result)
	go func() {
		defer close(out)
		// First result must arrive (or the queue broke its contract and
		// the test times out — acceptable failure mode for a test).
		res, ok := <-ch
		if !ok {
			return
		}
		out <- res
		// A short grace window catches erroneous duplicate deliveries.
		select {
		case res, ok := <-ch:
			if ok {
				out <- res
			}
		case <-time.After(100 * time.Microsecond):
		}
	}()
	return out
}
