package batching_test

// BenchmarkPoolPipeline measures what the RPC connection pool buys on
// transfer-bound links, end to end: a batching.Queue with a pipelined
// dispatch window feeding a container.Remote whose pooled connections each
// cross their own bandwidth-limited simulated link.
//
// The per-connection limiter models single-stream throughput limits on
// high-bandwidth networks (one TCP stream rarely fills a fat pipe; N
// streams scale until the NIC saturates). Over one connection, concurrent
// batch frames head-of-line-block behind each other's writes no matter how
// large the InFlight window is; with Conns > 1 the window's batches
// transfer in parallel, so throughput scales with min(InFlight, Conns)
// until compute binds. The sub-benchmarks are that InFlight×Conns matrix.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"clipper/internal/batching"
	"clipper/internal/container"
	"clipper/internal/rpc"
	"clipper/internal/simnet"
)

// transferBoundRemote builds a Remote with conns pooled connections, each
// crossing its own fresh 1 Gbps simulated link to a shared container whose
// compute is much cheaper than one batch's transfer time.
func transferBoundRemote(tb testing.TB, conns int) (*container.Remote, func()) {
	tb.Helper()
	pred := container.NewFunc(container.Info{Name: "xfer", Version: 1},
		func(xs [][]float64) ([]container.Prediction, error) {
			time.Sleep(100 * time.Microsecond) // compute ≪ transfer
			out := make([]container.Prediction, len(xs))
			for i := range xs {
				out[i] = container.Prediction{Label: i}
			}
			return out, nil
		})
	srv := rpc.NewServer(container.Handler(pred))
	dial := func() (io.ReadWriteCloser, error) {
		// A fabric per connection: the limiter caps each stream
		// independently, like per-stream TCP throughput on a fat pipe.
		fabric := simnet.NewFabric(simnet.Gbps(1), 20*time.Microsecond)
		nodeEnd, contEnd := fabric.NewLink()
		go srv.ServeConn(contEnd)
		return nodeEnd, nil
	}
	remote, err := container.NewRemotePool(dial, conns)
	if err != nil {
		tb.Fatal(err)
	}
	return remote, func() {
		remote.Close()
		srv.Close()
	}
}

// benchDim makes one batch (16 queries) carry ~128 KB — about 1 ms of
// wire time per connection at 1 Gbps, 10× the container's compute.
const (
	benchDim   = 1024
	benchBatch = 16
)

func BenchmarkPoolPipeline(b *testing.B) {
	for _, cfg := range []struct{ inFlight, conns int }{
		{1, 1}, // serial dispatch, single connection: the seed behavior
		{4, 1}, // pipelined window, but every frame shares one wire
		{4, 2},
		{4, 4}, // window and wire parallelism matched
	} {
		b.Run(fmt.Sprintf("InFlight%d/Conns%d", cfg.inFlight, cfg.conns), func(b *testing.B) {
			remote, stop := transferBoundRemote(b, cfg.conns)
			defer stop()
			q := batching.NewQueue(remote, batching.QueueConfig{
				Controller: batching.NewFixed(benchBatch),
				InFlight:   cfg.inFlight,
			})
			defer q.Close()

			const submitters = 128
			work := make(chan int, submitters)
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					x := make([]float64, benchDim)
					for i := range work {
						x[0] = float64(i)
						if _, err := q.Submit(context.Background(), x); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}

			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work <- i
			}
			close(work)
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "qps")
		})
	}
}
