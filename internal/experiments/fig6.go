package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"clipper/internal/batching"
	"clipper/internal/container"
	"clipper/internal/core"
	"clipper/internal/frameworks"
	"clipper/internal/metrics"
	"clipper/internal/models"
	"clipper/internal/rpc"
	"clipper/internal/selection"
	"clipper/internal/simnet"
	"clipper/internal/workload"
)

// runFig6 reproduces Figure 6: scaling the model abstraction layer across
// a GPU cluster. One replica runs locally; additional replicas are reached
// over a simulated switch at 10 Gbps or 1 Gbps carrying the real RPC
// bytes. On the fast network aggregate throughput scales nearly linearly;
// on the slow network it plateaus once the aggregate prediction traffic
// saturates the serving node's uplink — the paper's headline observation.
func runFig6(scale Scale) (Result, error) {
	res := Result{ID: "fig6", Title: "Scaling Across a GPU Cluster (paper Figure 6)"}

	replicaCounts := []int{1, 2, 3, 4}
	dim := 1024
	warm, measure := 300*time.Millisecond, 700*time.Millisecond
	workers := 256
	if scale == Quick {
		replicaCounts = []int{1, 2, 4}
		dim = 512
		warm, measure = 150*time.Millisecond, 400*time.Millisecond
		workers = 128
	}

	for _, gbps := range []float64{10, 1} {
		res.Lines = append(res.Lines, fmt.Sprintf("network %.0f Gbps:", gbps))
		for _, n := range replicaCounts {
			agg, meanLat, p99, err := runReplicaScaling(n, gbps, dim, workers, warm, measure)
			if err != nil {
				return Result{}, err
			}
			res.Lines = append(res.Lines, fmt.Sprintf(
				"  replicas=%d  agg=%8.0f qps  mean/replica=%8.0f qps  mean-lat=%7.2f ms  p99=%7.2f ms",
				n, agg, agg/float64(n), meanLat*1e3, p99*1e3))
		}
	}
	return res, nil
}

// runReplicaScaling deploys n GPU-profile replicas (first local, rest
// across the fabric), drives a closed loop, and reports aggregate
// throughput plus latency.
func runReplicaScaling(n int, gbps float64, dim, workers int, warm, measure time.Duration) (agg, meanLat, p99 float64, err error) {
	fabric := simnet.NewFabric(simnet.Gbps(gbps), 50*time.Microsecond)
	cl := core.New(core.Config{CacheSize: -1, Scheduler: rrSched()}) // every query must hit a replica
	defer cl.Close()

	profile := frameworks.GPUDeepModel("gpu-deep", 16)
	var cleanups []func()
	defer func() {
		for _, f := range cleanups {
			f()
		}
	}()
	for i := 0; i < n; i++ {
		pred := frameworks.NewSimPredictor(models.NewNoOp("gpu-deep", 10, 0), profile, dim, int64(i+1))
		var deployed container.Predictor
		if i == 0 {
			remote, stop, lerr := container.Loopback(pred)
			if lerr != nil {
				return 0, 0, 0, lerr
			}
			cleanups = append(cleanups, stop)
			deployed = remote
		} else {
			srv := rpc.NewServer(container.Handler(pred))
			// One connection per replica: the paper's setup multiplexes
			// each replica over a single socket, and this figure
			// reproduces its scaling numbers.
			remote, rerr := container.NewRemotePool(func() (io.ReadWriteCloser, error) {
				nodeEnd, contEnd := fabric.NewLink()
				go srv.ServeConn(contEnd)
				return nodeEnd, nil
			}, 1)
			if rerr != nil {
				return 0, 0, 0, rerr
			}
			cleanups = append(cleanups, func() { remote.Close(); srv.Close() })
			deployed = remote
		}
		if _, err := cl.Deploy(deployed, nil, batching.QueueConfig{
			Controller:   batching.NewFixed(16), // GPU static batch
			BatchTimeout: 500 * time.Microsecond,
			InFlight:     1, // paper-faithful serial dispatch: the figure measures replica scaling, not pipelining
		}); err != nil {
			return 0, 0, 0, err
		}
	}

	app, err := cl.RegisterApp(core.AppConfig{
		Name: "fig6", Models: []string{"gpu-deep"}, Policy: selection.NewStatic(0),
	})
	if err != nil {
		return 0, 0, 0, err
	}

	// Pre-generate distinct inputs so serialization carries real bytes.
	rng := rand.New(rand.NewSource(9))
	pool := make([][]float64, 512)
	for i := range pool {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		pool[i] = x
	}

	lat := metrics.NewHistogram()
	var measuring atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var k atomic.Int64
		workload.RunClosedLoop(ctx, workers, 0, func(wk int) {
			i := k.Add(1)
			x := pool[(int64(wk)*7919+i)%int64(len(pool))]
			start := time.Now()
			if _, err := app.Predict(ctx, x); err != nil {
				return
			}
			if measuring.Load() {
				lat.ObserveDuration(time.Since(start))
			}
		})
	}()

	time.Sleep(warm)
	measuring.Store(true)
	time.Sleep(measure)
	measuring.Store(false)
	cancel()
	<-done

	return float64(lat.Count()) / measure.Seconds(), lat.Mean(), lat.P99(), nil
}
