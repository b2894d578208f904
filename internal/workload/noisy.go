package workload

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"clipper/internal/dataset"
)

// Noisy-neighbor scenario: two tenants sharing one serving system. The
// heavy tenant is a closed-loop fleet hammering Zipf-popular queries as
// fast as the system answers; the quiet tenant is a low-rate open-loop
// stream of latency-sensitive queries. Under strict FIFO the quiet
// tenant's latency is whatever backlog the heavy tenant has built;
// under weighted fair batching plus SLO admission it should stay near
// its solo latency. The tagged QoS integration test
// (internal/integration, TestNoisyNeighborQoS) drives this scenario.

// The scenario's shape: the heavy tenant's closed-loop client count, the
// quiet tenant's Poisson arrival rate (queries/second), the run's length,
// and the seed of both samplers and the quiet tenant's arrivals. The
// heavy tenant's popularity skew is the Zipf default (1.2).
const (
	noisyHeavyWorkers = 128
	noisyQuietRate    = 50
	noisyDuration     = 1500 * time.Millisecond
	noisySeed         = 3
)

// NoisyNeighbor runs both tenants concurrently against whatever serving
// paths the callbacks close over: heavy is called once per heavy-tenant
// query (closed loop, Zipf-skewed inputs), quiet once per quiet-tenant
// query (open loop, uniform inputs). It returns each tenant's issued query
// count after both loops drain.
func NoisyNeighbor(ctx context.Context, ds *dataset.Dataset, heavy, quiet func(Sample)) (heavyIssued, quietIssued int) {
	hs := NewZipfSampler(ds, 0, noisySeed)
	qs := newUniformSampler(ds, noisySeed+1)

	runCtx, cancel := context.WithTimeout(ctx, noisyDuration)
	defer cancel()

	var heavyN atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runClosedLoop(runCtx, noisyHeavyWorkers, 0, func(int) {
			heavyN.Add(1)
			heavy(hs.Next())
		})
	}()
	quietIssued = runOpenLoopProcess(runCtx, OpenLoopConfig{Rate: noisyQuietRate, Duration: noisyDuration, Seed: noisySeed + 2}, func(int) {
		quiet(qs.Next())
	})
	cancel() // quiet tenant done: release the heavy fleet
	wg.Wait()
	return int(heavyN.Load()), quietIssued
}
