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

// NoisyNeighborConfig parameterizes the scenario. Zero values select
// defaults.
type NoisyNeighborConfig struct {
	// HeavyWorkers is the heavy tenant's closed-loop client count; 0
	// selects 64.
	HeavyWorkers int
	// QuietRate is the quiet tenant's open-loop arrival rate in queries
	// per second (Poisson gaps); 0 selects 40.
	QuietRate float64
	// Duration bounds the run; 0 selects 2s.
	Duration time.Duration
	// ZipfS is the heavy tenant's popularity skew exponent; values <= 1
	// select 1.2.
	ZipfS float64
	// Seed drives both samplers and the quiet tenant's arrival process.
	Seed int64
}

func (c NoisyNeighborConfig) heavyWorkers() int {
	if c.HeavyWorkers <= 0 {
		return 64
	}
	return c.HeavyWorkers
}

func (c NoisyNeighborConfig) quietRate() float64 {
	if c.QuietRate <= 0 {
		return 40
	}
	return c.QuietRate
}

func (c NoisyNeighborConfig) duration() time.Duration {
	if c.Duration <= 0 {
		return 2 * time.Second
	}
	return c.Duration
}

// NoisyNeighbor runs both tenants concurrently against whatever serving
// paths the callbacks close over: heavy is called once per heavy-tenant
// query (closed loop, Zipf-skewed inputs), quiet once per quiet-tenant
// query (open loop, uniform inputs). It returns each tenant's issued
// query count after both loops drain.
func NoisyNeighbor(ctx context.Context, ds *dataset.Dataset, cfg NoisyNeighborConfig, heavy, quiet func(Sample)) (heavyIssued, quietIssued int) {
	hs := NewZipfSampler(ds, cfg.ZipfS, cfg.Seed)
	qs := newUniformSampler(ds, cfg.Seed+1)

	runCtx, cancel := context.WithTimeout(ctx, cfg.duration())
	defer cancel()

	var heavyN atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		RunClosedLoop(runCtx, cfg.heavyWorkers(), 0, func(int) {
			heavyN.Add(1)
			heavy(hs.Next())
		})
	}()
	quietIssued = RunOpenLoop(runCtx, cfg.quietRate(), cfg.duration(), cfg.Seed+2, func() {
		quiet(qs.Next())
	})
	cancel() // quiet tenant done: release the heavy fleet
	wg.Wait()
	return int(heavyN.Load()), quietIssued
}
