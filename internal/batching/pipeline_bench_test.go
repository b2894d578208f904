package batching

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clipper/internal/container"
	"clipper/internal/kick"
)

// latencyPredictor simulates a container with a fixed round-trip latency
// (network + compute) that admits concurrent batches, like a real
// container behind the multiplexing RPC client.
type latencyPredictor struct {
	latency time.Duration
}

func (p *latencyPredictor) Info() container.Info {
	return container.Info{Name: "latency", Version: 1}
}

func (p *latencyPredictor) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	time.Sleep(p.latency)
	out := make([]container.Prediction, len(xs))
	for i, x := range xs {
		out[i] = container.Prediction{Label: int(x[0])}
	}
	return out, nil
}

// BenchmarkDispatchPipeline measures queue throughput against a simulated
// 1ms-latency container with the dispatch pipeline window at 1 (the old
// serial dispatcher) and 4 (the default). Single-query batches isolate the
// dispatch overlap itself: at window 1 throughput is capped at one round
// trip per batch; at window 4 the collector keeps four batches in flight
// and throughput scales with the window.
func BenchmarkDispatchPipeline(b *testing.B) {
	for _, inFlight := range []int{1, 4} {
		b.Run(fmt.Sprintf("InFlight%d", inFlight), func(b *testing.B) {
			q := NewQueue(&latencyPredictor{latency: time.Millisecond}, QueueConfig{
				Controller: NewFixed(1),
				InFlight:   inFlight,
			})
			defer q.Close()

			const submitters = 16
			work := make(chan int, submitters)
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					x := []float64{0}
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

// laneReplica is a container that evaluates a batch of n in fixed +
// perItem·n on one of its lanes (nil = as many as it is sent).
type laneReplica struct {
	fixed, perItem time.Duration
	lanes          chan struct{}
}

func (p *laneReplica) Info() container.Info { return container.Info{Name: "lanes", Version: 1} }

func (p *laneReplica) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	if p.lanes != nil {
		p.lanes <- struct{}{}
		defer func() { <-p.lanes }()
	}
	kick.SleepUntil(time.Now().Add(p.fixed + time.Duration(len(xs))*p.perItem))
	return make([]container.Prediction, len(xs)), nil
}

// BenchmarkWindowReplicas is the measured window against the two pinned
// ones it replaced as defaults, on container shapes of the virtual-time
// tests (TestWindowSim), under 32 closed-loop callers: the measured column
// should track the better pinned one on each row, and find the 24-lane
// knee. Run with -benchtime=30000x: the window needs a few hundred batches
// to settle.
func BenchmarkWindowReplicas(b *testing.B) {
	const ms, us = time.Millisecond, time.Microsecond
	for _, r := range []struct {
		name           string
		fixed, perItem time.Duration
		lanes          int
	}{
		{"SerialFixed", 2 * ms, 30 * us, 1},
		{"SerialPerItem", 2 * ms, 400 * us, 1},
		{"FourLanes", 2 * ms, 30 * us, 4},
		{"TwentyFourLanesPerItem", 2 * ms, ms, 24},
		{"UnboundedPerItem", 2 * ms, ms, 0},
	} {
		for _, inFlight := range []int{1, 4, 0} {
			b.Run(fmt.Sprintf("%s/InFlight%d", r.name, inFlight), func(b *testing.B) {
				pred := &laneReplica{fixed: r.fixed, perItem: r.perItem}
				if r.lanes > 0 {
					pred.lanes = make(chan struct{}, r.lanes)
				}
				q := NewQueue(pred, QueueConfig{Controller: NewFixed(64), InFlight: inFlight})
				defer q.Close()
				var next atomic.Int64
				var wg sync.WaitGroup
				start := time.Now()
				for s := 0; s < 32; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						x := []float64{0}
						for next.Add(1) <= int64(b.N) {
							if _, err := q.Submit(context.Background(), x); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "qps")
				b.ReportMetric(float64(q.InFlight()), "final-window")
			})
		}
	}
}
