package workload

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"clipper/internal/frameworks"
	"clipper/internal/metrics"
)

// Open-loop load generation at a fixed offered rate: arrivals are a
// (possibly non-homogeneous) Poisson process that never waits for
// completions, so a slow server accumulates in-flight work instead of
// silently lowering the measured rate — the methodology behind the
// paper's latency/throughput curves, where closed-loop generators hide
// queueing collapse.

// Arrival processes for OpenLoopConfig.Process.
const (
	// processPoisson is a constant-rate Poisson process.
	processPoisson = "poisson"
	// processDiurnal modulates the rate sinusoidally around Rate —
	// the day/night swing of user-facing serving workloads.
	processDiurnal = "diurnal"
	// processFlash multiplies the rate by FlashX during a mid-run
	// window — a flash crowd arriving on top of steady traffic.
	processFlash = "flash"
)

// OpenLoopConfig describes an open-loop arrival process over a user
// population.
type OpenLoopConfig struct {
	// Process selects the arrival process; empty selects processPoisson.
	Process string
	// Rate is the mean offered rate in queries/second.
	Rate float64
	// Duration is the generation window.
	Duration time.Duration
	// Seed seeds arrivals and user sampling.
	Seed int64
	// Users is the user population size; each arrival is attributed to a
	// Zipf-popular user ID in [0, Users), giving per-user cache locality
	// (hot users re-query). 0 selects 1000.
	Users int
	// ZipfS is the user popularity skew; values <= 1 select 1.2.
	ZipfS float64

	// DiurnalAmp is the sinusoid's amplitude as a fraction of Rate
	// (0 < amp <= 1); 0 selects 0.5. Diurnal only.
	DiurnalAmp float64
	// DiurnalPeriod is the sinusoid's period; 0 selects Duration, one
	// full day compressed into the run. Diurnal only.
	DiurnalPeriod time.Duration

	// FlashX is the flash-crowd rate multiplier; values <= 1 select 4.
	// Flash only.
	FlashX float64
	// FlashStart is the crowd's arrival offset; 0 selects Duration/3.
	FlashStart time.Duration
	// FlashDur is how long the crowd stays; 0 selects Duration/3.
	FlashDur time.Duration
}

func (cfg *OpenLoopConfig) defaults() {
	if cfg.Process == "" {
		cfg.Process = processPoisson
	}
	if cfg.Users <= 0 {
		cfg.Users = 1000
	}
	if cfg.DiurnalAmp <= 0 || cfg.DiurnalAmp > 1 {
		cfg.DiurnalAmp = 0.5
	}
	if cfg.DiurnalPeriod <= 0 {
		cfg.DiurnalPeriod = cfg.Duration
	}
	if cfg.FlashX <= 1 {
		cfg.FlashX = 4
	}
	if cfg.FlashStart <= 0 {
		cfg.FlashStart = cfg.Duration / 3
	}
	if cfg.FlashDur <= 0 {
		cfg.FlashDur = cfg.Duration / 3
	}
}

// rateAt returns the instantaneous rate at elapsed time t.
func (cfg *OpenLoopConfig) rateAt(t time.Duration) float64 {
	switch cfg.Process {
	case processDiurnal:
		phase := 2 * math.Pi * float64(t) / float64(cfg.DiurnalPeriod)
		return cfg.Rate * (1 + cfg.DiurnalAmp*math.Sin(phase))
	case processFlash:
		if t >= cfg.FlashStart && t < cfg.FlashStart+cfg.FlashDur {
			return cfg.Rate * cfg.FlashX
		}
		return cfg.Rate
	default:
		return cfg.Rate
	}
}

// peakRate returns the process's maximum instantaneous rate, the
// thinning envelope.
func (cfg *OpenLoopConfig) peakRate() float64 {
	switch cfg.Process {
	case processDiurnal:
		return cfg.Rate * (1 + cfg.DiurnalAmp)
	case processFlash:
		return cfg.Rate * cfg.FlashX
	default:
		return cfg.Rate
	}
}

// runOpenLoopProcess generates arrivals for cfg, invoking fn on its own
// goroutine per arrival with the arrival's Zipf-popular user ID.
// Non-homogeneous processes use thinning: candidates arrive at the peak
// rate and are kept with probability rate(t)/peak, which samples an
// exact non-homogeneous Poisson process without inverting its rate
// integral. Arrivals are paced against absolute wall-clock targets so
// sleep overshoot does not depress the offered rate. Returns the number
// of issued arrivals after all in-flight fns finish.
func runOpenLoopProcess(ctx context.Context, cfg OpenLoopConfig, fn func(user int)) int {
	cfg.defaults()
	peak := cfg.peakRate()
	if cfg.Rate <= 0 || peak <= 0 || cfg.Duration <= 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	users := NewZipf(cfg.Users, cfg.ZipfS, cfg.Seed+1)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	next := start
	var wg sync.WaitGroup
	issued := 0
	for next.Before(deadline) {
		select {
		case <-ctx.Done():
			wg.Wait()
			return issued
		default:
		}
		if wait := time.Until(next); wait > 0 {
			frameworks.Sleep(wait)
		}
		t := next.Sub(start)
		if accept := cfg.rateAt(t) / peak; accept >= 1 || rng.Float64() < accept {
			user := users.Rank()
			wg.Add(1)
			issued++
			go func() {
				defer wg.Done()
				fn(user)
			}()
		}
		next = next.Add(time.Duration(rng.ExpFloat64() / peak * float64(time.Second)))
	}
	wg.Wait()
	return issued
}

// OpenLoopResult summarizes one measured open-loop run.
type OpenLoopResult struct {
	// Issued counts arrivals; Completed those whose call returned nil;
	// Errors the rest.
	Issued    int
	Completed int
	Errors    int
	// OfferedQPS is Issued over the run's wall clock (which extends past
	// Duration while stragglers finish); QPS is Completed over the same.
	OfferedQPS float64
	QPS        float64
	// Latency quantiles over successful calls.
	P50, P95, P99, P999 time.Duration
}

// MeasureOpenLoop runs cfg's arrival process against call and measures
// per-arrival latency at the offered load. call receives the arrival's
// user ID; a non-nil return counts as an error and is excluded from the
// latency quantiles.
func MeasureOpenLoop(ctx context.Context, cfg OpenLoopConfig, call func(user int) error) OpenLoopResult {
	var hist metrics.Histogram
	var failed atomic.Int64
	start := time.Now()
	issued := runOpenLoopProcess(ctx, cfg, func(user int) {
		t0 := time.Now()
		if err := call(user); err != nil {
			failed.Add(1)
			return
		}
		hist.ObserveDuration(time.Since(t0))
	})
	elapsed := time.Since(start).Seconds()
	q := func(p float64) time.Duration { return time.Duration(hist.Quantile(p) * float64(time.Second)) }
	res := OpenLoopResult{
		Issued:    issued,
		Completed: int(hist.Count()),
		Errors:    int(failed.Load()),
		P50:       q(0.50),
		P95:       q(0.95),
		P99:       q(0.99),
		P999:      q(0.999),
	}
	if elapsed > 0 {
		res.OfferedQPS = float64(issued) / elapsed
		res.QPS = float64(res.Completed) / elapsed
	}
	return res
}
