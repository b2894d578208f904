package workload

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"clipper/internal/kick"
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
	// processDiurnal modulates the rate sinusoidally around Rate by
	// diurnalAmp, one period per Duration: the day/night swing of
	// user-facing serving workloads compressed into the run.
	processDiurnal = "diurnal"
	// processFlash multiplies the rate by flashX over the run's middle
	// third: a flash crowd arriving on top of steady traffic.
	processFlash = "flash"
)

const (
	// diurnalAmp is the diurnal sinusoid's amplitude as a fraction of Rate.
	diurnalAmp = 0.5
	// flashX is the flash crowd's rate multiplier.
	flashX = 4
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
}

func (cfg *OpenLoopConfig) defaults() {
	if cfg.Process == "" {
		cfg.Process = processPoisson
	}
	if cfg.Users <= 0 {
		cfg.Users = 1000
	}
}

// flashWindow returns the flash crowd's start and end offsets.
func (cfg *OpenLoopConfig) flashWindow() (start, end time.Duration) {
	return cfg.Duration / 3, 2 * (cfg.Duration / 3)
}

// rateAt returns the instantaneous rate at elapsed time t.
func (cfg *OpenLoopConfig) rateAt(t time.Duration) float64 {
	switch cfg.Process {
	case processDiurnal:
		phase := 2 * math.Pi * float64(t) / float64(cfg.Duration)
		return cfg.Rate * (1 + diurnalAmp*math.Sin(phase))
	case processFlash:
		if start, end := cfg.flashWindow(); t >= start && t < end {
			return cfg.Rate * flashX
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
		return cfg.Rate * (1 + diurnalAmp)
	case processFlash:
		return cfg.Rate * flashX
	default:
		return cfg.Rate
	}
}

// arrivals generates cfg's arrival schedule: it calls emit with each
// arrival's offset from the start of the run and its Zipf-popular user
// ID, in order, until Duration or until emit returns false.
// Non-homogeneous processes use thinning: candidates arrive at the peak
// rate and are kept with probability rate(t)/peak, which samples an exact
// non-homogeneous Poisson process without inverting its rate integral.
// The schedule follows from cfg alone, never from the clock.
func (cfg *OpenLoopConfig) arrivals(emit func(at time.Duration, user int) bool) {
	peak := cfg.peakRate()
	rng := rand.New(rand.NewSource(cfg.Seed))
	users := NewZipf(cfg.Users, cfg.ZipfS, cfg.Seed+1)
	for at := time.Duration(0); at < cfg.Duration; at += time.Duration(rng.ExpFloat64() / peak * float64(time.Second)) {
		if accept := cfg.rateAt(at) / peak; accept >= 1 || rng.Float64() < accept {
			if !emit(at, users.Rank()) {
				return
			}
		}
	}
}

// runOpenLoopProcess paces cfg's arrivals, invoking fn on its own
// goroutine per arrival with the arrival's user ID. Arrivals are paced
// against absolute targets from the start, so sleep overshoot does not
// depress the offered rate. Returns the number of issued arrivals after
// all in-flight fns finish.
func runOpenLoopProcess(ctx context.Context, cfg OpenLoopConfig, fn func(user int)) int {
	cfg.defaults()
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return 0
	}
	start := time.Now()
	var wg sync.WaitGroup
	issued := 0
	cfg.arrivals(func(at time.Duration, user int) bool {
		if ctx.Err() != nil {
			return false
		}
		kick.SleepUntil(start.Add(at))
		wg.Add(1)
		issued++
		go func() {
			defer wg.Done()
			fn(user)
		}()
		return true
	})
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
	// Latency mean and quantiles over successful calls.
	Mean, P50, P95, P99, P999 time.Duration
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
		Mean:      time.Duration(hist.Mean() * float64(time.Second)),
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
