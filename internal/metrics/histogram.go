// Package metrics provides the measurement primitives used throughout the
// Clipper reproduction: sampling histograms with quantile estimation,
// throughput meters, counters, and sliding windows.
//
// Every latency and throughput figure in the paper's evaluation is computed
// from these primitives, so they are deliberately simple, allocation-light,
// and safe for concurrent use.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Histogram is a reservoir-sampling histogram of float64 observations.
// It keeps an exact count, sum, min and max, and a bounded uniform sample
// from which quantiles are estimated (Vitter's Algorithm R).
//
// The zero value is not usable; construct with NewHistogram.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	rng     *rand.Rand
	count   int64
	sum     float64
	min     float64
	max     float64
	cap     int
}

// DefaultReservoirSize is the sample capacity used by NewHistogram.
const DefaultReservoirSize = 4096

// NewHistogram returns a histogram with the default reservoir size.
func NewHistogram() *Histogram {
	return NewHistogramSize(DefaultReservoirSize)
}

// NewHistogramSize returns a histogram whose reservoir holds up to size
// samples. Larger reservoirs give more accurate tail quantiles at the cost
// of memory.
func NewHistogramSize(size int) *Histogram {
	if size <= 0 {
		size = DefaultReservoirSize
	}
	return &Histogram{
		samples: make([]float64, 0, size),
		rng:     rand.New(rand.NewSource(42)),
		min:     math.Inf(1),
		max:     math.Inf(-1),
		cap:     size,
	}
}

// Observe records a single observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, v)
		return
	}
	// Algorithm R: replace a random element with probability cap/count.
	if j := h.rng.Int63n(h.count); j < int64(h.cap) {
		h.samples[j] = v
	}
}

// ObserveDuration records a duration observation in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count returns the number of observations recorded.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean of all observations, or 0 with no data.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the q-th quantile (0 <= q <= 1) from the reservoir
// using linear interpolation between order statistics. Returns 0 with no
// data.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return quantileOf(h.samples, q)
}

// Quantiles estimates several quantiles in one pass, which is cheaper than
// repeated Quantile calls because the sample is sorted once.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return make([]float64, len(qs))
	}
	sorted := append([]float64(nil), h.samples...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

// P99 returns the estimated 99th percentile.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Reset discards all recorded observations.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = h.samples[:0]
	h.count = 0
	h.sum = 0
	h.min = math.Inf(1)
	h.max = math.Inf(-1)
}

// Snapshot returns an immutable copy of the histogram's summary statistics.
func (h *Histogram) Snapshot() Summary {
	h.mu.Lock()
	sorted := append([]float64(nil), h.samples...)
	count, sum := h.count, h.sum
	min, max := h.min, h.max
	h.mu.Unlock()

	sort.Float64s(sorted)
	s := Summary{Count: count, Sum: sum}
	if count > 0 {
		s.Min, s.Max, s.Mean = min, max, sum/float64(count)
	}
	if len(sorted) > 0 {
		s.P50 = quantileSorted(sorted, 0.50)
		s.P95 = quantileSorted(sorted, 0.95)
		s.P99 = quantileSorted(sorted, 0.99)
	}
	return s
}

// Summary holds a point-in-time digest of a histogram.
type Summary struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
	Mean  float64
	P50   float64
	P95   float64
	P99   float64
}

// String renders the summary assuming the observations are seconds,
// formatting them in milliseconds as the paper's figures do.
func (s Summary) String() string {
	return fmt.Sprintf("count=%d mean=%.3fms p50=%.3fms p99=%.3fms max=%.3fms",
		s.Count, s.Mean*1e3, s.P50*1e3, s.P99*1e3, s.Max*1e3)
}

func quantileOf(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
