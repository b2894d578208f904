// Package metrics provides the measurement primitives used throughout the
// Clipper reproduction: log-bucketed histograms with quantile estimation,
// counters, moving averages, and their Prometheus exposition.
//
// Every latency and throughput figure in the paper's evaluation is computed
// from these primitives, so they are deliberately simple, allocation-free
// on the write path, and safe for concurrent use.
package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// The bucket layout. Each power of two from 2^minExp to 2^maxExp is split
// into subBuckets equal buckets, each closed above: bucket i counts the
// values in (upper(i-1), upper(i)]. That range covers sub-µs queue delays
// in seconds, batch sizes up to the 4,096 cap and percentages up to 100.
// Bucket 0 counts everything at or below 2^minExp (0, negatives, NaN), and
// the last bucket everything above 2^maxExp.
const (
	minExp     = -30
	maxExp     = 16
	subBuckets = 16
	numBuckets = (maxExp-minExp)*subBuckets + 2
)

var lowest, highest = math.Ldexp(1, minExp), math.Ldexp(1, maxExp)

// upper returns bucket i's upper edge, for 0 <= i < numBuckets-1.
func upper(i int) float64 {
	return math.Ldexp(1+float64(i%subBuckets)/subBuckets, minExp+i/subBuckets)
}

// bucketOf returns the index of the bucket that counts v.
func bucketOf(v float64) int {
	if !(v > lowest) {
		return 0
	}
	if v > highest {
		return numBuckets - 1
	}
	// v = 2^exp × 1.m; the top four mantissa bits pick the sub-bucket, and
	// any lower bit set rounds up, since buckets are closed above.
	b := math.Float64bits(v)
	exp := int(b>>52) - 1023
	mant := b & (1<<52 - 1)
	sub := int(mant >> 48)
	if mant&(1<<48-1) != 0 {
		sub++
	}
	return (exp-minExp)*subBuckets + sub
}

// Histogram is a fixed log-bucketed histogram of float64 observations. It
// keeps an exact count and sum, and estimates a quantile to within the
// width of one bucket: 1/16 of the value, relative.
//
// The zero value is ready to use. Every field is an atomic, so Observe
// takes no lock and makes no allocation.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // math.Float64bits of the running sum
	buckets [numBuckets]atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records a single observation.
func (h *Histogram) Observe(v float64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration observation in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count returns the number of observations recorded.
func (h *Histogram) Count() int64 { return int64(h.count.Load()) }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the arithmetic mean of all observations, or 0 with no data.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-th quantile (0 <= q <= 1), interpolating
// linearly inside the bucket its rank falls in. It returns 0 with no data
// or when the rank falls in the bucket at or below the range, and 2^16
// when it falls above the range.
func (h *Histogram) Quantile(q float64) float64 {
	var c [numBuckets]uint64
	return quantile(&c, h.load(&c), q)
}

// P99 returns the estimated 99th percentile.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Reset discards all recorded observations.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// load copies the bucket counts into c and returns their total.
func (h *Histogram) load(c *[numBuckets]uint64) uint64 {
	var n uint64
	for i := range h.buckets {
		c[i] = h.buckets[i].Load()
		n += c[i]
	}
	return n
}

// quantile walks counts c, whose total is n. The rank comes from the same
// counts the walk reads, so a Reset or Observe racing the copy cannot
// leave a rank the walk never reaches.
func quantile(c *[numBuckets]uint64, n uint64, q float64) float64 {
	if n == 0 {
		return 0
	}
	rank := math.Min(math.Max(q, 0), 1) * float64(n)
	var below uint64
	for i, k := range c {
		if k == 0 || float64(below+k) < rank {
			below += k
			continue
		}
		switch i {
		case 0:
			return 0
		case numBuckets - 1:
			return highest
		}
		lo, hi := upper(i-1), upper(i)
		return lo + (hi-lo)*(rank-float64(below))/float64(k)
	}
	return highest // unreachable: the last non-empty bucket holds rank n
}

// Snapshot returns the histogram's digest, its quantiles read from one
// copy of the counts.
func (h *Histogram) Snapshot() Summary {
	var c [numBuckets]uint64
	n := h.load(&c)
	s := Summary{Count: int64(n), Sum: h.Sum()}
	if n > 0 {
		s.Mean = s.Sum / float64(n)
		s.P50, s.P99 = quantile(&c, n, 0.5), quantile(&c, n, 0.99)
	}
	return s
}

// Summary holds a point-in-time digest of a histogram.
type Summary struct {
	Count int64
	Sum   float64
	Mean  float64
	P50   float64
	P99   float64
}

// String renders the summary assuming the observations are seconds,
// formatting them in milliseconds as the paper's figures do.
func (s Summary) String() string {
	return fmt.Sprintf("count=%d mean=%.3fms p50=%.3fms p99=%.3fms",
		s.Count, s.Mean*1e3, s.P50*1e3, s.P99*1e3)
}
