package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if got := h.Sum(); got != 5050 {
		t.Fatalf("Sum = %v, want 5050", got)
	}
	if got := h.Mean(); got != 50.5 {
		t.Fatalf("Mean = %v, want 50.5", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.P99() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if s := h.Snapshot(); s != (Summary{}) {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

// TestHistogramBucketEdges pins the layout: bucket i holds (upper(i-1),
// upper(i)], so each upper edge lands in its own bucket and the next
// float above it in the next one.
func TestHistogramBucketEdges(t *testing.T) {
	for i := 1; i < numBuckets-1; i++ {
		if got := bucketOf(upper(i)); got != i {
			t.Fatalf("bucketOf(upper(%d) = %v) = %d", i, upper(i), got)
		}
		if got := bucketOf(math.Nextafter(upper(i-1), math.Inf(1))); got != i {
			t.Fatalf("bucketOf(just above upper(%d) = %v) = %d, want %d", i-1, upper(i-1), got, i)
		}
	}
	if upper(numBuckets-2) != highest || upper(0) != lowest {
		t.Fatalf("range is (%v, %v], want (%v, %v]", upper(0), upper(numBuckets-2), lowest, highest)
	}
}

// TestHistogramQuantileWithinOneBucket checks every estimate against the
// exact order statistic of a sorted copy: both lie in the same bucket, so
// they differ by less than the bucket's width, 1/16 of the value.
func TestHistogramQuantileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inputs := map[string]func() float64{
		"uniform":    func() float64 { return 1e-3 + rng.Float64()*1000 },
		"log-normal": func() float64 { return math.Exp(rng.NormFloat64()*1.5 - 6) },
		"discrete":   func() float64 { return []float64{1, 2, 3, 4, 12.5, 50, 100, 4096}[rng.Intn(8)] },
	}
	for name, draw := range inputs {
		var h Histogram
		vals := make([]float64, 20000)
		for i := range vals {
			vals[i] = draw()
			h.Observe(vals[i])
		}
		sort.Float64s(vals)
		for _, q := range []float64{0, 0.001, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			k := max(1, int(math.Ceil(q*float64(len(vals)))))
			want := vals[k-1]
			if got := h.Quantile(q); math.Abs(got-want) > want/subBuckets*(1+1e-12) {
				t.Errorf("%s: Quantile(%v) = %v, order statistic %v: off by more than 1/%d", name, q, got, want, subBuckets)
			}
		}
	}
}

// TestHistogramQuantilesBatch: Snapshot reads its quantiles from one copy
// of the counts, and they match the single-quantile path.
func TestHistogramQuantilesBatch(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.P50 != h.Quantile(0.5) || s.P99 != h.Quantile(0.99) {
		t.Fatalf("snapshot p50/p99 = %v/%v, Quantile = %v/%v", s.P50, s.P99, h.Quantile(0.5), h.Quantile(0.99))
	}
	if !(s.P50 <= h.Quantile(0.95) && h.Quantile(0.95) <= s.P99) {
		t.Fatalf("quantiles not monotone: %v %v %v", s.P50, h.Quantile(0.95), s.P99)
	}
	if s.Count != 100 || s.Sum != 5050 || s.Mean != 50.5 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Observe(5)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(1) != 0 {
		t.Fatal("Reset did not clear state")
	}
	h.Observe(7)
	if h.Mean() != 7 {
		t.Fatalf("Mean after reset = %v", h.Mean())
	}
}

// TestHistogramConcurrent: Count and Sum are exact after concurrent
// Observe (integer values, so the float sum is exact in any order).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
	if h.Sum() != 8*999*1000/2 {
		t.Fatalf("Sum = %v, want %v", h.Sum(), 8*999*1000/2)
	}
}

// TestHistogramQuantileRacingReset: the benchmark resets between phases
// while the node observes. A Quantile read across a Reset must still
// return a value from the observed range (or 0, for an empty read), never
// a rank the walk could not reach.
func TestHistogramQuantileRacingReset(t *testing.T) {
	var h Histogram
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				h.Observe(1.5 + 0.25*float64(g))
				if g == 0 && i%64 == 0 {
					h.Reset()
				}
			}
		}(g)
	}
	for i := 0; i < 500; i++ {
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if v := h.Quantile(q); v != 0 && (v < 1 || v > 2) {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("Quantile(%v) = %v racing Reset, want 0 or in [1, 2]", q, v)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}

func TestHistogramObserveAllocs(t *testing.T) {
	h := NewHistogram()
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.0123) }); n != 0 {
		t.Fatalf("Observe allocates %v times", n)
	}
}

// TestHistogramEdgeBuckets: values outside the range land in the two edge
// buckets, which report 0 and 2^16.
func TestHistogramEdgeBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []float64{math.NaN(), 0, -1, math.Inf(-1), lowest} {
		h.Observe(v)
	}
	if got := h.buckets[0].Load(); got != 5 {
		t.Fatalf("bucket at or below the range holds %d, want 5", got)
	}
	if got := h.Quantile(1); got != 0 {
		t.Fatalf("Quantile over the low edge bucket = %v, want 0", got)
	}
	h.Reset()
	for _, v := range []float64{math.Inf(1), 1e300, math.Nextafter(highest, math.Inf(1))} {
		h.Observe(v)
	}
	if got := h.buckets[numBuckets-1].Load(); got != 3 {
		t.Fatalf("bucket above the range holds %d, want 3", got)
	}
	if got := h.Quantile(0); got != highest {
		t.Fatalf("Quantile over the high edge bucket = %v, want %v", got, highest)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(250 * time.Millisecond)
	if got := h.Mean(); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("Mean = %v, want 0.25", got)
	}
}

func TestSummaryString(t *testing.T) {
	h := NewHistogram()
	h.Observe(0.010)
	s := h.Snapshot().String()
	if s == "" {
		t.Fatal("empty summary string")
	}
}

func TestQuantilePropertyBounds(t *testing.T) {
	// Property: for any sample set, quantiles are monotone in q and lie
	// between the buckets of the smallest and the largest sample.
	lo := func(i int) float64 {
		switch i {
		case 0:
			return 0
		case numBuckets - 1:
			return highest
		}
		return upper(i - 1)
	}
	hi := func(i int) float64 {
		switch i {
		case 0:
			return 0
		case numBuckets - 1:
			return highest
		}
		return upper(i)
	}
	f := func(vals []float64, q1, q2 float64) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		first, last := numBuckets, -1
		for _, v := range vals {
			v = math.Mod(v, 1e5) // spans both edge buckets and the range
			h.Observe(v)
			first, last = min(first, bucketOf(v)), max(last, bucketOf(v))
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		a, b := h.Quantile(q1), h.Quantile(q2)
		return a >= lo(first) && b <= hi(last) && a <= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(1.5e-3)
		}
	})
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 10000 {
		t.Fatalf("Value = %d, want 10000", c.Value())
	}
}

func TestEWMA(t *testing.T) {
	var e EWMA
	if e.Value() != 0 {
		t.Fatal("initial value should be 0")
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Fatalf("first observation should initialize: %v", e.Value())
	}
	e.Observe(20)
	if got := e.Value(); math.Abs(got-12) > 1e-9 {
		t.Fatalf("Value = %v, want 12 (α = 0.2)", got)
	}
}
