package metrics

import (
	"math"
	"sync"
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
	if s := h.Snapshot(); s.Min != 1 || s.Max != 100 {
		t.Fatalf("Snapshot Min/Max = %v/%v, want 1/100", s.Min, s.Max)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.P99() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.Mean != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestHistogramQuantilesExact(t *testing.T) {
	h := NewHistogramSize(1000)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	// All 1000 samples fit in the reservoir, so quantiles are exact
	// (with linear interpolation).
	cases := []struct {
		q    float64
		want float64
		tol  float64
	}{
		{0, 1, 0},
		{0.5, 500.5, 0.01},
		{0.99, 990.01, 0.5},
		{1, 1000, 0},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > c.tol {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestHistogramQuantilesBatch(t *testing.T) {
	h := NewHistogramSize(100)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	qs := h.Quantiles(0.5, 0.95, 0.99)
	if len(qs) != 3 {
		t.Fatalf("got %d quantiles", len(qs))
	}
	if qs[0] > qs[1] || qs[1] > qs[2] {
		t.Fatalf("quantiles not monotone: %v", qs)
	}
}

func TestHistogramReservoirSampling(t *testing.T) {
	// With many more observations than reservoir slots, the estimated
	// median of a uniform distribution should still be near the middle.
	h := NewHistogramSize(512)
	for i := 0; i < 100000; i++ {
		h.Observe(float64(i % 1000))
	}
	med := h.Quantile(0.5)
	if med < 350 || med > 650 {
		t.Fatalf("reservoir median = %v, want ~500", med)
	}
	if h.Count() != 100000 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Observe(5)
	h.Reset()
	if h.Count() != 0 || h.Snapshot().Max != 0 {
		t.Fatal("Reset did not clear state")
	}
	h.Observe(7)
	if h.Mean() != 7 {
		t.Fatalf("Mean after reset = %v", h.Mean())
	}
}

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
	// Property: for any non-empty sample set, every quantile estimate lies
	// within [min, max] and quantiles are monotone in q.
	f := func(vals []float64, q1, q2 float64) bool {
		if len(vals) == 0 {
			return true
		}
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		lo, hi := clean[0], clean[0]
		for _, v := range clean {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		a := quantileOf(clean, q1)
		b := quantileOf(clean, q2)
		return a >= lo && b <= hi && a <= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterRate(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	m := newMeterClock(clock)
	now = now.Add(2 * time.Second)
	m.Mark(100)
	if got := m.Rate(); math.Abs(got-50) > 1e-9 {
		t.Fatalf("Rate = %v, want 50", got)
	}
	// Idle time decays Rate.
	now = now.Add(2 * time.Second)
	if got := m.Rate(); math.Abs(got-25) > 1e-9 {
		t.Fatalf("Rate after idle = %v, want 25", got)
	}
}

func TestMeterReset(t *testing.T) {
	now := time.Unix(0, 0)
	m := newMeterClock(func() time.Time { return now })
	m.Mark(10)
	m.Reset()
	if m.Count() != 0 {
		t.Fatal("Reset did not zero count")
	}
	if m.Rate() != 0 {
		t.Fatal("Rate should be 0 immediately after reset")
	}
}

func TestMeterZeroElapsed(t *testing.T) {
	now := time.Unix(0, 0)
	m := newMeterClock(func() time.Time { return now })
	m.Mark(5)
	if m.Rate() != 0 {
		t.Fatal("zero elapsed time must not divide by zero")
	}
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

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Fatal("empty ratio should be 0")
	}
	r.Hit()
	r.Hit()
	r.Miss()
	r.Miss()
	if got := r.Value(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Value = %v, want 0.5", got)
	}
	if r.Hits() != 2 || r.Total() != 4 {
		t.Fatalf("Hits=%d Total=%d", r.Hits(), r.Total())
	}
	r.Reset()
	if r.Total() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 {
		t.Fatal("initial value should be 0")
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Fatalf("first observation should initialize: %v", e.Value())
	}
	e.Observe(20)
	if got := e.Value(); math.Abs(got-15) > 1e-9 {
		t.Fatalf("Value = %v, want 15", got)
	}
}

func TestEWMABadAlpha(t *testing.T) {
	e := NewEWMA(-1)
	e.Observe(1)
	e.Observe(2)
	if v := e.Value(); v <= 1 || v >= 2 {
		t.Fatalf("Value = %v, want in (1,2)", v)
	}
}
