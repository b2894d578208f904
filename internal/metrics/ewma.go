package metrics

import (
	"math"
	"sync/atomic"
)

// ewmaAlpha is the weight of each new observation in an EWMA.
const ewmaAlpha = 0.2

// EWMA is a lock-free exponentially weighted moving average with
// smoothing factor 0.2. The zero value is ready to use; concurrent Observe
// and Value calls are safe. Observers race CAS updates rather than lock,
// so a lost update under heavy contention is retried, never dropped.
//
// The first observation seeds the average directly (no warm-up bias
// toward zero), which is what makes Value() == 0 usable as a "no data
// yet" sentinel for strictly positive series like latencies.
type EWMA struct {
	bits atomic.Uint64 // math.Float64bits of the current average; 0 = unseeded
}

// Observe folds v into the average.
func (e *EWMA) Observe(v float64) {
	for {
		old := e.bits.Load()
		var next float64
		if old == 0 {
			next = v
		} else {
			cur := math.Float64frombits(old)
			next = (1-ewmaAlpha)*cur + ewmaAlpha*v
		}
		nb := math.Float64bits(next)
		if nb == 0 {
			// Observing exactly 0.0 into an empty average would re-arm
			// the seed; nudge to the smallest denormal so "seeded with
			// zero" and "never seeded" stay distinguishable.
			nb = 1
		}
		if e.bits.CompareAndSwap(old, nb) {
			return
		}
	}
}

// Value returns the current average, or 0 if nothing has been observed.
func (e *EWMA) Value() float64 {
	b := e.bits.Load()
	if b == 0 {
		return 0
	}
	return math.Float64frombits(b)
}

// Reset discards all observations.
func (e *EWMA) Reset() { e.bits.Store(0) }
