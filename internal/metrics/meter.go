package metrics

import (
	"sync"
	"time"
)

// Meter measures event throughput. It records a monotonically increasing
// event count together with the wall-clock interval over which the events
// were observed, and reports rates in events per second.
//
// Construct with NewMeter; the zero value is not usable.
type Meter struct {
	mu    sync.Mutex
	start time.Time
	count int64
	now   func() time.Time
}

// NewMeter returns a meter whose measurement interval starts now.
func NewMeter() *Meter {
	return newMeterClock(time.Now)
}

func newMeterClock(now func() time.Time) *Meter {
	return &Meter{start: now(), now: now}
}

// Mark records n events.
func (m *Meter) Mark(n int64) {
	m.mu.Lock()
	m.count += n
	m.mu.Unlock()
}

// Count returns the total number of events recorded.
func (m *Meter) Count() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count
}

// Rate returns the mean event rate in events per second since the meter was
// created (or last reset). It uses the current time, not the last mark, so
// an idle meter's rate decays toward zero.
func (m *Meter) Rate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	elapsed := m.now().Sub(m.start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(m.count) / elapsed
}

// Reset zeroes the count and restarts the measurement interval.
func (m *Meter) Reset() {
	m.mu.Lock()
	m.start, m.count = m.now(), 0
	m.mu.Unlock()
}
