package core

import (
	"sync"
	"testing"
)

// TestHedgeBudgetBoundary pins reserveHedge's admission rule,
// issued+1 <= BudgetFrac * submitted, exactly at its boundary: the
// budget admits the Nth hedge only once enough primaries have been
// submitted to cover it, admits nothing before the first submit, and
// counts a hedge as issued exactly when it admits one.
func TestHedgeBudgetBoundary(t *testing.T) {
	s := newScheduler("m", SchedulerConfig{Hedge: HedgeConfig{Enabled: true, BudgetFrac: 0.1}})
	cases := []struct {
		submitted, issued int64
		want              bool
	}{
		{0, 0, false},    // no primaries yet: nothing to amortize against
		{9, 0, false},    // 1 > 0.9
		{10, 0, true},    // 1 <= 1.0: exact boundary admits
		{10, 1, false},   // 2 > 1.0
		{19, 1, false},   // 2 > 1.9
		{20, 1, true},    // 2 <= 2.0
		{100, 9, true},   // 10 <= 10
		{100, 10, false}, // 11 > 10
	}
	for _, c := range cases {
		s.submitted.Store(c.submitted)
		s.hedgesIssued.Store(c.issued)
		want := c.issued
		if c.want {
			want++
		}
		if got := s.reserveHedge(); got != c.want || s.hedgesIssued.Load() != want {
			t.Errorf("reserveHedge(submitted=%d, issued=%d) = %v leaving %d issued, want %v leaving %d",
				c.submitted, c.issued, got, s.hedgesIssued.Load(), c.want, want)
		}
	}
}

// TestReserveHedgeConcurrent: hedge timers firing together at the budget's
// boundary reserve exactly the budget, never more.
func TestReserveHedgeConcurrent(t *testing.T) {
	s := newScheduler("m", SchedulerConfig{Hedge: HedgeConfig{Enabled: true, BudgetFrac: 0.1}})
	s.submitted.Store(100)
	var wg sync.WaitGroup
	var mu sync.Mutex
	won := 0
	start := make(chan struct{})
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if s.reserveHedge() {
				mu.Lock()
				won++
				mu.Unlock()
			}
		}()
	}
	close(start)
	wg.Wait()
	if won != 10 || s.hedgesIssued.Load() != 10 {
		t.Fatalf("%d of 64 racing reservations succeeded, %d issued; want exactly 10 of 100 submitted at 10%%", won, s.hedgesIssued.Load())
	}
}

// TestHedgeBudgetFracDefaults pins the config normalization: zero and
// negative fractions select the 10% default, and fractions above 1
// clamp to hedging every request at most once.
func TestHedgeBudgetFracDefaults(t *testing.T) {
	cases := []struct {
		in   float64
		want float64
	}{
		{0, 0.1},
		{-0.5, 0.1},
		{0.25, 0.25},
		{1, 1},
		{3, 1},
	}
	for _, c := range cases {
		if got := (HedgeConfig{BudgetFrac: c.in}).budgetFrac(); got != c.want {
			t.Errorf("budgetFrac(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
