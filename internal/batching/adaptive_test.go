package batching

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"clipper/internal/testutil"
)

func TestWinSemResize(t *testing.T) {
	w := newWinSem(1)
	if !w.acquire() {
		t.Fatal("first acquire failed")
	}
	acquired := make(chan bool, 1)
	go func() { acquired <- w.acquire() }()
	select {
	case <-acquired:
		t.Fatal("acquire succeeded past the limit")
	case <-time.After(10 * time.Millisecond):
	}
	w.setLimit(2) // growing unblocks the waiter
	select {
	case ok := <-acquired:
		if !ok {
			t.Fatal("acquire failed after grow")
		}
	case <-time.After(time.Second):
		t.Fatal("grow did not unblock acquire")
	}
	w.setLimit(1) // shrink below held count: releases drain it
	w.release(time.Time{})
	w.release(time.Time{})
	if got := w.curLimit(); got != 1 {
		t.Fatalf("limit = %d, want 1", got)
	}
	w.close()
	if w.acquire() {
		t.Fatal("acquire succeeded after close")
	}
}

// simReplica is one synthetic container for the virtual-time window tests.
type simReplica struct {
	name           string
	fixed, perItem float64 // seconds
	lanes          int     // 0 = unbounded
	openRate       float64 // Poisson arrivals/s: half of what it serves at its best window with full batches
	lo, hi         int     // where the window must end; hi 0: at the load's demand, and no lower than lo
	secs           float64 // virtual run time: long enough for 10 000 batches under either load
}

var simReplicas = []simReplica{
	// One batch at a time, 2 ms + 30 µs·n (the paper's own model): a
	// second batch in flight only queues inside the container.
	{"serial fixed-cost", 0.002, 30e-6, 1, 8000, 1, 2, 50},
	// One batch at a time, the rows dominating.
	{"serial per-item", 0.002, 400e-6, 1, 1150, 1, 4, 100},
	{"four lanes", 0.002, 30e-6, 4, 32000, 4, 5, 14},
	// Knees up to 24, reached above 16 by probes that grow with the window.
	// The open loop starts the window at a third or less of what the load
	// needs, so the per-item shapes take most of their run to climb.
	{"12 lanes fixed-cost", 0.002, 30e-6, 12, 98000, 11, 13, 4},
	{"12 lanes per-item", 0.002, 1e-3, 12, 5800, 11, 13, 40},
	{"20 lanes fixed-cost", 0.002, 30e-6, 20, 163000, 19, 21, 4},
	{"20 lanes per-item", 0.002, 1e-3, 20, 9700, 19, 21, 40},
	{"24 lanes fixed-cost", 0.002, 30e-6, 24, 196000, 23, 25, 4},
	{"24 lanes per-item", 0.002, 1e-3, 24, 11600, 23, 25, 40},
	// As many batches side by side as it is sent: only the load stops it.
	{"unbounded per-item", 0.002, 1e-3, 0, 7500, 30, 0, 20},
}

// simNoises are the noise levels the window law is held to: none, ±5 %
// jitter, and the benchmark's tree model (±10 %, up to 1 ms of timer
// lateness); the last two with a 30 ms pause in one batch of 40.
var simNoises = []simNoise{{"none", 0, 0}, {"±5 %", 0.05, 0}, {"tree", 0.1, 1e-3}}

// sim builds r under a measured window, noisy (drawing from seed) unless n
// has no jitter.
func (r simReplica) sim(n simNoise, seed int64) *holdSim {
	s := &holdSim{hold: true, fixed: r.fixed, perItem: r.perItem, lanes: r.lanes, simNoise: n}
	if n.jitter > 0 {
		s.noise = rand.New(rand.NewSource(seed))
	}
	return s.measured()
}

// TestWindowSim runs the window law, in virtual time, against the container
// shapes under a closed loop of 32 callers and under Poisson arrivals at
// half of what the shape can serve, over more than 10 000 batches at every
// noise level. The window must end where that shape's knee is — an
// unbounded one's at the load's demand — never pass the most batches the
// load had in flight at once by more than a step, and move only on a batch
// that was window-bound.
func TestWindowSim(t *testing.T) {
	// One goroutine per run and no clock: under the race detector a second
	// seed repeats what the first showed at twice the cost.
	seeds := int64(3)
	if testutil.RaceEnabled() {
		seeds = 1
	}
	for _, r := range simReplicas {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			for _, load := range []string{"closed", "open"} {
				for _, n := range simNoises {
					for seed := int64(1); seed <= seeds; seed++ {
						r.check(t, load, n, seed)
					}
				}
			}
		})
	}
}

// check runs r under one load, noise level and seed, and holds it to
// TestWindowSim's claims.
func (r simReplica) check(t *testing.T, load string, n simNoise, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := r.sim(n, seed+100)
	if load == "closed" {
		s.closedLoop(32, 50e-6, rng)
	} else {
		s.openLoop(r.openRate, r.secs, rng)
	}
	s.run(r.secs)
	snap := s.adapt.snapshot()
	run := fmt.Sprintf("%s loop, noise %s, seed %d", load, n.name, seed)
	t.Logf("%s: window %2d, range [%d, %d], peak %d in flight, %d batches, %.0f qps, last verdict %s at %.3f of %v + %v·n",
		run, s.w, s.minW, s.maxW, s.peak, s.batches, float64(s.served)/r.secs,
		snap.Verdict, snap.Ratio, snap.FitA, snap.FitB)
	ceil := s.peak + max(1, s.peak/stepDiv)
	lo, hi := r.lo, r.hi
	if hi == 0 {
		lo, hi = max(lo, s.peak), ceil
	}
	if s.w < lo || s.w > hi {
		t.Errorf("%s: window ended at %d, want [%d, %d]", run, s.w, lo, hi)
	}
	if s.minW < 1 || s.maxW > ceil {
		t.Errorf("%s: window ranged over [%d, %d], outside [1, %d]: %d in flight at most, plus a step", run, s.minW, s.maxW, ceil, s.peak)
	}
	if s.idleMoves > 0 {
		t.Errorf("%s: %d window moves on batches that were not window-bound", run, s.idleMoves)
	}
	if s.batches < 10000 {
		t.Errorf("%s: only %d batches, the run is too short to show drift", run, s.batches)
	}
}

// TestWindowSimIdleWindowStaysPut: at a load that never fills the window no
// batch is window-bound, so nothing is learned and nothing moves.
func TestWindowSimIdleWindowStaysPut(t *testing.T) {
	for _, r := range simReplicas {
		if r.lanes == 1 {
			continue // only the shapes that take batches side by side
		}
		s := r.sim(simNoises[1], 7)
		s.openLoop(20, 300, rand.New(rand.NewSource(8)))
		s.run(301)
		if s.minW != startWindow || s.maxW != startWindow || s.adapt.snapshot().Verdict != "" {
			t.Errorf("%s at 20 arrivals/s: window ranged over [%d, %d] (%+v), want it left at %d",
				r.name, s.minW, s.maxW, s.adapt.snapshot(), startWindow)
		}
		if s.batches < 5000 {
			t.Errorf("%s: only %d batches served", r.name, s.batches)
		}
	}
}
