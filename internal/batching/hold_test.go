package batching

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// The collector's hold rule (holdLast) is tested three ways, none of them
// against the wall clock: as a pure function, in a virtual-time simulation
// of the collector's policy, and against a real Queue whose load model is
// primed so the rule fires on cue and whose batches complete when the test
// says so.

func TestHoldLastDecision(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name        string
		queued      int
		rate        float64
		next        time.Duration
		held, limit int
		want        bool
	}{
		{"last slot, many arrivals expected", 1, 8000, 2 * ms, 4, 4, true},
		{"exactly queued+2 expected", 2, 2000, 2 * ms, 4, 4, true},
		{"just short of queued+2", 2, 1999, 2 * ms, 4, 4, false},
		{"a deep queue is not kept waiting", 30, 8000, 2 * ms, 4, 4, false},
		{"a free slot besides this one", 1, 8000, 2 * ms, 3, 4, false},
		{"only slot of a window of two", 1, 8000, 2 * ms, 1, 2, false},
		{"serial window", 1, 8000, 2 * ms, 1, 1, false},
		{"serial window, however busy", 1, 1e9, time.Hour, 1, 1, false},
		{"overdue batch", 1, 8000, 0, 4, 4, false},
		{"long overdue batch", 1, 8000, -50 * ms, 4, 4, false},
		{"nothing queued", 0, 8000, 2 * ms, 4, 4, false},
		{"cold arrival rate", 1, 0, 2 * ms, 4, 4, false},
		{"window shrunk under the held count", 1, 8000, 2 * ms, 4, 3, false},
	} {
		if got := holdLast(tc.queued, tc.rate, tc.next, tc.held, tc.limit); got != tc.want {
			t.Errorf("%s: holdLast(%d, %g, %v, %d, %d) = %v, want %v",
				tc.name, tc.queued, tc.rate, tc.next, tc.held, tc.limit, got, tc.want)
		}
	}
	// Exhaustively: nothing but the last slot of a window wider than one,
	// with work queued and a completion still ahead, is ever held.
	for limit := 1; limit <= 6; limit++ {
		for held := 0; held <= limit+1; held++ {
			for _, queued := range []int{0, 1, 5} {
				for _, next := range []time.Duration{-ms, 0, ms} {
					may := limit > 1 && held == limit && queued > 0 && next > 0
					if holdLast(queued, 1e9, next, held, limit) && !may {
						t.Errorf("held with queued=%d next=%v held=%d limit=%d", queued, next, held, limit)
					}
				}
			}
		}
	}
}

// simReq is one request in the simulation.
type simReq struct {
	arrived float64
	held    bool // sat in the queue while the collector held the slot
}

type simFlight struct {
	start float64
	reqs  []*simReq
}

// holdSim is the collector's policy in virtual time: a window of w slots,
// every batch taking s seconds whatever its size, the queue dispatched
// whole the moment a slot and a request exist — unless hold is set and
// holdLast says to keep the slot. It shares holdLast and the load model's
// arrival-rate cell with the real collector and nothing else; there are no
// goroutines and no clock.
type holdSim struct {
	w    int
	s    float64
	hold bool

	now        float64
	queue      []*simReq
	flights    []simFlight
	arrivals   []float64 // future arrival instants, ascending
	collecting bool      // the collector has a slot reserved
	load       LoadModel

	done       func(now float64) // a request completed (closed loop: schedules the next)
	dispatches []float64
	batches    []int
	sojourns   []float64
	everHeld   int
}

var simEpoch = time.Unix(1e9, 0)

func (s *holdSim) arriveAt(at float64) {
	i := sort.SearchFloat64s(s.arrivals, at)
	s.arrivals = append(s.arrivals, 0)
	copy(s.arrivals[i+1:], s.arrivals[i:])
	s.arrivals[i] = at
}

// reserve is the collector entering collect with a freshly acquired slot.
func (s *holdSim) reserve() {
	if !s.collecting && len(s.flights) < s.w {
		s.collecting = true
		s.load.sampleArrivals(simEpoch.Add(seconds(s.now)))
	}
}

func (s *holdSim) dispatch() {
	for s.reserve(); s.collecting && len(s.queue) > 0; s.reserve() {
		if s.hold && len(s.flights) > 0 {
			oldest := math.Inf(1)
			for _, f := range s.flights {
				oldest = math.Min(oldest, f.start)
			}
			if holdLast(len(s.queue), s.load.arrivalRate(), seconds(oldest+s.s-s.now), len(s.flights)+1, s.w) {
				for _, r := range s.queue {
					r.held = true
				}
				return
			}
		}
		s.flights = append(s.flights, simFlight{start: s.now, reqs: s.queue})
		s.dispatches = append(s.dispatches, s.now)
		s.batches = append(s.batches, len(s.queue))
		s.queue = nil
		s.collecting = false
	}
}

func (s *holdSim) run(until float64) {
	for {
		s.dispatch()
		next := math.Inf(1)
		if len(s.arrivals) > 0 {
			next = s.arrivals[0]
		}
		for _, f := range s.flights {
			next = math.Min(next, f.start+s.s)
		}
		if next > until {
			return
		}
		s.now = next
		kept := s.flights[:0]
		for _, f := range s.flights {
			if f.start+s.s > s.now {
				kept = append(kept, f)
				continue
			}
			for _, r := range f.reqs {
				s.sojourns = append(s.sojourns, s.now-r.arrived)
				if r.held {
					s.everHeld++
				}
				if s.done != nil {
					s.done(s.now)
				}
			}
		}
		s.flights = kept
		for len(s.arrivals) > 0 && s.arrivals[0] <= s.now {
			s.arrivals = s.arrivals[1:]
			s.load.arrivals.Add(1)
			s.queue = append(s.queue, &simReq{arrived: s.now})
		}
	}
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// closedLoopSim is a closed loop of 26 clients, each sending its next
// request a short think time (exponential, mean s/20) after the reply to its
// last: the load that lets a greedy collector lock into a clump. All four
// slots come free within a few think times of each other, the first three
// arrivals take one each as singletons, the fourth takes the last, and the
// other twenty-odd find the pipeline shut for a whole round trip — after
// which the four complete together again.
func closedLoopSim(hold bool, seed int64) *holdSim {
	const clients = 26
	rng := rand.New(rand.NewSource(seed))
	s := &holdSim{w: 4, s: 0.0023, hold: hold}
	s.done = func(now float64) { s.arriveAt(now + rng.ExpFloat64()*s.s/20) }
	for i := 0; i < clients; i++ {
		s.done(rng.Float64() * s.s) // staggered start: the clump forms by itself
	}
	s.run(4)
	return s
}

// maxGap is the longest interval between two consecutive dispatches once the
// first quarter of the run (the start-up transient) is over.
func (s *holdSim) maxGap() (gap float64) {
	d := s.dispatches[len(s.dispatches)/4:]
	for i := 1; i < len(d); i++ {
		gap = math.Max(gap, d[i]-d[i-1])
	}
	return gap
}

func TestHoldSimClosedLoop(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		greedy, held := closedLoopSim(false, seed), closedLoopSim(true, seed)
		g, h := mean(greedy.sojourns), mean(held.sojourns)
		even := held.s / float64(held.w)
		t.Logf("seed %d: greedy %d done, mean sojourn %.3f ms, max dispatch gap %.2f × s/w; rule %d done, %.3f ms, %.2f × s/w",
			seed, len(greedy.sojourns), g*1e3, greedy.maxGap()/even, len(held.sojourns), h*1e3, held.maxGap()/even)
		// The simulation has the fault: greedy's four dispatches bunch and
		// then none happens for most of a round trip.
		if greedy.maxGap() < 2.5*even {
			t.Errorf("seed %d: greedy is not clumped here (max gap %.2f × s/w): the simulation no longer tests the rule", seed, greedy.maxGap()/even)
		}
		// With the rule the slots are spread over the round trip ...
		if held.maxGap() > 1.5*even {
			t.Errorf("seed %d: dispatches still clumped: max gap %.3f ms > 1.5 × s/w = %.3f ms", seed, held.maxGap()*1e3, 1.5*even*1e3)
		}
		// ... and requests wait less, so the same clients get more done.
		if h > 0.98*g || len(held.sojourns) <= len(greedy.sojourns) {
			t.Errorf("seed %d: mean sojourn with the rule %.3f ms (%d done), greedy %.3f ms (%d done)",
				seed, h*1e3, len(held.sojourns), g*1e3, len(greedy.sojourns))
		}
	}
}

func TestHoldSimOpenLoopIsNearlySilent(t *testing.T) {
	for _, load := range []float64{1.1, 1.5} { // arrivals per s/w
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := &holdSim{w: 4, s: 0.0023, hold: true}
			rate := load * float64(s.w) / s.s
			for at := 0.0; at < 4; at += rng.ExpFloat64() / rate {
				s.arrivals = append(s.arrivals, at)
			}
			s.run(5)
			frac := float64(s.everHeld) / float64(len(s.sojourns))
			t.Logf("λs/w = %.1f seed %d: %d of %d requests ever held (%.3f), mean sojourn %.2f ms",
				load, seed, s.everHeld, len(s.sojourns), frac, mean(s.sojourns)*1e3)
			if frac > 0.05 {
				t.Errorf("λs/w = %.1f seed %d: %.3f of requests were held, want ≤ 0.05", load, seed, frac)
			}
		}
	}
}

// primeHold warms q's load model so that the rule holds the last slot
// whenever anything is queued behind an in-flight batch: a million arrivals
// a second, and batches expected to take an hour.
func primeHold(q *Queue) {
	q.load.arrN.Observe(1e6)
	q.load.arrGap.Observe(1)
	q.load.robustLat.Observe(3600)
}

// await polls cond — an event the test has already caused — and fails the
// test if it never comes true.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
	}
}

// heldQueue returns a primed two-slot queue whose first slot is inside the
// gated model with one request and whose collector is holding the second
// slot over n more, which it returns the tickets of.
func heldQueue(t *testing.T, n int) (*gateModel, *Queue, []*Ticket) {
	t.Helper()
	m := newGateModel()
	q := NewQueue(m, QueueConfig{Controller: NewFixed(64), InFlight: 2})
	primeHold(q)
	if _, err := q.SubmitTicket(context.Background(), "", []float64{0}); err != nil {
		t.Fatal(err)
	}
	await(t, "first batch dispatched", func() bool { return m.calls.Load() == 1 })
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tk, err := q.SubmitTicket(context.Background(), "", []float64{float64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
		if i == 0 {
			await(t, "collector holds the last slot", func() bool { return q.LoadStats().Holds == 1 })
		}
	}
	if calls := m.calls.Load(); calls != 1 {
		t.Fatalf("%d batches dispatched while the last slot should be held, want 1", calls)
	}
	if ls := q.LoadStats(); ls.Queued != n || ls.InFlightQueries != 1 {
		t.Fatalf("held requests must count as queued, never in flight: %+v", ls)
	}
	return m, q, tickets
}

func TestHoldEndsOnNextCompletion(t *testing.T) {
	m, q, tickets := heldQueue(t, 3)
	defer q.Close()
	defer m.freeRun()
	// The rule would hold for an hour; the first batch completing ends it,
	// and everything that queued meanwhile leaves as one batch.
	m.release <- struct{}{}
	await(t, "held requests dispatched after the completion", func() bool { return m.calls.Load() == 2 })
	if got := m.queries.Load(); got != 4 {
		t.Fatalf("second batch carried %d requests, want the 3 held together", got-1)
	}
	m.release <- struct{}{}
	for i, tk := range tickets {
		if res := <-tk.Done(); res.Err != nil || res.Pred.Label != i+1 {
			t.Fatalf("ticket %d: %+v", i, res)
		}
	}
	if ls := q.LoadStats(); ls.Holds != 1 || ls.HoldTime <= 0 {
		t.Fatalf("hold not accounted: %+v", ls)
	}
}

func TestCloseMidHold(t *testing.T) {
	m, q, tickets := heldQueue(t, 3)
	closed := make(chan struct{})
	go func() { q.Close(); close(closed) }()
	// No batch completes: Close alone must end the hold, and drainClosed
	// answers what was held.
	for i, tk := range tickets {
		if res := <-tk.Done(); !errors.Is(res.Err, ErrQueueClosed) {
			t.Fatalf("held ticket %d after Close: %+v, want ErrQueueClosed", i, res)
		}
	}
	m.freeRun()
	<-closed
	if ls := q.LoadStats(); ls.Queued+ls.InFlightQueries != 0 || m.calls.Load() != 1 {
		t.Fatalf("after Close: %+v, %d batches", ls, m.calls.Load())
	}
}

func TestAllCancelledMidHold(t *testing.T) {
	m, q, tickets := heldQueue(t, 3)
	defer q.Close()
	defer m.freeRun()
	for i, tk := range tickets {
		if !tk.Cancel() {
			t.Fatalf("held ticket %d could not be withdrawn", i)
		}
	}
	// The tombstones are swept when the hold ends, nothing is dispatched
	// for them, and the slot then serves the next arrival.
	m.release <- struct{}{}
	await(t, "tombstones swept", func() bool { return q.LoadStats().Queued == 0 })
	tk, err := q.SubmitTicket(context.Background(), "", []float64{9})
	if err != nil {
		t.Fatal(err)
	}
	m.freeRun()
	if res := <-tk.Done(); res.Err != nil || res.Pred.Label != 9 {
		t.Fatalf("after the cancelled hold: %+v", res)
	}
	if calls, rows := m.calls.Load(), m.queries.Load(); calls != 2 || rows != 2 {
		t.Fatalf("%d batches carrying %d requests, want 2 and 2: a cancelled request was dispatched", calls, rows)
	}
	for i, tk := range tickets {
		select {
		case res := <-tk.Done():
			t.Fatalf("withdrawn ticket %d delivered %+v", i, res)
		default:
		}
	}
}

// TestSubmitLedgerUnderHolds is the exactly-one-outcome contract with the
// rule acting: eight submitters mixing kept tickets, immediately cancelled
// ones and blocking submits through a two-slot window.
func TestSubmitLedgerUnderHolds(t *testing.T) {
	q := NewQueue(newWindowProbe(200*time.Microsecond, 0), QueueConfig{Controller: NewFixed(8), InFlight: 2})
	primeHold(q)
	ledgers := make([]submitLedger, 8)
	var wg sync.WaitGroup
	for g := range ledgers {
		wg.Add(1)
		go func(l *submitLedger, rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				x := []float64{float64(i)}
				switch op := rng.Intn(4); op {
				case 0:
					if _, err := q.Submit(context.Background(), x); err != nil {
						t.Errorf("blocking submit: %v", err)
					}
				default:
					tk, err := q.SubmitTicket(context.Background(), "", x)
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					if op != 1 || !tk.Cancel() {
						l.live = append(l.live, tk)
					} else {
						l.withdrawn = append(l.withdrawn, tk)
					}
				}
			}
		}(&ledgers[g], rand.New(rand.NewSource(int64(g))))
	}
	wg.Wait()
	if ls := q.LoadStats(); ls.Holds == 0 {
		t.Errorf("the rule never held a slot: %+v", ls)
	}
	var all submitLedger
	for _, l := range ledgers {
		all.live = append(all.live, l.live...)
		all.withdrawn = append(all.withdrawn, l.withdrawn...)
	}
	all.settle(t, q)
}
