package batching

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
	start, finish float64
	last          bool // left with the window's last free slot
	lo, hi        int  // its requests, holdSim.reqs[lo:hi]
}

// simMaxBatch is the simulation's batch cap (a NewFixed(64) controller).
const simMaxBatch = 64

// holdSim is the collector's policy in virtual time: a window of w slots in
// front of a simulated replica, the queue dispatched (up to simMaxBatch) the
// moment a slot and a request exist — unless hold is set and holdLast says to
// keep the slot. The replica evaluates a batch of n in fixed + perItem·n
// seconds on one of its lanes (0 = as many as it is sent), first come first
// served. The simulation shares holdLast, the load model and, when adapt is
// set, the window controller with the real collector, and nothing else;
// there are no goroutines and no clock.
type holdSim struct {
	w     int // the window; adapt moves it
	hold  bool
	adapt *adaptive

	fixed, perItem float64
	lanes          int
	noise          *rand.Rand // non-nil: simNoise's service-time noise, drawn from here
	simNoise
	laneFree []float64

	now        float64
	reqs       []simReq    // the requests in arrival order: a batch takes the oldest queued
	queued     int         // reqs[queued:] wait in the queue
	flights    []simFlight // by finish time, ties in dispatch order
	arrivals   []float64   // future arrival instants, descending: the next is last
	collecting bool        // the collector has a slot reserved
	load       loadModel

	done       func(now float64) // a request completed (closed loop: schedules the next)
	dispatches []float64
	batches    int     // batches dispatched
	served     int     // requests completed
	sojournSum float64 // their sojourns, summed in completion order
	everHeld   int
	peak       int // the most batches ever in flight at once
	minW, maxW int // the window's range since the last call of measured
	idleMoves  int // window moves on a batch that was not window-bound
}

// simNoise is what a noisy simulation adds to a service time: a factor
// within ±jitter, a uniform 0–late seconds of wake-up lateness, and a 30 ms
// pause in one batch of 40.
type simNoise struct {
	name         string
	jitter, late float64
}

var simEpoch = time.Unix(1e9, 0)

// measured puts the window under a controller of its own, as NewQueue does
// for InFlight 0.
func (s *holdSim) measured() *holdSim {
	s.adapt = newAdaptive(newWinSem(startWindow), &s.load)
	s.w = startWindow
	s.minW, s.maxW = s.w, s.w
	return s
}

func (s *holdSim) arriveAt(at float64) {
	i := sort.Search(len(s.arrivals), func(i int) bool { return s.arrivals[i] <= at })
	s.arrivals = slices.Insert(s.arrivals, i, at)
}

// nextArrival is the next arrival instant, +Inf when none is scheduled.
func (s *holdSim) nextArrival() float64 {
	if len(s.arrivals) == 0 {
		return math.Inf(1)
	}
	return s.arrivals[len(s.arrivals)-1]
}

// reserve is the collector entering collect with a freshly acquired slot.
func (s *holdSim) reserve() {
	if !s.collecting && len(s.flights) < s.w {
		s.collecting = true
		s.load.sampleArrivals(simEpoch.Add(seconds(s.now)))
	}
}

// serve is the replica taking a batch of n: it returns when the batch will
// be done.
func (s *holdSim) serve(n int) float64 {
	d := s.fixed + s.perItem*float64(n)
	if s.noise != nil {
		d *= 1 - s.jitter + 2*s.jitter*s.noise.Float64()
		if s.late > 0 {
			d += s.late * s.noise.Float64()
		}
		if s.noise.Intn(40) == 0 {
			d += 0.030
		}
	}
	if s.lanes == 0 {
		return s.now + d
	}
	if s.laneFree == nil {
		s.laneFree = make([]float64, s.lanes)
	}
	lane := 0
	for i, free := range s.laneFree {
		if free < s.laneFree[lane] {
			lane = i
		}
	}
	s.laneFree[lane] = math.Max(s.now, s.laneFree[lane]) + d
	return s.laneFree[lane]
}

func (s *holdSim) dispatch() {
	for s.reserve(); s.collecting && s.queued < len(s.reqs); s.reserve() {
		queue := s.reqs[s.queued:]
		if s.hold && len(s.flights) > 0 {
			oldest := math.Inf(1)
			for _, f := range s.flights {
				oldest = min(oldest, f.start)
			}
			next := seconds(oldest + s.load.robustLat.Value() - s.now)
			if holdLast(len(queue), s.load.arrivalRate(), next, len(s.flights)+1, s.w) {
				for i := range queue {
					queue[i].held = true
				}
				return
			}
		}
		n := min(len(queue), simMaxBatch)
		f := simFlight{start: s.now, finish: s.serve(n), last: len(s.flights)+1 >= s.w, lo: s.queued, hi: s.queued + n}
		i := sort.Search(len(s.flights), func(i int) bool { return s.flights[i].finish > f.finish })
		s.flights = slices.Insert(s.flights, i, f)
		s.peak = max(s.peak, len(s.flights))
		s.dispatches = append(s.dispatches, s.now)
		s.batches++
		s.queued += n
		s.collecting = false
	}
}

// complete is runBatch's tail for one finished batch.
func (s *holdSim) complete(f simFlight) {
	reqs := s.reqs[f.lo:f.hi]
	lat := seconds(s.now - f.start)
	s.load.observe(len(reqs), lat, seconds(f.start-reqs[0].arrived))
	if s.adapt != nil {
		s.adapt.tick(len(reqs), lat, f.last)
		if w := s.adapt.sem.curLimit(); w != s.w {
			if !f.last {
				s.idleMoves++
			}
			s.w = w
			s.minW, s.maxW = min(s.minW, w), max(s.maxW, w)
		}
	}
	for _, r := range reqs {
		s.served++
		s.sojournSum += s.now - r.arrived
		if r.held {
			s.everHeld++
		}
		if s.done != nil {
			s.done(s.now)
		}
	}
}

func (s *holdSim) run(until float64) {
	for {
		s.dispatch()
		next := s.nextArrival()
		if len(s.flights) > 0 {
			next = min(next, s.flights[0].finish)
		}
		if next > until {
			return
		}
		s.now = next
		for len(s.flights) > 0 && s.flights[0].finish <= s.now {
			f := s.flights[0]
			s.flights = slices.Delete(s.flights, 0, 1) // in place: a window's worth to shift
			s.complete(f)
		}
		for s.nextArrival() <= s.now {
			s.arrivals = s.arrivals[:len(s.arrivals)-1]
			s.load.arrivals.Add(1)
			if len(s.reqs) == cap(s.reqs) {
				s.compact()
			}
			s.reqs = append(s.reqs, simReq{arrived: s.now})
		}
	}
}

// compact drops the completed requests from the front of reqs, so the log
// is as long as what is queued or in flight, not the whole run.
func (s *holdSim) compact() {
	lo := s.queued
	for _, f := range s.flights {
		lo = min(lo, f.lo)
	}
	s.reqs = s.reqs[:copy(s.reqs, s.reqs[lo:])]
	s.queued -= lo
	for i := range s.flights {
		s.flights[i].lo -= lo
		s.flights[i].hi -= lo
	}
}

// closedLoop drives s with clients callers, each sending its next request a
// think time (exponential, of the given mean) after the reply to its last;
// their first requests are staggered over one fixed service time.
func (s *holdSim) closedLoop(clients int, think float64, rng *rand.Rand) {
	s.done = func(now float64) { s.arriveAt(now + rng.ExpFloat64()*think) }
	for i := 0; i < clients; i++ {
		s.done(rng.Float64() * s.fixed)
	}
}

// openLoop schedules Poisson arrivals at rate per second until the given
// time.
func (s *holdSim) openLoop(rate, until float64, rng *rand.Rand) {
	s.arrivals = slices.Grow(s.arrivals, int(1.01*rate*until))
	for at := 0.0; at < until; at += rng.ExpFloat64() / rate {
		s.arrivals = append(s.arrivals, at)
	}
	slices.Reverse(s.arrivals)
}

func (s *holdSim) meanSojourn() float64 { return s.sojournSum / float64(s.served) }

// closedLoopSim is a closed loop of 26 clients, each sending its next
// request a short think time (exponential, mean s/20) after the reply to its
// last: the load that lets a greedy collector lock into a clump. All four
// slots come free within a few think times of each other, the first three
// arrivals take one each as singletons, the fourth takes the last, and the
// other twenty-odd find the pipeline shut for a whole round trip — after
// which the four complete together again.
func closedLoopSim(hold bool, seed int64) *holdSim {
	s := &holdSim{w: 4, fixed: 0.0023, hold: hold}
	s.closedLoop(26, s.fixed/20, rand.New(rand.NewSource(seed))) // staggered start: the clump forms by itself
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
		g, h := greedy.meanSojourn(), held.meanSojourn()
		even := held.fixed / float64(held.w)
		t.Logf("seed %d: greedy %d done, mean sojourn %.3f ms, max dispatch gap %.2f × s/w; rule %d done, %.3f ms, %.2f × s/w",
			seed, greedy.served, g*1e3, greedy.maxGap()/even, held.served, h*1e3, held.maxGap()/even)
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
		if h > 0.98*g || held.served <= greedy.served {
			t.Errorf("seed %d: mean sojourn with the rule %.3f ms (%d done), greedy %.3f ms (%d done)",
				seed, h*1e3, held.served, g*1e3, greedy.served)
		}
	}
}

func TestHoldSimOpenLoopIsNearlySilent(t *testing.T) {
	for _, load := range []float64{1.1, 1.5} { // arrivals per s/w
		for seed := int64(1); seed <= 5; seed++ {
			s := &holdSim{w: 4, fixed: 0.0023, hold: true}
			s.openLoop(load*float64(s.w)/s.fixed, 4, rand.New(rand.NewSource(seed)))
			s.run(5)
			frac := float64(s.everHeld) / float64(s.served)
			t.Logf("λs/w = %.1f seed %d: %d of %d requests ever held (%.3f), mean sojourn %.2f ms",
				load, seed, s.everHeld, s.served, frac, s.meanSojourn()*1e3)
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

// heldQueue returns a primed queue of the given window (0: measured, so
// startWindow) with all slots but the last inside the gated model, one
// request each, and the collector holding the last slot over n more, which
// it returns the tickets of.
func heldQueue(t *testing.T, inFlight, n int) (*gateModel, *Queue, []*ticket) {
	t.Helper()
	m := newGateModel()
	q := NewQueue(m, QueueConfig{Controller: NewFixed(64), InFlight: inFlight})
	primeHold(q)
	busy := int64(q.InFlight() - 1)
	for i := int64(1); i <= busy; i++ {
		if _, err := startTicket(context.Background(), q, "", []float64{0}); err != nil {
			t.Fatal(err)
		}
		await(t, "a slot filled", func() bool { return m.calls.Load() == i })
	}
	tickets := make([]*ticket, n)
	for i := range tickets {
		tk, err := startTicket(context.Background(), q, "", []float64{float64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
		if i == 0 {
			await(t, "collector holds the last slot", func() bool { return q.LoadStats().Holds == 1 })
		}
	}
	if calls := m.calls.Load(); calls != busy {
		t.Fatalf("%d batches dispatched while the last slot should be held, want %d", calls, busy)
	}
	if ls := q.LoadStats(); ls.Queued != n || ls.InFlightQueries != int(busy) {
		t.Fatalf("held requests must count as queued, never in flight: %+v", ls)
	}
	return m, q, tickets
}

// resolve frees the gate and checks every held ticket got its own answer.
func resolve(t *testing.T, m *gateModel, tickets []*ticket) {
	t.Helper()
	m.freeRun()
	for i, tk := range tickets {
		if res := <-tk.Done(); res.Err != nil || res.Pred.Label != i+1 {
			t.Fatalf("ticket %d: %+v", i, res)
		}
	}
}

// TestHoldEndsOnWindowGrow: the limit moves under a collector that is
// holding what was the last slot. One period of window-bound batches makes
// the controller fit its line and probe W+1; that resize leaves a changed
// token, the collector decides again, and the held requests leave at once
// — the slot is no longer the last.
func TestHoldEndsOnWindowGrow(t *testing.T) {
	m, q, tickets := heldQueue(t, 0, 3)
	defer q.Close()
	defer m.freeRun()
	for i := 0; i < periodFloor; i++ {
		q.adapt.tick(1, time.Millisecond, true)
	}
	if w := q.InFlight(); w != startWindow+1 {
		t.Fatalf("window = %d after one window-bound period, want the first probe at %d", w, startWindow+1)
	}
	await(t, "held requests dispatched into the new slot", func() bool { return m.calls.Load() == startWindow })
	if got := m.queries.Load(); got != startWindow-1+3 {
		t.Fatalf("the grown window's batch carried %d requests, want the 3 held together", got-startWindow+1)
	}
	resolve(t, m, tickets)
}

// TestHoldSurvivesWindowShrink: a limit that drops below the held count (a
// kept shrink probe) strands nothing. The collector already owns its slot,
// which is no longer the window's last free one but one too many, so it
// dispatches; later batches wait for the count to drain under the new limit.
func TestHoldSurvivesWindowShrink(t *testing.T) {
	m, q, tickets := heldQueue(t, 0, 3)
	defer q.Close()
	defer m.freeRun()
	q.win.setLimit(2)
	await(t, "held requests dispatched", func() bool { return m.calls.Load() == startWindow })
	tk, err := startTicket(context.Background(), q, "", []float64{9})
	if err != nil {
		t.Fatal(err)
	}
	if held, limit, _ := q.win.state(); held != startWindow || limit != 2 {
		t.Fatalf("held %d of %d, want %d of 2: a slot was taken over the shrunk limit", held, limit, startWindow)
	}
	resolve(t, m, tickets)
	if res := <-tk.Done(); res.Err != nil || res.Pred.Label != 9 {
		t.Fatalf("after the shrink: %+v", res)
	}
	await(t, "slots returned", func() bool { held, _, _ := q.win.state(); return held <= 1 })
}

func TestHoldEndsOnNextCompletion(t *testing.T) {
	m, q, tickets := heldQueue(t, 2, 3)
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
	m, q, tickets := heldQueue(t, 2, 3)
	closed := make(chan struct{})
	go func() { q.Close(); close(closed) }()
	// No batch completes: Close alone must end the hold, and drainClosed
	// answers what was held.
	for i, tk := range tickets {
		if res := <-tk.Done(); !errors.Is(res.Err, errQueueClosed) {
			t.Fatalf("held ticket %d after Close: %+v, want errQueueClosed", i, res)
		}
	}
	m.freeRun()
	<-closed
	if ls := q.LoadStats(); ls.Queued+ls.InFlightQueries != 0 || m.calls.Load() != 1 {
		t.Fatalf("after Close: %+v, %d batches", ls, m.calls.Load())
	}
}

func TestAllCancelledMidHold(t *testing.T) {
	m, q, tickets := heldQueue(t, 2, 3)
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
	tk, err := startTicket(context.Background(), q, "", []float64{9})
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
// ones and blocking submits through a two-slot window, and through a measured
// one whose limit moves mid-stream: besides the real batches the controller
// is fed window-bound ones that take 1 ms and 2 ms by turns, so probes are
// kept and undone for as long as the submitters run.
func TestSubmitLedgerUnderHolds(t *testing.T) {
	for _, inFlight := range []int{2, 0} {
		submitLedgerUnderHolds(t, inFlight)
	}
}

func submitLedgerUnderHolds(t *testing.T, inFlight int) {
	q := NewQueue(newWindowProbe(200*time.Microsecond, 0), QueueConfig{Controller: NewFixed(8), InFlight: inFlight})
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
					if err := l.start(context.Background(), q, "", x, op == 1); err != nil {
						t.Errorf("submit: %v", err)
						return
					}
				}
			}
		}(&ledgers[g], rand.New(rand.NewSource(int64(g))))
	}
	if a := q.adapt; a != nil {
		submitted := make(chan struct{})
		probed := make(chan map[int]bool)
		go func() {
			windows := map[int]bool{}
			for i := 0; ; i++ {
				select {
				case <-submitted:
					probed <- windows
					return
				default:
				}
				a.tick(1, time.Duration(1+i/64%2)*time.Millisecond, true)
				windows[q.InFlight()] = true
				runtime.Gosched()
			}
		}()
		defer func() {
			close(submitted)
			if windows := <-probed; len(windows) < 3 || a.snapshot().Verdict == "" {
				t.Errorf("the limit did not move mid-stream: saw windows %v, %+v", windows, a.snapshot())
			}
		}()
	}
	wg.Wait()
	// (A moving limit is often wider than the eight submitters can fill.)
	if ls := q.LoadStats(); ls.Holds == 0 && inFlight > 0 {
		t.Errorf("the rule never held a slot: %+v", ls)
	}
	var all submitLedger
	for _, l := range ledgers {
		all.live = append(all.live, l.live...)
		all.withdrawn = append(all.withdrawn, l.withdrawn...)
	}
	all.settle(t, q, nil)
}
