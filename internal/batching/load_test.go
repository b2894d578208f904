package batching

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"clipper/internal/container"
	"clipper/internal/metrics"
)

func TestLoadModelCold(t *testing.T) {
	var m LoadModel
	if cost, ok := m.Cost(1); ok || cost != 0 {
		t.Fatalf("cold Cost = %v, %v; want 0, false", cost, ok)
	}
	if got := m.Tail(); got != 0 {
		t.Fatalf("cold Tail = %v, want 0", got)
	}
	if got := m.Stats(); got != (LoadStats{}) {
		t.Fatalf("cold Stats = %+v, want zero", got)
	}
}

// TestLoadModelTracksSeries feeds scripted batch-latency series (batch
// size 16, no queue wait) and checks what the three estimates settle to.
func TestLoadModelTracksSeries(t *testing.T) {
	const n = 16
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	within := func(got, want, frac float64) bool { return math.Abs(got-want) <= frac*want }
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name    string
		batches int
		lat     func(i int) time.Duration
		check   func(t *testing.T, m *LoadModel)
	}{
		{
			name: "constant converges", batches: 60,
			lat: func(int) time.Duration { return ms(3) },
			check: func(t *testing.T, m *LoadModel) {
				if got := m.perQuery.Value(); !within(got, 0.003/n, 1e-9) {
					t.Errorf("per-query = %v, want %v", got, 0.003/n)
				}
				if got := m.batchLat.Value(); !within(got, 0.003, 1e-9) {
					t.Errorf("batch latency = %v, want 0.003", got)
				}
				// The seed deviation (half the first sample) has decayed
				// away: no spread, so the tail sits on the mean.
				if got := m.Tail().Seconds(); !within(got, 0.003, 0.001) {
					t.Errorf("Tail = %v, want 3ms on a constant series", got)
				}
			},
		},
		{
			name: "2ms to 8ms step tracked within 5% in 20 batches", batches: 30 + 20,
			lat: func(i int) time.Duration {
				if i < 30 {
					return ms(2)
				}
				return ms(8)
			},
			check: func(t *testing.T, m *LoadModel) {
				for name, got := range map[string]float64{
					"per-query×n":   m.perQuery.Value() * n,
					"batch latency": m.batchLat.Value(),
					"sojourn mean":  m.sojourn.Value(),
				} {
					if !within(got, 0.008, 0.05) {
						t.Errorf("%s = %v after the step, want within 5%% of 8ms", name, got)
					}
				}
			},
		},
		{
			name: "stationary ±5% keeps the tail near the mean", batches: 400,
			lat: func(int) time.Duration { return ms(4 * (0.95 + 0.1*rng.Float64())) },
			check: func(t *testing.T, m *LoadModel) {
				mean, tail := m.sojourn.Value(), m.Tail().Seconds()
				if tail < mean || tail > 1.5*mean {
					t.Errorf("Tail = %v outside [mean, 1.5·mean] for mean %v", tail, mean)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var m LoadModel
			for i := 0; i < c.batches; i++ {
				m.observe(n, c.lat(i), 0)
			}
			if got := m.completed.Load(); got != int64(n*c.batches) {
				t.Errorf("completed = %d, want %d", got, n*c.batches)
			}
			c.check(t, &m)
		})
	}
}

// TestLoadModelPerQueryIsTheEWMASeries pins the price JSQ and admission
// put on one query: the model's per-query estimate is, bit for bit, a
// default metrics.EWMA fed batch_latency/batch_size.
func TestLoadModelPerQueryIsTheEWMASeries(t *testing.T) {
	var m LoadModel
	var e metrics.EWMA
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(64)
		lat := time.Duration(1 + rng.Int63n(int64(20*time.Millisecond)))
		m.observe(n, lat, time.Duration(rng.Int63n(int64(time.Millisecond))))
		e.Observe(lat.Seconds() / float64(n))
		if got, want := m.perQuery.Value(), e.Value(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("batch %d: per-query %v != EWMA %v", i, got, want)
		}
	}
}

// TestLoadModelConcurrent runs observers against readers (under -race in
// CI): no observation is lost and every estimate stays inside the range
// of what was observed.
func TestLoadModelConcurrent(t *testing.T) {
	var m LoadModel
	const writers, per, n = 8, 500, 4
	stop := make(chan struct{})
	var readers, wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m.Stats()
					m.Cost(4)
					m.Tail()
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.observe(n, time.Duration(1+w)*time.Millisecond, 0)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := m.completed.Load(); got != writers*per*n {
		t.Fatalf("completed = %d, want %d", got, writers*per*n)
	}
	if got := m.batchLat.Value(); got < 0.001 || got > 0.001*writers {
		t.Fatalf("batch latency %v escaped the observed range", got)
	}
	if got := m.perQuery.Value() * n; got < 0.001 || got > 0.001*writers {
		t.Fatalf("per-query×n %v escaped the observed range", got)
	}
}

// TestClaimedRequestsStayCounted: a request the collector has claimed into
// a batch it is still filling (here for the whole BatchTimeout) must stay
// visible to the load model. Stats reads queued, in-flight, completed in
// the order a request moves through them, and each transition raises the
// next counter before lowering the previous one, so the three never sum
// to fewer requests than were submitted.
func TestClaimedRequestsStayCounted(t *testing.T) {
	for _, tenant := range []string{"", "t1"} { // FIFO collect, DRR collect
		pred := container.NewFunc(container.Info{Name: "m", Version: 1},
			func(xs [][]float64) ([]container.Prediction, error) {
				return make([]container.Prediction, len(xs)), nil
			})
		q := NewQueue(pred, QueueConfig{Controller: NewFixed(8), BatchTimeout: 50 * time.Millisecond})
		const submits = 3
		var tks []*Ticket
		for i := 0; i < submits; i++ {
			tk, err := q.SubmitTicket(context.Background(), tenant, []float64{1})
			if err != nil {
				t.Fatal(err)
			}
			tks = append(tks, tk)
		}
		sawCollecting := false
		for {
			ls := q.LoadStats()
			if got := ls.Queued + ls.InFlightQueries + int(ls.Completed); got < submits {
				t.Fatalf("tenant %q: %d of %d requests visible (%+v)", tenant, got, submits, ls)
			}
			if ls.Queued == 0 && ls.Completed == 0 {
				// The collector holds all three and is waiting for more.
				sawCollecting = true
				if ls.InFlightQueries != submits {
					t.Fatalf("tenant %q: collecting with InFlightQueries = %d, want %d", tenant, ls.InFlightQueries, submits)
				}
			}
			if ls.Completed == submits {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		if !sawCollecting {
			t.Logf("tenant %q: never sampled the collect window", tenant)
		}
		for _, tk := range tks {
			if res := <-tk.Done(); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		q.Close()
		if ls := q.LoadStats(); ls.Queued != 0 || ls.InFlightQueries != 0 || ls.InFlightBatches != 0 {
			t.Fatalf("tenant %q: drained queue reports load: %+v", tenant, ls)
		}
	}
}

// TestCostDividesByTheWindow: a replica drains window queries per per-query
// service time, so a 16-wide one with 16 singletons in flight prices the next
// query near one batch latency, not seventeen; and two replicas with equal
// windows still order by depth, whatever the window is.
func TestCostDividesByTheWindow(t *testing.T) {
	const lat = 3 * time.Millisecond
	m := newGateModel()
	q := NewQueue(m, QueueConfig{Controller: NewFixed(1), InFlight: 16})
	defer q.Close()
	defer m.freeRun()
	q.load.observe(1, lat, 0) // warm: singletons take 3 ms
	for i := int64(1); i <= 16; i++ {
		if i == 16 {
			// The last slot is held for more arrivals only while the oldest
			// batch is not yet due (holdLast); nothing completes here to end
			// a hold, so let that batch go overdue first.
			time.Sleep(lat)
		}
		if _, err := q.SubmitTicket(context.Background(), "", []float64{0}); err != nil {
			t.Fatal(err)
		}
		await(t, "singleton dispatched", func() bool { return m.calls.Load() == i })
	}
	cost, ok := q.EstimateCost()
	if !ok || cost < lat || cost > lat*5/4 {
		t.Fatalf("16 singletons in flight on a 16-wide replica: one more query priced at %v, want about one batch latency (%v)", cost, lat)
	}
	var shallow, deep LoadModel
	for _, l := range []*LoadModel{&shallow, &deep} {
		l.observe(1, lat, 0)
	}
	shallow.queued.Store(3)
	deep.queued.Store(4)
	for _, w := range []int{1, 4, 16} {
		a, _ := shallow.Cost(w)
		b, _ := deep.Cost(w)
		if a >= b {
			t.Errorf("window %d: depth 3 priced %v, depth 4 priced %v: JSQ order lost", w, a, b)
		}
	}
}

// TestRobustLatencyShrugsOffOutliers: a series with a 15× pause in one batch
// of forty (bench-straggler's shape) barely moves the robust cell — at most
// a fifth of itself on the pause, back within 10 % of the body four batches
// later — while the plain EWMA beside it is thrown by several times the body.
func TestRobustLatencyShrugsOffOutliers(t *testing.T) {
	const body = 2 * time.Millisecond
	rng := rand.New(rand.NewSource(3))
	var m LoadModel
	var worstRobust, worstPlain float64
	for i := 1; i <= 400; i++ {
		lat := time.Duration(float64(body) * (0.97 + 0.06*rng.Float64()))
		if i%40 == 0 {
			lat = 15 * body
		}
		m.observe(8, lat, 0)
		robust, plain := m.robustLat.Value()/body.Seconds(), m.batchLat.Value()/body.Seconds()
		worstRobust, worstPlain = math.Max(worstRobust, robust), math.Max(worstPlain, plain)
		if since := i % 40; i > 40 && since >= 4 && math.Abs(robust-1) > 0.10 {
			t.Fatalf("batch %d, %d after a pause: robust estimate %.3f × body, want within 10 %%", i, since, robust)
		}
	}
	if worstRobust > 1.25 {
		t.Errorf("robust estimate peaked at %.2f × body, want ≤ 1.25", worstRobust)
	}
	if worstPlain < 3 {
		t.Errorf("plain EWMA peaked at only %.2f × body: the series no longer has outliers to reject", worstPlain)
	}
}

// TestRobustLatencyFollowsAStep: clipping must not blind the cell to a real
// change — a 3× step is within 10 % after twelve batches.
func TestRobustLatencyFollowsAStep(t *testing.T) {
	var m LoadModel
	for i := 0; i < 30; i++ {
		m.observe(8, 2*time.Millisecond, 0)
	}
	for i := 0; i < 12; i++ {
		m.observe(8, 6*time.Millisecond, 0)
	}
	if got := m.robustLat.Value(); math.Abs(got-0.006) > 0.1*0.006 {
		t.Fatalf("twelve batches after a 2 ms → 6 ms step the robust estimate is %.2f ms", got*1e3)
	}
}

// TestArrivalRateIsARatioOfSums: 1000 arrivals a second sampled at uneven
// intervals read as 1000, and a sample after a very short interval — one
// arrival 10 µs after the last sample, an instantaneous 100 000/s — does
// not spike the rate.
func TestArrivalRateIsARatioOfSums(t *testing.T) {
	var m LoadModel
	if m.arrivalRate() != 0 {
		t.Fatal("cold arrival rate is not zero")
	}
	now := time.Unix(1e9, 0)
	m.sampleArrivals(now)
	if m.arrivalRate() != 0 {
		t.Fatal("one sample cannot make a rate")
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(9)
		m.arrivals.Add(int64(n))
		now = now.Add(time.Duration(n) * time.Millisecond)
		m.sampleArrivals(now)
	}
	if got := m.arrivalRate(); math.Abs(got-1000) > 1 {
		t.Fatalf("arrival rate = %.1f/s, want 1000", got)
	}
	m.arrivals.Add(1)
	m.sampleArrivals(now.Add(10 * time.Microsecond))
	if got := m.arrivalRate(); got > 1100 {
		t.Fatalf("one short interval moved the rate to %.0f/s", got)
	}
	if got := m.Stats().ArrivalRate; got != m.arrivalRate() {
		t.Fatalf("LoadStats.ArrivalRate = %v, want %v", got, m.arrivalRate())
	}
}
