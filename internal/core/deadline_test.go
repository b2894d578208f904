package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clipper/internal/batching"
	"clipper/internal/cache"
	"clipper/internal/container"
	"clipper/internal/selection"
	"clipper/internal/testutil"
)

const (
	testSLO     = 50 * time.Millisecond
	testReserve = testSLO / reserveDiv
)

// stragglerApp registers a four-model Exp4 app with testSLO whose last model
// never answers until the test ends. Serial queues: a batch in the straggler
// keeps everything behind it queued.
func stragglerApp(t *testing.T, cascade *CascadeConfig) (cl *Clipper, app *Application, slow *blockModel, release func()) {
	t.Helper()
	cl = New(Config{CacheSize: 1024})
	t.Cleanup(cl.Close)
	names := []string{"m0", "m1", "m2", "slow"}
	slow = &blockModel{name: "slow", release: make(chan struct{})}
	for _, m := range []container.Predictor{&stubModel{name: "m0", label: 1}, &stubModel{name: "m1", label: 1}, &stubModel{name: "m2", label: 1}, slow} {
		if _, err := cl.Deploy(m, nil, serialQcfg()); err != nil {
			t.Fatal(err)
		}
	}
	var once sync.Once
	release = func() { once.Do(func() { close(slow.release) }) }
	t.Cleanup(release) // before cl.Close, which waits for the batch
	app, err := cl.RegisterApp(AppConfig{Name: "app", Models: names, Policy: selection.NewExp4(0), SLO: testSLO, Cascade: cascade})
	if err != nil {
		t.Fatal(err)
	}
	return cl, app, slow, release
}

// insideSLO checks a reply left after the straggler wait ended and before the
// SLO did: in [SLO − 2·reserve, SLO) on the clock that started at arrival.
func insideSLO(t *testing.T, what string, sinceArrival time.Duration) {
	t.Helper()
	if sinceArrival < testSLO-2*testReserve || sinceArrival >= testSLO {
		t.Errorf("%s %v after arrival, want in [%v, %v)", what, sinceArrival, testSLO-2*testReserve, testSLO)
	}
}

func TestDeadlineReplyInsideSLO(t *testing.T) {
	_, app, _, _ := stragglerApp(t, nil)
	start := time.Now()
	resp, err := app.Predict(context.Background(), []float64{1})
	if err != nil || resp.Missing != 1 || resp.Selected != 4 || resp.Label != 1 {
		t.Fatalf("resp %+v err %v, want the straggler alone missing", resp, err)
	}
	insideSLO(t, "reply", time.Since(start))
	insideSLO(t, "Response.Latency", resp.Latency)
}

// One deadline, not one per stage: a cascade whose first stage straggles
// escalates at the deadline and its second stage has nothing left to wait
// with. (Each stage used to get a whole SLO: ≈ 2 × SLO.)
func TestDeadlineSharedByCascadeStages(t *testing.T) {
	_, app, _, _ := stragglerApp(t, &CascadeConfig{First: []int{3}, Threshold: 0.9})
	start := time.Now()
	resp, err := app.Predict(context.Background(), []float64{1})
	if err != nil || resp.Stage != 2 {
		t.Fatalf("resp %+v err %v, want an escalation to stage 2", resp, err)
	}
	insideSLO(t, "cascade reply", time.Since(start))
}

func TestDeadlineCountsFromArrival(t *testing.T) {
	_, app, _, _ := stragglerApp(t, nil)
	const age = 10 * time.Millisecond
	start := time.Now()
	resp, err := app.PredictAt(context.Background(), "", []float64{1}, start.Add(-age))
	if err != nil || resp.Missing != 1 {
		t.Fatalf("resp %+v err %v", resp, err)
	}
	insideSLO(t, "reply to a request 10 ms old", time.Since(start)+age)
	insideSLO(t, "its Response.Latency", resp.Latency)
}

// A request that arrives with its deadline already spent is answered from the
// cache pass: what is cached counts and nothing is waited for (a model that
// answers while the others are still being started may make it in).
func TestDeadlineSpentAnswersFromCache(t *testing.T) {
	_, app, _, _ := stragglerApp(t, nil)
	ctx := context.Background()
	cached := []float64{1}
	if resp, err := app.Predict(ctx, cached); err != nil || resp.Missing != 1 {
		t.Fatalf("warm-up resp %+v err %v", resp, err)
	}
	for _, tc := range []struct {
		x           []float64
		least, most int
	}{{cached, 1, 1}, {[]float64{2}, 1, 4}} {
		start := time.Now()
		resp, err := app.PredictAt(ctx, "", tc.x, start.Add(-2*testSLO))
		if err != nil || resp.Missing < tc.least || resp.Missing > tc.most {
			t.Errorf("x=%v: resp %+v err %v, want Missing in [%d, %d]", tc.x, resp, err, tc.least, tc.most)
		}
		if took := time.Since(start); took >= testSLO-2*testReserve {
			t.Errorf("x=%v: a spent deadline was waited for: %v", tc.x, took)
		}
	}
}

// The admission gate prices a query against what is left of its budget: the
// same estimate (≥ 5 ms: the model's 20 ms over the starting window of four)
// that fits a fresh request's 200 ms SLO sheds one with 2 ms of it left.
func TestAdmitShedsAgainstRemainingBudget(t *testing.T) {
	_, app := slowAppSLO(t, ShedReject, 200*time.Millisecond)
	ctx := context.Background()
	if _, err := app.Predict(ctx, []float64{2}); err != nil {
		t.Fatalf("fresh request: %v, want admitted", err)
	}
	_, err := app.PredictAt(ctx, "", []float64{3}, time.Now().Add(-178*time.Millisecond))
	if !errors.Is(err, ErrSLOShed) {
		t.Fatalf("request with 2 ms left: err %v, want ErrSLOShed", err)
	}
}

// A straggler that lands after the deadline still fills the cache — the next
// feedback on that input joins without a model call — and never writes to the
// slice the reply was built from (the race detector watches the reads below).
func TestStragglerAfterDeadlineFillsCache(t *testing.T) {
	cl, app, slow, release := stragglerApp(t, nil)
	ctx := context.Background()
	x := []float64{1}
	preds := app.gather(ctx, app.all, x, time.Now().Add(testReserve))
	release()
	key := cache.Key{Model: "slow", Version: 1, QueryID: cache.HashQuery(x)}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if _, ok := cl.Cache().Fetch(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the straggler never reached the cache")
		}
	}
	for i, p := range preds {
		if (p != nil) != (i < 3) {
			t.Errorf("preds[%d] = %v after the straggler landed", i, p)
		}
	}
	_, misses := cl.Cache().Stats()
	rows := slow.rows.Load()
	if err := app.FeedbackContext(ctx, "", x, 1); err != nil {
		t.Fatal(err)
	}
	if _, m := cl.Cache().Stats(); m != misses || slow.rows.Load() != rows {
		t.Errorf("feedback missed the cache: misses %d -> %d, straggler rows %d -> %d", misses, m, rows, slow.rows.Load())
	}
}

// A model whose sub-queue is full costs a request that model and nothing else:
// starting a fetch never parks the worker, so the reply still leaves inside
// the SLO with the other three models in it, a gather with no deadline returns
// as well, and the refused leader's cache claim is released. (A start that
// waited for room answered when ctx ended — 2 s here, never without one.)
func TestFullSubQueueIsMissingNotBlocking(t *testing.T) {
	cl, app, _, _ := stragglerApp(t, nil)
	q := cl.ReplicaQueues("slow")[0]
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for fill := 1.0; ; fill++ {
		err := q.Start(ctx, "", new(batching.Request), []float64{-fill}, func(batching.Result) {})
		if errors.Is(err, batching.ErrQueueFull) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		for q.LoadStats().InFlightQueries == 0 {
			runtime.Gosched() // the serial dispatcher parks in the model: no later pop makes room
		}
	}
	start := time.Now()
	resp, err := app.Predict(ctx, []float64{1})
	if err != nil || resp.Missing != 1 || resp.Label != 1 {
		t.Fatalf("resp %+v err %v, want the full model alone missing", resp, err)
	}
	x := []float64{2}
	preds := app.gather(ctx, app.all, x, time.Time{})
	if took := time.Since(start); took >= testSLO {
		t.Errorf("a full sub-queue held two gathers for %v", took)
	}
	for i, p := range preds {
		if (p != nil) != (i < 3) {
			t.Errorf("no deadline: preds[%d] = %v", i, p)
		}
	}
	key := cache.Key{Model: "slow", Version: 1, QueryID: cache.HashQuery(x)}
	if _, _, leader, _ := cl.Cache().Request(key); !leader {
		t.Error("the refused fetch's cache claim was not aborted")
	}
	cl.Cache().Abort(key)
}

// ctx, unlike the deadline, withdraws: a fetch still queued when its request
// is cancelled never reaches the model, and its cache claim is released.
func TestCancelWithdrawsQueuedFetch(t *testing.T) {
	cl, app, slow, release := stragglerApp(t, nil)
	first := make(chan struct{})
	go func() {
		defer close(first)
		app.gather(context.Background(), app.all, []float64{1}, time.Time{}) // parks a batch in the straggler
	}()
	q := cl.ReplicaQueues("slow")[0]
	for q.LoadStats().InFlightQueries != 1 {
		runtime.Gosched()
	}
	ctx, cancel := context.WithCancel(context.Background())
	x := []float64{2}
	second := make(chan struct{})
	go func() {
		defer close(second)
		app.gather(ctx, app.all, x, time.Time{})
	}()
	for q.LoadStats().Queued != 1 {
		runtime.Gosched()
	}
	cancel()
	<-second
	key := cache.Key{Model: "slow", Version: 1, QueryID: cache.HashQuery(x)}
	if _, _, leader, _ := cl.Cache().Request(key); !leader {
		t.Error("the withdrawn fetch's cache claim was not aborted")
	}
	cl.Cache().Abort(key)
	release()
	<-first
	waitIdle(t, q, 1)
	if rows := slow.rows.Load(); rows != 1 {
		t.Errorf("the straggler computed %d rows, want only the first request's", rows)
	}
}

// Every fetch in flight or queued when Deploy rolls its model over to a new
// version ends once: the batch in the old replica delivers, the drain fails
// what was queued behind it, and every gather returns.
func TestSwapModelMidFlightCompletesEveryFetch(t *testing.T) {
	cl, app, _, release := stragglerApp(t, nil)
	const n = 8
	var wg sync.WaitGroup
	var answered atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if p := app.gather(context.Background(), app.all, []float64{float64(i)}, time.Time{}); p[3] != nil {
				answered.Add(1)
			}
		}(i)
	}
	q := cl.ReplicaQueues("slow")[0]
	for ls := q.LoadStats(); ls.InFlightQueries+ls.Queued != n; ls = q.LoadStats() {
		runtime.Gosched()
	}
	swapped := make(chan error)
	go func() {
		_, err := cl.Deploy(&versioned{name: "slow", version: 2, label: 2}, nil, qcfg())
		swapped <- err
	}()
	for len(cl.ReplicaQueues("slow")) != 1 || cl.ReplicaQueues("slow")[0] == q {
		runtime.Gosched() // the new replica is in; the old queue is closing
	}
	release()
	if err := <-swapped; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if ls := q.LoadStats(); ls.Queued+ls.InFlightQueries != 0 || answered.Load() == 0 {
		t.Errorf("old queue %+v, %d of %d fetches answered", ls, answered.Load(), n)
	}
}

// An all-miss predict over four models spawns no goroutine — the fan-out is
// four registered completions and the serial dispatchers run batches inline —
// and allocates less than the goroutine-per-fetch gather did (44 per predict
// and up to four goroutines at its last commit, by this same test; 34 now).
// Hedged, each fetch is a timer and a context callback instead of a goroutine
// parked on two copies: with every model stalled, the predict's own goroutine
// is the only one it adds. A hedge timer that fires meanwhile finds no sibling
// and ends, so the count settles; one parked goroutine per fetch kept it four
// higher.
func TestAllMissPredictSpawnsNothing(t *testing.T) {
	names := []string{"m0", "m1", "m2", "m3"}
	deploy := func(hedged bool, release chan struct{}) (*Clipper, *Application, []*blockModel) {
		cl := New(Config{CacheSize: 4096, Scheduler: SchedulerConfig{Hedge: HedgeConfig{Enabled: hedged}}})
		models := make([]*blockModel, len(names))
		for i, n := range names {
			models[i] = &blockModel{name: n, release: release}
			if _, err := cl.Deploy(models[i], nil, serialQcfg()); err != nil {
				t.Fatal(err)
			}
		}
		app, err := cl.RegisterApp(AppConfig{Name: "app", Models: names, Policy: selection.NewExp4(0), SLO: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return cl, app, models
	}
	open := make(chan struct{})
	close(open)
	cl, app, models := deploy(false, open)
	defer cl.Close()
	ctx := context.Background()
	x := make([]float64, 16)
	predict := func() {
		x[0]++
		if resp, err := app.PredictContext(ctx, "", x); err != nil || resp.Missing != 0 {
			t.Fatalf("resp %+v err %v", resp, err)
		}
	}
	predict()
	for _, m := range models {
		m.peak.Store(0) // the warm-up may have met a goroutine an earlier test left exiting
	}
	before := int64(runtime.NumGoroutine())
	allocs := testing.AllocsPerRun(1000, predict)
	for _, m := range models {
		if peak := m.peak.Load(); peak > before {
			t.Errorf("%s saw %d goroutines mid-predict, %d before", m.name, peak, before)
		}
	}
	if !testutil.RaceEnabled() && allocs >= 44 {
		t.Errorf("%v allocations per all-miss predict, want fewer than the 44 of the goroutine-per-fetch gather", allocs)
	}

	stall := make(chan struct{})
	release := sync.OnceFunc(func() { close(stall) })
	cl, app, models = deploy(true, stall)
	defer cl.Close()
	defer release() // first, so Close does not wait on a stalled batch
	base := runtime.NumGoroutine()
	answered := make(chan error)
	go func() {
		_, err := app.Predict(ctx, []float64{1})
		answered <- err
	}()
	for _, m := range models {
		await(t, "a batch in every model", func() bool { return m.calls.Load() == 1 })
	}
	await(t, "only the predict's goroutine added", func() bool { return runtime.NumGoroutine() <= base+1 })
	release()
	if err := <-answered; err != nil {
		t.Fatal(err)
	}
}

// A hedged fetch withdrawn by ctx while both its copies are still queued
// ends once, with ctx's error: neither copy reaches a model, and its cache
// claim is released exactly once (an Abort, where a prediction would Put).
func TestHedgedCancelWithdrawsBothCopies(t *testing.T) {
	cl := New(Config{CacheSize: 1024, Scheduler: SchedulerConfig{Hedge: HedgeConfig{Enabled: true, BudgetFrac: 1}}})
	defer cl.Close()
	models := []*blockModel{{name: "m", release: make(chan struct{})}, {name: "m", release: make(chan struct{})}}
	for _, m := range models {
		defer close(m.release) // before cl.Close, which waits for the parked batches
		if _, err := cl.Deploy(m, nil, serialQcfg()); err != nil {
			t.Fatal(err)
		}
	}
	app, err := cl.RegisterApp(AppConfig{Name: "app", Models: []string{"m"}, Policy: selection.NewStatic(0)})
	if err != nil {
		t.Fatal(err)
	}
	// Park a batch in each replica, straight through its queue, so both
	// copies of the fetch stay queued.
	qs := cl.ReplicaQueues("m")
	for i, q := range qs {
		go q.Submit(context.Background(), []float64{float64(-1 - i)})
	}
	for _, q := range qs {
		for q.LoadStats().InFlightQueries != 1 {
			runtime.Gosched()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	x := []float64{1}
	gathered := make(chan []*container.Prediction)
	go func() { gathered <- app.gather(ctx, app.all, x, time.Time{}) }()
	for qs[0].LoadStats().Queued+qs[1].LoadStats().Queued != 2 {
		runtime.Gosched() // the primary, then the hedge the stuck primary earns
	}
	cancel()
	if preds := <-gathered; preds[0] != nil {
		t.Fatalf("a cancelled gather returned %+v", preds[0])
	}
	key := cache.Key{Model: "m", Version: 1, QueryID: cache.HashQuery(x)}
	for {
		if hit, leader := cacheClaim(cl, key); hit {
			t.Fatal("the cancelled fetch cached a prediction")
		} else if leader {
			break // released; the claim is ours now
		}
		runtime.Gosched()
	}
	for _, m := range models {
		m.release <- struct{}{}
	}
	for _, q := range qs {
		waitIdle(t, q, 1)
	}
	if _, leader := cacheClaim(cl, key); leader {
		t.Error("the cancelled fetch released its cache claim twice")
	}
	cl.Cache().Abort(key)
	for _, m := range models {
		if rows := m.rows.Load(); rows != 1 {
			t.Errorf("a replica computed %d rows, want only its parked one", rows)
		}
	}
	if st, _ := cl.SchedulerStats("m"); st.HedgesIssued != 1 || st.HedgesWon+st.HedgesWasted+st.Failovers != 0 {
		t.Errorf("scheduler stats %+v, want one hedge issued and no race settled", st)
	}
}

// cacheClaim asks the cache for key: a hit, or the leadership of a miss
// (false while another fetch holds the claim, which this then follows).
func cacheClaim(cl *Clipper, key cache.Key) (hit, leader bool) {
	_, hit, leader, _ = cl.Cache().Request(key)
	return hit, leader
}
