package integration

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clipper/internal/batching"
	"clipper/internal/container"
	"clipper/internal/core"
	"clipper/internal/rpc"
	"clipper/internal/selection"
)

// delayModel is a model container whose every batch costs a fixed wall
// time — the knob the skew tests turn to make one replica 10x slower.
type delayModel struct {
	name    string
	label   int
	delay   time.Duration
	queries atomic.Int64
}

func (m *delayModel) Info() container.Info {
	return container.Info{Name: m.name, Version: 1, NumClasses: 10}
}

func (m *delayModel) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	m.queries.Add(int64(len(xs)))
	time.Sleep(m.delay)
	out := make([]container.Prediction, len(xs))
	for i := range out {
		out[i] = container.Prediction{Label: m.label}
	}
	return out, nil
}

// serveReplica hosts m as a TCP container and deploys it with a serial
// fixed-batch queue, returning the server for tests that kill it.
func serveReplica(t *testing.T, cl *core.Clipper, m container.Predictor) *rpc.Server {
	t.Helper()
	addr, srv, err := container.Serve(m, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := container.DialConns(addr, time.Second, 1)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	if _, err := cl.Deploy(remote, func() { remote.Close() }, batching.QueueConfig{
		Controller: batching.NewFixed(8), InFlight: 1,
	}); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return srv
}

// soloApp registers an uncached app over model "m" alone, so each
// Predict is one query routed by m's scheduler. answered fails a response
// that lost its one model's prediction or carries another label.
func soloApp(t *testing.T, cl *core.Clipper) (app *core.Application, answered func(core.Response, int) bool) {
	t.Helper()
	app, err := cl.RegisterApp(core.AppConfig{Name: "a", Models: []string{"m"}, Policy: selection.NewStatic(0)})
	if err != nil {
		t.Fatal(err)
	}
	return app, func(r core.Response, label int) bool { return r.Missing == 0 && !r.UsedDefault && r.Label == label }
}

// TestSkewedReplicaHedgedTail: one of four replicas is 10x slower behind
// real sockets. With JSQ routing and hedging on, the slow replica is
// starved of traffic and the occasional query that does land there (the
// every-128th-pick exploration probe) hedges out — so the measured p99 stays
// below even a single slow service time, where blind round-robin would
// pin ~1/4 of all queries at or above it.
func TestSkewedReplicaHedgedTail(t *testing.T) {
	const (
		fastDelay = 2 * time.Millisecond
		slowDelay = 10 * fastDelay
	)
	cl := core.New(core.Config{CacheSize: -1, Scheduler: core.SchedulerConfig{
		Hedge: core.HedgeConfig{Enabled: true, BudgetFrac: 0.25},
	}})
	defer cl.Close()

	slow := &delayModel{name: "m", label: 1, delay: slowDelay}
	defer serveReplica(t, cl, slow).Close()
	fasts := make([]*delayModel, 3)
	for i := range fasts {
		fasts[i] = &delayModel{name: "m", label: 1, delay: fastDelay}
		defer serveReplica(t, cl, fasts[i]).Close()
	}

	app, answered := soloApp(t, cl)
	// Warm-up: cold replicas are visited round-robin, so these submits
	// price all four (including one slow service time each time the
	// rotation lands on it). Excluded from the measurement.
	for i := 0; i < 40; i++ {
		if r, err := app.Predict(context.Background(), []float64{float64(i)}); err != nil || !answered(r, 1) {
			t.Fatalf("warm-up %d: %+v %v", i, r, err)
		}
	}
	slowWarm := slow.queries.Load()

	const workers, perWorker = 4, 100
	lats := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				start := time.Now()
				if r, err := app.Predict(context.Background(), []float64{float64(w*perWorker + i)}); err != nil || !answered(r, 1) {
					t.Errorf("worker %d submit %d: %+v %v", w, i, r, err)
					return
				}
				lats[w] = append(lats[w], time.Since(start))
			}
		}(w)
	}
	wg.Wait()

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) != workers*perWorker {
		t.Fatalf("measured %d latencies, want %d", len(all), workers*perWorker)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := all[len(all)*99/100]
	// One slow service time is the bound round-robin cannot meet: it
	// sends ~25% of queries into a >= slowDelay wait, so its p99 sits at
	// slowDelay plus queueing. JSQ+hedging must beat the floor itself.
	if p99 >= slowDelay {
		t.Fatalf("p99 = %v with hedging on, want < one slow service time (%v)", p99, slowDelay)
	}
	// The scheduler must have starved the slow replica: its post-warm-up
	// share is probe traffic only, far below round-robin's 25%.
	slowShare := float64(slow.queries.Load()-slowWarm) / float64(workers*perWorker)
	if slowShare > 0.15 {
		t.Fatalf("slow replica served %.0f%% of post-warm-up queries, want probe-level traffic", 100*slowShare)
	}
	st, ok := cl.SchedulerStats("m")
	if !ok {
		t.Fatal("no scheduler stats")
	}
	if st.HedgesIssued > st.Submitted/4+1 {
		t.Fatalf("hedge budget exceeded: %+v", st)
	}
}

// TestMidHedgeReplicaDeath: a replica dies (its TCP server closes) while
// requests are queued on it and hedges are in flight. Every submit must
// still return exactly one result — rescued by the hedge or the
// error-failover path — and the health monitor must excise the corpse.
func TestMidHedgeReplicaDeath(t *testing.T) {
	cl := core.New(core.Config{CacheSize: -1, Scheduler: core.SchedulerConfig{
		Hedge: core.HedgeConfig{Enabled: true, BudgetFrac: 1.0},
	}})
	defer cl.Close()

	victim := &delayModel{name: "m", label: 2, delay: 15 * time.Millisecond}
	victimSrv := serveReplica(t, cl, victim)
	survivor := &delayModel{name: "m", label: 2, delay: time.Millisecond}
	defer serveReplica(t, cl, survivor).Close()

	mon := cl.StartHealthMonitor(10 * time.Millisecond)
	defer mon.Stop()

	app, answered := soloApp(t, cl)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const workers, perWorker = 8, 60
	var results atomic.Int64
	var wg sync.WaitGroup
	var killOnce sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w == 0 && i == perWorker/4 {
					// Kill the victim mid-run, with requests queued on it
					// and hedges racing its in-flight batches.
					killOnce.Do(func() { victimSrv.Close() })
				}
				r, err := app.Predict(ctx, []float64{float64(w*perWorker + i)})
				if err != nil {
					t.Errorf("worker %d submit %d: %v", w, i, err)
					return
				}
				if !answered(r, 2) {
					t.Errorf("worker %d submit %d: %+v, want label 2 from the model", w, i, r)
					return
				}
				results.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if got := results.Load(); got != workers*perWorker {
		t.Fatalf("delivered %d results for %d submits", got, workers*perWorker)
	}

	// The corpse must be marked down.
	deadline := time.Now().Add(3 * time.Second)
	for {
		healthy := 0
		for _, st := range cl.ReplicaStatuses("m") {
			if st.Healthy {
				healthy++
			}
		}
		if healthy == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead replica never marked unhealthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, _ := cl.SchedulerStats("m")
	if st.HedgesIssued == 0 && st.Failovers == 0 {
		t.Fatalf("death produced neither hedges nor failovers: %+v", st)
	}
}
