package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"clipper/internal/batching"
)

// waitIdle blocks until q has answered want queries and no batch is still
// running its bookkeeping (results are delivered before the batch is
// folded into the load model), so the model is static when it returns.
func waitIdle(t *testing.T, q *batching.Queue, want int64) batching.LoadStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ls := q.LoadStats()
		if ls.Completed == want && ls.InFlightBatches == 0 && ls.InFlightQueries == 0 && ls.Queued == 0 {
			return ls
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never went idle at %d completed: %+v", want, ls)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// await spins until cond holds, failing the test after ten seconds.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
	}
}

// TestControllersShareOneModel runs every controller that prices a
// replica — JSQ cost, QoS admission, the window controller and
// the hedge timer, with AIMD sizing batches — over one replica, then
// recomputes each one's input from a single snapshot of the replica's
// load model. Equalities, not tolerances: there is no second estimator
// for any of them to have read.
func TestControllersShareOneModel(t *testing.T) {
	cl := New(Config{CacheSize: -1, Scheduler: SchedulerConfig{
		Hedge: HedgeConfig{Enabled: true, BudgetFrac: 0.5},
	}})
	defer cl.Close()
	rep, err := cl.Deploy(&stubModel{name: "m", label: 1, delay: time.Millisecond}, nil, batching.QueueConfig{
		Controller: batching.NewAIMD(batching.AIMDConfig{SLO: 50 * time.Millisecond}),
	})
	if err != nil {
		t.Fatal(err)
	}
	app, err := cl.RegisterApp(AppConfig{
		Name: "qos", Models: []string{"m"}, SLO: time.Second, Weight: 2, Shed: ShedReject,
	})
	if err != nil {
		t.Fatal(err)
	}
	const queries = 40
	for i := 0; i < queries; i++ {
		if _, err := app.Predict(context.Background(), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	s := modelScheduler(t, cl, "m")
	rq := s.snapshot()[0]
	ls := waitIdle(t, rq.queue, queries)
	if ls.PerQueryService <= 0 || ls.BatchLatency <= 0 || ls.Tail <= hedgeMinDelay {
		t.Fatalf("model still cold after %d queries: %+v", queries, ls)
	}

	// Admin surface and JSQ: one query ahead of an idle replica costs
	// exactly one per-query service time over the window it drains at.
	st := cl.ReplicaStatuses("m")[rep.ID]
	if want := float64(ls.PerQueryService) / 1e6; st.ServiceEWMAMillis != want {
		t.Errorf("ServiceEWMAMillis = %v, model says %v", st.ServiceEWMAMillis, want)
	}
	if st.WindowPinned || st.Window != rq.queue.InFlight() {
		t.Errorf("status window %d pinned=%v, queue says %d measured", st.Window, st.WindowPinned, rq.queue.InFlight())
	}
	want := ls.PerQueryService / time.Duration(st.Window)
	if cost, ok := rq.estCost(); !ok || cost != want {
		t.Errorf("estCost = %v, %v; model says %v", cost, ok, want)
	}
	// QoS admission prices the app off the same number.
	if cost, ok := app.predictedCost(); !ok || cost != want {
		t.Errorf("admission cost = %v, %v; model says %v", cost, ok, want)
	}
	// The window controller reports the model's batch latency, not one of
	// its own.
	if snap, _ := rq.queue.Window(); snap.BatchLatency != ls.BatchLatency {
		t.Errorf("window batch latency = %v, model says %v", snap.BatchLatency, ls.BatchLatency)
	}
	// The hedge timer is the model's tail (above the floor, so it is the
	// model and not hedgeMinDelay that was read).
	if got := s.hedgeDelay(); got != ls.Tail {
		t.Errorf("hedgeDelay = %v, model says %v", got, ls.Tail)
	}
}

// TestHedgeDelayWarmsFromQueueTraffic: the hedge timer follows the
// replica's load model, so it warms from any traffic the replica served —
// including batches the scheduler never routed.
func TestHedgeDelayWarmsFromQueueTraffic(t *testing.T) {
	cl := New(Config{CacheSize: -1, Scheduler: SchedulerConfig{
		Hedge: HedgeConfig{Enabled: true},
	}})
	defer cl.Close()
	if _, err := cl.Deploy(&stubModel{name: "m", label: 1, delay: 2 * time.Millisecond}, nil, serialQcfg()); err != nil {
		t.Fatal(err)
	}
	s := modelScheduler(t, cl, "m")
	if got := s.hedgeDelay(); got != hedgeMinDelay {
		t.Fatalf("cold hedgeDelay = %v, want the %v floor", got, hedgeMinDelay)
	}
	q := cl.ReplicaQueues("m")[0]
	const queries = 4
	for i := 0; i < queries; i++ {
		if _, err := q.Submit(context.Background(), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitIdle(t, q, queries)
	if got := s.hedgeDelay(); got < 2*time.Millisecond {
		t.Fatalf("hedgeDelay = %v after %d direct 2ms batches, want it warmed past the batch latency", got, queries)
	}
}
