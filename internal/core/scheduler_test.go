package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"clipper/internal/batching"
	"clipper/internal/container"
)

// blockModel parks every batch until its release channel is closed —
// the "replica that stopped draining" of the hedging design, and the
// straggler of the deadline tests. It counts its rows and records the most
// goroutines it ever saw alive while a batch was in it.
type blockModel struct {
	name    string
	release chan struct{}
	calls   atomic.Int64
	rows    atomic.Int64
	peak    atomic.Int64
}

// submitModel starts one query on model's scheduler, on the default tenant,
// and waits for its one Result.
func submitModel(cl *Clipper, ctx context.Context, model string, x []float64) (container.Prediction, error) {
	cl.mu.Lock()
	s := cl.scheds[model]
	cl.mu.Unlock()
	ch := make(chan batching.Result, 1)
	s.start(ctx, "", new(batching.Request), x, func(res batching.Result) { ch <- res })
	res := <-ch
	return res.Pred, res.Err
}

func (m *blockModel) Info() container.Info {
	return container.Info{Name: m.name, Version: 1, NumClasses: 10}
}

func (m *blockModel) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	m.calls.Add(1)
	m.rows.Add(int64(len(xs)))
	if g := int64(runtime.NumGoroutine()); g > m.peak.Load() {
		m.peak.Store(g)
	}
	<-m.release
	out := make([]container.Prediction, len(xs))
	for i := range out {
		out[i] = container.Prediction{Label: 99}
	}
	return out, nil
}

// errModel fails every batch.
type errModel struct{ name string }

func (m *errModel) Info() container.Info {
	return container.Info{Name: m.name, Version: 1, NumClasses: 10}
}

func (m *errModel) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	return nil, errors.New("errModel: boom")
}

// serialQcfg keeps one batch in flight so per-pick load is predictable.
func serialQcfg() batching.QueueConfig {
	return batching.QueueConfig{Controller: batching.NewFixed(8), InFlight: 1}
}

func modelScheduler(t *testing.T, cl *Clipper, model string) *scheduler {
	t.Helper()
	cl.mu.Lock()
	s := cl.scheds[model]
	cl.mu.Unlock()
	if s == nil {
		t.Fatalf("no scheduler for %q", model)
	}
	return s
}

// TestSchedulerColdRoundRobins: before any replica has priced itself,
// JSQ degrades to plain rotation so every replica warms up.
func TestSchedulerColdRoundRobins(t *testing.T) {
	cl := New(Config{CacheSize: -1})
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if _, err := cl.Deploy(&stubModel{name: "m", label: i}, nil, serialQcfg()); err != nil {
			t.Fatal(err)
		}
	}
	s := modelScheduler(t, cl, "m")
	counts := map[*replicaQueue]int{}
	for i := 0; i < 9; i++ {
		counts[s.pick()]++
	}
	for rq, n := range counts {
		if n != 3 {
			t.Fatalf("cold pick distribution uneven: %s picked %d of 9", rq.replica.ID, n)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("cold picks reached %d replicas, want 3", len(counts))
	}
}

// TestJSQPrefersFastReplica: once both replicas are warm, dispatch
// concentrates on the measurably faster one.
func TestJSQPrefersFastReplica(t *testing.T) {
	fast := &stubModel{name: "m", label: 1, delay: time.Millisecond}
	slow := &stubModel{name: "m", label: 1, delay: 40 * time.Millisecond}
	cl := New(Config{CacheSize: -1})
	defer cl.Close()
	if _, err := cl.Deploy(fast, nil, serialQcfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Deploy(slow, nil, serialQcfg()); err != nil {
		t.Fatal(err)
	}
	// Warm both estimates (cold replicas are visited round-robin).
	for i := 0; i < 4; i++ {
		if _, err := submitModel(cl, context.Background(), "m", []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	slowWarm := slow.Calls()
	for i := 0; i < 30; i++ {
		if _, err := submitModel(cl, context.Background(), "m", []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if extra := slow.Calls() - slowWarm; extra > 3 {
		t.Fatalf("slow replica took %d of 30 post-warm-up batches, want ≈0", extra)
	}
	if fast.Calls() < 20 {
		t.Fatalf("fast replica took only %d batches", fast.Calls())
	}
}

// TestSchedulerAllUnhealthyRotates is the regression for the old
// nextQueue fallback: with every replica marked down, dispatch must keep
// rotating across all of them (serving degraded beats serving nothing),
// and the moment one recovers it must receive the traffic — the
// recovering-replica case the old comment promised but never tested.
func TestSchedulerAllUnhealthyRotates(t *testing.T) {
	for _, policy := range []SchedPolicy{SchedJSQ, SchedRoundRobin} {
		cl := New(Config{CacheSize: -1, Scheduler: SchedulerConfig{Policy: policy}})
		var reps []*container.Replica
		for i := 0; i < 3; i++ {
			rep, err := cl.Deploy(&stubModel{name: "m", label: i}, nil, serialQcfg())
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
		}
		for _, rep := range reps {
			if !cl.MarkUnhealthy(rep.ID) {
				t.Fatalf("MarkUnhealthy(%q) found nothing", rep.ID)
			}
		}
		s := modelScheduler(t, cl, "m")
		counts := map[string]int{}
		for i := 0; i < 9; i++ {
			counts[s.pick().replica.ID]++
		}
		if len(counts) != 3 {
			t.Fatalf("policy %v: all-unhealthy picks pinned to %d replicas: %v", policy, len(counts), counts)
		}
		for id, n := range counts {
			if n != 3 {
				t.Fatalf("policy %v: all-unhealthy rotation uneven: %s picked %d of 9", policy, id, n)
			}
		}

		// One replica recovers: every subsequent pick must route to it.
		if !cl.MarkHealthy(reps[1].ID) {
			t.Fatal("MarkHealthy found nothing")
		}
		for i := 0; i < 6; i++ {
			if got := s.pick().replica.ID; got != reps[1].ID {
				t.Fatalf("policy %v: pick %d after recovery = %s, want %s", policy, i, got, reps[1].ID)
			}
		}
		cl.Close()
	}
}

// TestHedgeRescuesStalledPrimary: requests routed to a replica that has
// stopped draining hedge to its sibling and complete; the caller sees
// exactly one result per submit.
func TestHedgeRescuesStalledPrimary(t *testing.T) {
	stuck := &blockModel{name: "m", release: make(chan struct{})}
	fast := &stubModel{name: "m", label: 7}
	cl := New(Config{CacheSize: -1, Scheduler: SchedulerConfig{
		Hedge: HedgeConfig{Enabled: true, BudgetFrac: 1.0},
	}})
	defer cl.Close()
	defer close(stuck.release) // unblock the parked batch before Close
	if _, err := cl.Deploy(stuck, nil, serialQcfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Deploy(fast, nil, serialQcfg()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		p, err := submitModel(cl, ctx, "m", []float64{float64(i)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if p.Label != 7 && p.Label != 99 {
			t.Fatalf("submit %d: label %d from neither replica", i, p.Label)
		}
	}
	st, ok := cl.SchedulerStats("m")
	if !ok {
		t.Fatal("no scheduler stats")
	}
	if st.HedgesIssued == 0 || st.HedgesWon == 0 {
		t.Fatalf("stalled primary never hedged: %+v", st)
	}
	if st.HedgesIssued > st.Submitted {
		t.Fatalf("hedges exceed offered load: %+v", st)
	}
}

// TestHedgeBudget: the budget admits hedges only up to BudgetFrac of
// offered load, and counts each hedge it admits.
func TestHedgeBudget(t *testing.T) {
	s := newScheduler("m", SchedulerConfig{Hedge: HedgeConfig{Enabled: true, BudgetFrac: 0.1}})
	s.submitted.Store(100)
	s.hedgesIssued.Store(9)
	if !s.reserveHedge() {
		t.Fatal("budget denied hedge 10 of 100 at 10%")
	}
	if n := s.hedgesIssued.Load(); n != 10 {
		t.Fatalf("admitted hedge left %d issued, want 10", n)
	}
	if s.reserveHedge() {
		t.Fatal("budget admitted hedge 11 of 100 at 10%")
	}
	if n := s.hedgesIssued.Load(); n != 10 {
		t.Fatalf("denied hedge left %d issued, want 10", n)
	}
	s.submitted.Store(0)
	s.hedgesIssued.Store(0)
	if s.reserveHedge() {
		t.Fatal("budget admitted a hedge before any load was offered")
	}
}

// TestHedgeFailoverOnPrimaryError: in hedged mode an erroring replica's
// requests fail over to a healthy sibling instead of surfacing the
// error.
func TestHedgeFailoverOnPrimaryError(t *testing.T) {
	bad := &errModel{name: "m"}
	good := &stubModel{name: "m", label: 5}
	cl := New(Config{CacheSize: -1, Scheduler: SchedulerConfig{
		Hedge: HedgeConfig{Enabled: true, BudgetFrac: 1.0},
	}})
	defer cl.Close()
	if _, err := cl.Deploy(bad, nil, serialQcfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Deploy(good, nil, serialQcfg()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p, err := submitModel(cl, context.Background(), "m", []float64{float64(i)})
		if err != nil {
			t.Fatalf("submit %d surfaced primary error: %v", i, err)
		}
		if p.Label != 5 {
			t.Fatalf("submit %d label = %d, want 5", i, p.Label)
		}
	}
	st, _ := cl.SchedulerStats("m")
	if st.Failovers == 0 {
		t.Fatalf("erroring replica produced no failovers: %+v", st)
	}
}

// TestReplicaStatusesLoad: the admin surface carries the scheduler's
// per-replica load estimate and hedge counters.
func TestReplicaStatusesLoad(t *testing.T) {
	m := &stubModel{name: "m", label: 1, delay: time.Millisecond}
	cl := New(Config{CacheSize: -1})
	defer cl.Close()
	rep, err := cl.Deploy(m, nil, serialQcfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := submitModel(cl, context.Background(), "m", []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	// A Result reaches its submitter before runBatch settles the in-flight
	// counters, so give the last batch a moment to finish its bookkeeping.
	st, ok := cl.ReplicaStatuses("m")[rep.ID]
	for deadline := time.Now().Add(time.Second); ok && st.InFlightBatches != 0 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
		st = cl.ReplicaStatuses("m")[rep.ID]
	}
	if !ok {
		t.Fatalf("replica %q missing from statuses", rep.ID)
	}
	if st.CompletedQueries != 8 {
		t.Fatalf("CompletedQueries = %d, want 8", st.CompletedQueries)
	}
	if st.ServiceEWMAMillis <= 0 {
		t.Fatalf("ServiceEWMAMillis = %v, want > 0", st.ServiceEWMAMillis)
	}
	if st.EstCostMillis <= 0 {
		t.Fatalf("EstCostMillis = %v, want > 0 once warm", st.EstCostMillis)
	}
	if st.Queued != 0 || st.InFlightBatches != 0 || st.InFlightQueries != 0 {
		t.Fatalf("idle replica reports load: %+v", st)
	}
	if st.HedgesFrom != 0 || st.HedgesWon != 0 {
		t.Fatalf("hedge counters nonzero without hedging: %+v", st)
	}
}

// TestSchedulerStatsUnknownModel: stats report absence, not zeroes.
func TestSchedulerStatsUnknownModel(t *testing.T) {
	cl := New(Config{CacheSize: -1})
	defer cl.Close()
	if _, ok := cl.SchedulerStats("nope"); ok {
		t.Fatal("unknown model reported scheduler stats")
	}
}
