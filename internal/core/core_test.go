package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clipper/internal/batching"
	"clipper/internal/container"
	"clipper/internal/selection"
)

// stubModel predicts a fixed label, counting invocations and optionally
// sleeping to simulate a slow container.
type stubModel struct {
	name  string
	label int
	delay time.Duration

	mu    sync.Mutex
	calls int

	poolReads atomic.Int64 // PoolStats calls, when wrapped as a poolStubModel
}

func (s *stubModel) Info() container.Info {
	return container.Info{Name: s.name, Version: 1, NumClasses: 10}
}

func (s *stubModel) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	out := make([]container.Prediction, len(xs))
	for i := range out {
		out[i] = container.Prediction{Label: s.label}
	}
	return out, nil
}

func (s *stubModel) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func qcfg() batching.QueueConfig {
	return batching.QueueConfig{Controller: batching.NewFixed(8)}
}

func newClipperWithModels(t *testing.T, models ...*stubModel) *Clipper {
	t.Helper()
	cl := New(Config{CacheSize: 1024})
	for _, m := range models {
		if _, err := cl.Deploy(m, nil, qcfg()); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestDeployAndModels(t *testing.T) {
	cl := newClipperWithModels(t, &stubModel{name: "a"}, &stubModel{name: "b"})
	models := cl.Models()
	if len(models) != 2 {
		t.Fatalf("Models = %v", models)
	}
	info, ok := cl.ModelInfo("a")
	if !ok || info.Name != "a" {
		t.Fatalf("ModelInfo = %+v %v", info, ok)
	}
	if _, ok := cl.ModelInfo("zzz"); ok {
		t.Fatal("unknown model reported present")
	}
}

func TestDeployVersionConflict(t *testing.T) {
	cl := New(Config{})
	defer cl.Close()
	if _, err := cl.Deploy(&versionedModel{name: "m", version: 2}, nil, qcfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Deploy(&stubModel{name: "m"}, nil, qcfg()); err == nil {
		t.Fatal("downgrade to v1 not refused")
	}
}

type versionedModel struct {
	name    string
	version int
}

func (v *versionedModel) Info() container.Info {
	return container.Info{Name: v.name, Version: v.version}
}
func (v *versionedModel) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	return make([]container.Prediction, len(xs)), nil
}

func TestRegisterAppValidation(t *testing.T) {
	cl := newClipperWithModels(t, &stubModel{name: "m"})
	if _, err := cl.RegisterApp(AppConfig{Name: "", Models: []string{"m"}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := cl.RegisterApp(AppConfig{Name: "a"}); err == nil {
		t.Fatal("no models accepted")
	}
	if _, err := cl.RegisterApp(AppConfig{Name: "a", Models: []string{"nope"}}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := cl.RegisterApp(AppConfig{Name: "a", Models: []string{"m"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RegisterApp(AppConfig{Name: "a", Models: []string{"m"}}); err == nil {
		t.Fatal("duplicate app accepted")
	}
	app, ok := cl.App("a")
	if !ok || app.Name() != "a" {
		t.Fatal("App lookup failed")
	}
}

func TestPredictSingleModel(t *testing.T) {
	m := &stubModel{name: "m", label: 4}
	cl := newClipperWithModels(t, m)
	app, err := cl.RegisterApp(AppConfig{
		Name: "app", Models: []string{"m"}, Policy: selection.NewStatic(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := app.Predict(context.Background(), []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Label != 4 || resp.Missing != 0 || resp.Selected != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Latency <= 0 {
		t.Fatal("latency not measured")
	}
}

func TestPredictEnsembleMajority(t *testing.T) {
	ms := []*stubModel{
		{name: "m0", label: 1},
		{name: "m1", label: 1},
		{name: "m2", label: 2},
	}
	cl := newClipperWithModels(t, ms[0], ms[1], ms[2])
	app, err := cl.RegisterApp(AppConfig{
		Name: "app", Models: []string{"m0", "m1", "m2"}, Policy: selection.NewExp4(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := app.Predict(context.Background(), []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Label != 1 {
		t.Fatalf("Label = %d, want majority 1", resp.Label)
	}
	if resp.Selected != 3 || resp.Missing != 0 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Confidence < 0.6 || resp.Confidence > 0.7 {
		t.Fatalf("Confidence = %v, want ~2/3", resp.Confidence)
	}
}

func TestPredictUsesCache(t *testing.T) {
	m := &stubModel{name: "m", label: 3}
	cl := newClipperWithModels(t, m)
	app, _ := cl.RegisterApp(AppConfig{Name: "app", Models: []string{"m"}, Policy: selection.NewStatic(0)})
	x := []float64{9, 9}
	for i := 0; i < 5; i++ {
		if _, err := app.Predict(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Calls(); got != 1 {
		t.Fatalf("model invoked %d times for identical query, want 1", got)
	}
	if hits, _ := cl.Cache().Stats(); hits != 4 {
		t.Fatalf("cache hits = %d, want 4", hits)
	}
}

func TestPredictNoCache(t *testing.T) {
	m := &stubModel{name: "m", label: 3}
	cl := New(Config{CacheSize: -1})
	defer cl.Close()
	if _, err := cl.Deploy(m, nil, qcfg()); err != nil {
		t.Fatal(err)
	}
	app, _ := cl.RegisterApp(AppConfig{Name: "app", Models: []string{"m"}, Policy: selection.NewStatic(0)})
	x := []float64{9, 9}
	for i := 0; i < 3; i++ {
		if _, err := app.Predict(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Calls(); got != 3 {
		t.Fatalf("cacheless model invoked %d times, want 3", got)
	}
	if cl.Cache() != nil {
		t.Fatal("cache should be disabled")
	}
}

func TestStragglerMitigationBoundsLatency(t *testing.T) {
	fast := &stubModel{name: "fast", label: 1}
	slow := &stubModel{name: "slow", label: 2, delay: 300 * time.Millisecond}
	cl := newClipperWithModels(t, fast, slow)
	slo := 50 * time.Millisecond
	app, _ := cl.RegisterApp(AppConfig{
		Name: "app", Models: []string{"fast", "slow"},
		Policy: selection.NewExp4(0), SLO: slo,
	})
	start := time.Now()
	resp, err := app.Predict(context.Background(), []float64{1})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 4*slo {
		t.Fatalf("latency %v far exceeds SLO %v", elapsed, slo)
	}
	if resp.Missing != 1 {
		t.Fatalf("Missing = %d, want 1 (the slow model)", resp.Missing)
	}
	if resp.Label != 1 {
		t.Fatalf("Label = %d, want fast model's 1", resp.Label)
	}
	// Confidence reflects the dropped prediction: only half the ensemble
	// weight agrees.
	if resp.Confidence > 0.6 {
		t.Fatalf("Confidence = %v, want depressed ~0.5", resp.Confidence)
	}
}

func TestNoSLOWaitsForStragglers(t *testing.T) {
	slow := &stubModel{name: "slow", label: 2, delay: 100 * time.Millisecond}
	cl := newClipperWithModels(t, slow)
	app, _ := cl.RegisterApp(AppConfig{
		Name: "app", Models: []string{"slow"}, Policy: selection.NewStatic(0),
	})
	resp, err := app.Predict(context.Background(), []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Missing != 0 || resp.Label != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Latency < 100*time.Millisecond {
		t.Fatalf("latency %v shorter than model delay", resp.Latency)
	}
}

func TestRobustDefaultOnLowConfidence(t *testing.T) {
	ms := []*stubModel{
		{name: "m0", label: 1},
		{name: "m1", label: 2},
		{name: "m2", label: 3},
	}
	cl := newClipperWithModels(t, ms[0], ms[1], ms[2])
	app, _ := cl.RegisterApp(AppConfig{
		Name: "app", Models: []string{"m0", "m1", "m2"},
		Policy:              selection.NewExp4(0),
		ConfidenceThreshold: 0.9,
		DefaultLabel:        7,
	})
	resp, err := app.Predict(context.Background(), []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.UsedDefault || resp.Label != 7 {
		t.Fatalf("resp = %+v, want default label 7", resp)
	}
	if app.Defaults.Value() != 1 {
		t.Fatalf("Defaults = %d", app.Defaults.Value())
	}
}

func TestFeedbackUpdatesState(t *testing.T) {
	good := &stubModel{name: "good", label: 5}
	bad := &stubModel{name: "bad", label: 9}
	cl := newClipperWithModels(t, good, bad)
	app, _ := cl.RegisterApp(AppConfig{
		Name: "app", Models: []string{"good", "bad"}, Policy: selection.NewExp4(0.5),
	})
	for i := 0; i < 20; i++ {
		x := []float64{float64(i)}
		if err := app.Feedback(context.Background(), x, 5); err != nil {
			t.Fatal(err)
		}
	}
	state, err := app.State("")
	if err != nil {
		t.Fatal(err)
	}
	if state.Weights[0] <= state.Weights[1] {
		t.Fatalf("feedback did not favor the good model: %v", state.Weights)
	}
	if app.Feedbacks.Value() != 20 {
		t.Fatalf("Feedbacks = %d", app.Feedbacks.Value())
	}
}

func TestContextIsolation(t *testing.T) {
	m0 := &stubModel{name: "m0", label: 0}
	m1 := &stubModel{name: "m1", label: 1}
	cl := newClipperWithModels(t, m0, m1)
	app, _ := cl.RegisterApp(AppConfig{
		Name: "app", Models: []string{"m0", "m1"}, Policy: selection.NewExp4(0.5),
	})
	// User A's truth is 0; user B's truth is 1.
	for i := 0; i < 15; i++ {
		x := []float64{float64(i)}
		if err := app.FeedbackContext(context.Background(), "userA", x, 0); err != nil {
			t.Fatal(err)
		}
		if err := app.FeedbackContext(context.Background(), "userB", x, 1); err != nil {
			t.Fatal(err)
		}
	}
	sa, _ := app.State("userA")
	sb, _ := app.State("userB")
	if sa.Weights[0] <= sa.Weights[1] {
		t.Fatalf("userA state wrong: %v", sa.Weights)
	}
	if sb.Weights[1] <= sb.Weights[0] {
		t.Fatalf("userB state wrong: %v", sb.Weights)
	}
}

func TestFeedbackJoinsThroughCache(t *testing.T) {
	m := &stubModel{name: "m", label: 1}
	cl := newClipperWithModels(t, m)
	app, _ := cl.RegisterApp(AppConfig{
		Name: "app", Models: []string{"m"}, Policy: selection.NewExp3(0.1),
	})
	x := []float64{3, 1, 4}
	if _, err := app.Predict(context.Background(), x); err != nil {
		t.Fatal(err)
	}
	callsAfterPredict := m.Calls()
	if err := app.Feedback(context.Background(), x, 1); err != nil {
		t.Fatal(err)
	}
	if m.Calls() != callsAfterPredict {
		t.Fatalf("feedback re-evaluated the model (%d -> %d calls); cache join failed",
			callsAfterPredict, m.Calls())
	}
}

func TestReplicaRoundRobin(t *testing.T) {
	r1 := &stubModel{name: "m", label: 1}
	r2 := &stubModel{name: "m", label: 1}
	cl := New(Config{CacheSize: -1}) // disable cache so each query hits a replica
	defer cl.Close()
	if _, err := cl.Deploy(r1, nil, qcfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Deploy(r2, nil, qcfg()); err != nil {
		t.Fatal(err)
	}
	app, _ := cl.RegisterApp(AppConfig{Name: "app", Models: []string{"m"}, Policy: selection.NewStatic(0)})
	for i := 0; i < 10; i++ {
		if _, err := app.Predict(context.Background(), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if r1.Calls() == 0 || r2.Calls() == 0 {
		t.Fatalf("replica distribution r1=%d r2=%d, want both > 0", r1.Calls(), r2.Calls())
	}
	if len(cl.ReplicaQueues("m")) != 2 {
		t.Fatal("expected two replica queues")
	}
}

func TestSchedulerCursorOverflow(t *testing.T) {
	// Regression: the rotation cursor is a free-running atomic.Uint64;
	// int(cursor.Add(1)) turns negative once the counter passes MaxInt64,
	// which used to index rqs out of range. Seed the cursor just below the
	// overflow boundaries and drive it across, under both policies.
	for _, policy := range []SchedPolicy{SchedRoundRobin, SchedJSQ} {
		cl := New(Config{CacheSize: -1, Scheduler: SchedulerConfig{Policy: policy}})
		for i := 0; i < 3; i++ {
			if _, err := cl.Deploy(&stubModel{name: "m", label: 1}, nil, qcfg()); err != nil {
				t.Fatal(err)
			}
		}
		cl.mu.Lock()
		s := cl.scheds["m"]
		cl.mu.Unlock()
		for _, seed := range []uint64{math.MaxInt64 - 2, math.MaxUint64 - 2} {
			s.cursor.Store(seed)
			for i := 0; i < 8; i++ {
				if rq := s.pick(); rq == nil {
					t.Fatalf("policy %v: pick after cursor=%d+%d returned nil", policy, seed, i)
				}
			}
		}
		cl.Close()
	}
}

func TestConcurrentPredicts(t *testing.T) {
	m := &stubModel{name: "m", label: 2, delay: time.Millisecond}
	cl := newClipperWithModels(t, m)
	app, _ := cl.RegisterApp(AppConfig{Name: "app", Models: []string{"m"}, Policy: selection.NewStatic(0)})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				x := []float64{float64(g), float64(i)}
				resp, err := app.Predict(context.Background(), x)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Label != 2 {
					t.Errorf("Label = %d", resp.Label)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if app.PredLatency.Count() != 320 {
		t.Fatalf("prediction count = %d", app.PredLatency.Count())
	}
}

func TestCloseLifecycle(t *testing.T) {
	m := &stubModel{name: "m", label: 1}
	stopped := false
	cl := New(Config{})
	if _, err := cl.Deploy(m, func() { stopped = true }, qcfg()); err != nil {
		t.Fatal(err)
	}
	app, _ := cl.RegisterApp(AppConfig{Name: "app", Models: []string{"m"}, Policy: selection.NewStatic(0)})
	cl.Close()
	cl.Close() // idempotent
	if !stopped {
		t.Fatal("replica stop hook not invoked")
	}
	if _, err := cl.Deploy(m, nil, qcfg()); err == nil {
		t.Fatal("Deploy after Close accepted")
	}
	// Predictions after close render no predictions (all models missing).
	resp, err := app.Predict(context.Background(), []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Missing != 1 || resp.Label != -1 {
		t.Fatalf("post-close resp = %+v", resp)
	}
}

func TestDeployRemoteConns(t *testing.T) {
	// Host a real RPC container and deploy it through the pooled dial
	// path; predictions must flow end to end at Conns > 1.
	addr, srv, err := container.Serve(&stubModel{name: "remote-m", label: 3}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := New(Config{CacheSize: -1})
	defer cl.Close()
	rep, err := cl.DeployRemote(addr, time.Second, 3,
		batching.QueueConfig{Controller: batching.NewFixed(4)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pred.Info().Name != "remote-m" {
		t.Fatalf("deployed %q", rep.Pred.Info().Name)
	}
	app, err := cl.RegisterApp(AppConfig{
		Name: "a", Models: []string{"remote-m"}, Policy: selection.NewStatic(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		resp, err := app.Predict(context.Background(), []float64{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Label != 3 {
			t.Fatalf("label = %d, want 3", resp.Label)
		}
	}
}

func TestDeployRemoteDialFailure(t *testing.T) {
	cl := New(Config{})
	defer cl.Close()
	if _, err := cl.DeployRemote("127.0.0.1:1", 50*time.Millisecond, 2,
		batching.QueueConfig{Controller: batching.NewFixed(4)}); err == nil {
		t.Fatal("DeployRemote to a dead address succeeded")
	}
}
