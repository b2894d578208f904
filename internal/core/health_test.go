package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"clipper/internal/container"
	"clipper/internal/selection"
)

// flakyModel is a stub predictor whose Ping can be failed on demand.
type flakyModel struct {
	stubModel
	mu       sync.Mutex
	pingFail bool
}

func (f *flakyModel) SetPingFail(v bool) {
	f.mu.Lock()
	f.pingFail = v
	f.mu.Unlock()
}

func (f *flakyModel) Ping(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pingFail {
		return errors.New("container unreachable")
	}
	return nil
}

func TestHealthMonitorMarksDownAndRecovers(t *testing.T) {
	good := &flakyModel{stubModel: stubModel{name: "m", label: 1}}
	bad := &flakyModel{stubModel: stubModel{name: "m", label: 2}}
	cl := New(Config{CacheSize: -1})
	defer cl.Close()
	if _, err := cl.Deploy(good, nil, qcfg()); err != nil {
		t.Fatal(err)
	}
	repBad, err := cl.Deploy(bad, nil, qcfg())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := cl.RegisterApp(AppConfig{Name: "a", Models: []string{"m"}, Policy: selection.NewStatic(0)})

	mon := cl.StartHealthMonitor(10 * time.Millisecond)
	defer mon.Stop()

	// Fail the second replica's probes; after >= threshold rounds it
	// must be marked down.
	bad.SetPingFail(true)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if h := cl.ReplicaStatuses("m"); !h[repBad.ID].Healthy {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h := cl.ReplicaStatuses("m"); h[repBad.ID].Healthy {
		t.Fatal("failing replica never marked unhealthy")
	}

	// All traffic should now go to the healthy replica.
	goodBefore, badBefore := good.Calls(), bad.Calls()
	for i := 0; i < 10; i++ {
		resp, err := app.Predict(context.Background(), []float64{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Label != 1 {
			t.Fatalf("query served by unhealthy replica (label %d)", resp.Label)
		}
	}
	if bad.Calls() != badBefore {
		t.Fatal("unhealthy replica still receiving queries")
	}
	if good.Calls() != goodBefore+10 {
		t.Fatalf("healthy replica got %d of 10 queries", good.Calls()-goodBefore)
	}

	// Recovery: probes succeed again -> replica rejoins rotation.
	bad.SetPingFail(false)
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if h := cl.ReplicaStatuses("m"); h[repBad.ID].Healthy {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h := cl.ReplicaStatuses("m"); !h[repBad.ID].Healthy {
		t.Fatal("recovered replica never marked healthy")
	}
	badBefore = bad.Calls()
	for i := 0; i < 10; i++ {
		if _, err := app.Predict(context.Background(), []float64{float64(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if bad.Calls() == badBefore {
		t.Fatal("recovered replica got no traffic")
	}
}

func TestHealthFallbackWhenAllDown(t *testing.T) {
	m := &flakyModel{stubModel: stubModel{name: "m", label: 3}}
	cl := New(Config{CacheSize: -1})
	defer cl.Close()
	rep, err := cl.Deploy(m, nil, qcfg())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := cl.RegisterApp(AppConfig{Name: "a", Models: []string{"m"}, Policy: selection.NewStatic(0)})
	if !cl.MarkUnhealthy(rep.ID) {
		t.Fatal("MarkUnhealthy failed")
	}
	// With every replica down, routing falls back rather than failing.
	resp, err := app.Predict(context.Background(), []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Label != 3 {
		t.Fatalf("fallback routing broken: %+v", resp)
	}
}

func TestManualHealthMarks(t *testing.T) {
	m := &stubModel{name: "m", label: 1}
	cl := New(Config{})
	defer cl.Close()
	rep, err := cl.Deploy(m, nil, qcfg())
	if err != nil {
		t.Fatal(err)
	}
	if !cl.MarkUnhealthy(rep.ID) {
		t.Fatal("MarkUnhealthy not found")
	}
	if h := cl.ReplicaStatuses("m"); h[rep.ID].Healthy {
		t.Fatal("mark down not applied")
	}
	if !cl.MarkHealthy(rep.ID) {
		t.Fatal("MarkHealthy not found")
	}
	if h := cl.ReplicaStatuses("m"); !h[rep.ID].Healthy {
		t.Fatal("mark up not applied")
	}
	if cl.MarkUnhealthy("nope") || cl.MarkHealthy("nope") {
		t.Fatal("unknown replica ids must report false")
	}
}

func TestProbeOnceIgnoresNonPingers(t *testing.T) {
	m := &stubModel{name: "m", label: 1} // no Ping method
	cl := New(Config{})
	defer cl.Close()
	rep, err := cl.Deploy(m, nil, qcfg())
	if err != nil {
		t.Fatal(err)
	}
	mon := cl.StartHealthMonitor(time.Hour)
	defer mon.Stop()
	mon.probeOnce()
	if h := cl.ReplicaStatuses("m"); !h[rep.ID].Healthy {
		t.Fatal("non-pinger replica must stay healthy")
	}
}

func TestHealthMonitorStopIdempotent(t *testing.T) {
	cl := New(Config{})
	defer cl.Close()
	mon := cl.StartHealthMonitor(5 * time.Millisecond)
	mon.Stop()
	mon.Stop()
}

func TestHealthWithRemoteContainer(t *testing.T) {
	// End-to-end: a real RPC container that dies mid-serve gets detected
	// by ping probes and routed around.
	live := &stubModel{name: "m", label: 1}
	dying := &stubModel{name: "m", label: 2}

	liveRemote, liveStop, err := container.Loopback(live)
	if err != nil {
		t.Fatal(err)
	}
	defer liveStop()
	addr, srv, err := container.Serve(dying, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dyingRemote, err := container.DialConns(addr, time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dyingRemote.Close()

	cl := New(Config{CacheSize: -1})
	defer cl.Close()
	if _, err := cl.Deploy(liveRemote, nil, qcfg()); err != nil {
		t.Fatal(err)
	}
	repDying, err := cl.Deploy(dyingRemote, nil, qcfg())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := cl.RegisterApp(AppConfig{Name: "a", Models: []string{"m"}, Policy: selection.NewStatic(0)})

	mon := cl.StartHealthMonitor(10 * time.Millisecond)
	defer mon.Stop()

	srv.Close() // kill the container process

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if h := cl.ReplicaStatuses("m"); !h[repDying.ID].Healthy {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h := cl.ReplicaStatuses("m"); h[repDying.ID].Healthy {
		t.Fatal("dead container never detected")
	}
	for i := 0; i < 5; i++ {
		resp, err := app.Predict(context.Background(), []float64{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Label != 1 {
			t.Fatalf("query routed to dead container: %+v", resp)
		}
	}
}
