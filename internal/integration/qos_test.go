//go:build integration

package integration

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clipper/internal/core"
	"clipper/internal/dataset"
	"clipper/internal/selection"
	"clipper/internal/workload"
)

// Multi-tenant QoS over real TCP containers. These tests are tagged
// integration (go test -tags=integration ./internal/integration/):
// they run whole noisy-neighbor scenarios at wall-clock durations, which
// is more load than the default tier-1 suite should carry.

// qosDataset is a small shared input set for the scenario drivers.
func qosDataset() *dataset.Dataset {
	return dataset.Gaussian(dataset.GaussianConfig{
		Name: "qos", N: 64, Dim: 8, NumClasses: 4,
		Separation: 3.0, Noise: 1.0, Seed: 17,
	})
}

// TestNoisyNeighborQoS: a Zipf-heavy closed-loop tenant and a low-rate
// latency-sensitive tenant share two real TCP replicas. With QoS on —
// weighted fair batching plus SLO admission — the quiet tenant's tail
// stays near its solo latency and sheds nothing, while the heavy
// tenant's backlog is bounded by its tight SLO, so it (and only it)
// sheds.
func TestNoisyNeighborQoS(t *testing.T) {
	cl := core.New(core.Config{CacheSize: -1})
	defer cl.Close()
	for i := 0; i < 2; i++ {
		m := &delayModel{name: "m", label: 1, delay: time.Millisecond}
		defer serveReplica(t, cl, m).Close()
	}

	quietApp, err := cl.RegisterApp(core.AppConfig{
		Name: "quiet", Models: []string{"m"}, Policy: selection.NewStatic(0),
		// 400ms: far above any cost estimate this setup can produce, even
		// with race-detector-inflated service EWMAs — the quiet tenant must
		// never shed.
		SLO: 400 * time.Millisecond, Shed: core.ShedReject, Weight: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	heavyApp, err := cl.RegisterApp(core.AppConfig{
		Name: "heavy", Models: []string{"m"}, Policy: selection.NewStatic(0),
		SLO: 5 * time.Millisecond, Shed: core.ShedReject, Weight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var mu sync.Mutex
	var lats []time.Duration
	var quietErrs atomic.Int64
	quietFn := func(s workload.Sample) {
		start := time.Now()
		if _, err := quietApp.Predict(ctx, s.X); err != nil {
			quietErrs.Add(1)
			return
		}
		mu.Lock()
		lats = append(lats, time.Since(start))
		mu.Unlock()
	}
	heavyFn := func(s workload.Sample) {
		if _, err := heavyApp.Predict(ctx, s.X); err != nil {
			time.Sleep(time.Millisecond) // shed: back off instead of hot-spinning
		}
	}

	heavyIssued, quietIssued := workload.NoisyNeighbor(ctx, qosDataset(), workload.NoisyNeighborConfig{
		HeavyWorkers: 128,
		QuietRate:    50,
		Duration:     1500 * time.Millisecond,
		Seed:         3,
	}, heavyFn, quietFn)
	if heavyIssued == 0 || quietIssued == 0 {
		t.Fatalf("scenario issued heavy=%d quiet=%d queries", heavyIssued, quietIssued)
	}

	if n := quietErrs.Load(); n != 0 {
		t.Errorf("quiet tenant saw %d errors, want 0 (its SLO is never at risk)", n)
	}
	if n := quietApp.Sheds.Value(); n != 0 {
		t.Errorf("quiet tenant shed %d queries, want 0", n)
	}
	if n := heavyApp.Sheds.Value(); n == 0 {
		t.Error("heavy tenant shed nothing: the admission gate never engaged")
	}
	if len(lats) == 0 {
		t.Fatal("no quiet-tenant latencies measured")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[len(lats)*99/100]
	// The quiet tenant's solo p99 on this setup is ~a few ms (one 1ms
	// batch plus wire time); 50ms of headroom tolerates CI jitter while
	// still catching FIFO-style inherited backlog, which would sit at the
	// heavy tenant's full queue depth.
	if p99 > 50*time.Millisecond {
		t.Errorf("quiet tenant p99 = %v under fair batching, want <= 50ms", p99)
	}
	t.Logf("quiet p99=%v n=%d; heavy sheds=%d of %d issued",
		p99, len(lats), heavyApp.Sheds.Value(), heavyIssued)
}

// TestQoSReplicaKillExactlyOne: two QoS tenants drive hedged traffic
// while a replica's TCP server is killed mid-run. Every Predict must
// still return exactly one outcome per call — rescued by the hedge or
// the failover path — for both tenants, and per-tenant served counts
// must land on the surviving replica's books.
func TestQoSReplicaKillExactlyOne(t *testing.T) {
	cl := core.New(core.Config{CacheSize: -1, Scheduler: core.SchedulerConfig{
		Hedge: core.HedgeConfig{Enabled: true, BudgetFrac: 1.0},
	}})
	defer cl.Close()

	victim := &delayModel{name: "m", label: 2, delay: 15 * time.Millisecond}
	victimSrv := serveReplica(t, cl, victim)
	survivor := &delayModel{name: "m", label: 2, delay: time.Millisecond}
	defer serveReplica(t, cl, survivor).Close()

	mon := cl.StartHealthMonitor(core.HealthConfig{
		Interval: 10 * time.Millisecond, Timeout: 100 * time.Millisecond, FailureThreshold: 2,
	})
	defer mon.Stop()

	// Loose SLOs: the admission gate must never fire here — this test is
	// about delivery under replica death, not shedding.
	apps := make(map[string]*core.Application, 2)
	for name, weight := range map[string]int{"gold": 4, "bronze": 1} {
		app, err := cl.RegisterApp(core.AppConfig{
			Name: name, Models: []string{"m"}, Policy: selection.NewStatic(0),
			SLO: time.Second, Shed: core.ShedReject, Weight: weight,
		})
		if err != nil {
			t.Fatal(err)
		}
		apps[name] = app
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const workersPerTenant, perWorker = 4, 40
	results := map[string]*atomic.Int64{"gold": {}, "bronze": {}}
	var wg sync.WaitGroup
	var killOnce sync.Once
	for name, app := range apps {
		for w := 0; w < workersPerTenant; w++ {
			wg.Add(1)
			go func(name string, app *core.Application, w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					if name == "gold" && w == 0 && i == perWorker/4 {
						// Kill mid-run, with both tenants' requests queued on
						// the victim and hedges racing its in-flight batches.
						killOnce.Do(func() { victimSrv.Close() })
					}
					resp, err := app.Predict(ctx, []float64{float64(w*perWorker + i)})
					if err != nil {
						t.Errorf("%s worker %d predict %d: %v", name, w, i, err)
						return
					}
					if resp.Label != 2 {
						t.Errorf("%s worker %d predict %d: label %d", name, w, i, resp.Label)
						return
					}
					results[name].Add(1)
				}
			}(name, app, w)
		}
	}
	wg.Wait()
	for name, n := range results {
		if got := n.Load(); got != workersPerTenant*perWorker {
			t.Errorf("tenant %s: %d results for %d predicts", name, got, workersPerTenant*perWorker)
		}
		if sheds := apps[name].Sheds.Value(); sheds != 0 {
			t.Errorf("tenant %s shed %d with a 1s SLO", name, sheds)
		}
	}

	// The corpse must be excised, and the survivor's books must show both
	// tenants served.
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
	served := map[string]int64{}
	for _, st := range cl.ReplicaStatuses("m") {
		for _, ten := range st.Tenants {
			served[ten.Tenant] += ten.Served
		}
	}
	for name := range apps {
		if served[name] == 0 {
			t.Errorf("tenant %s has no served queries on any replica's books", name)
		}
	}
}
