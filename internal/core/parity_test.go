package core

import (
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateShape = flag.Bool("update", false, "rewrite testdata/metrics_shape.golden from this tree")

// parityNode builds a quiesced node: a pooled replica with a measured
// window, a replica with a pinned window, and a QoS app over both that
// has served a concurrent burst and some feedback. It returns once every
// replica's completed count has settled, so no read-out races the load
// model.
func parityNode(t *testing.T) *Clipper {
	t.Helper()
	cl := New(Config{CacheSize: 1024})
	t.Cleanup(cl.Close)
	if _, err := cl.Deploy(&poolStubModel{stubModel{name: "m", label: 3, delay: time.Millisecond}}, nil, qcfg()); err != nil {
		t.Fatal(err)
	}
	pinned := qcfg()
	pinned.InFlight = 1
	if _, err := cl.Deploy(&stubModel{name: "p", label: 3}, nil, pinned); err != nil {
		t.Fatal(err)
	}
	app, err := cl.RegisterApp(AppConfig{
		Name: "demo", Models: []string{"m", "p"},
		SLO: time.Second, Weight: 2, Shed: ShedReject,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := app.PredictContext(context.Background(), "", []float64{float64(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 3; i++ {
		if err := app.Feedback(context.Background(), []float64{float64(i)}, 3); err != nil {
			t.Fatal(err)
		}
	}
	for _, model := range []string{"m", "p"} {
		for q := cl.ReplicaQueues(model)[0]; q.LoadStats().Completed != n; {
			runtime.Gosched()
		}
	}
	return cl
}

// scrapeText renders the node's registry, and checks that the scrape
// read each pooled replica's pool once: every family renders from one
// read of its source.
func scrapeText(t *testing.T, cl *Clipper) string {
	t.Helper()
	poolReads := func() (reads, pooled int64) {
		for _, model := range cl.Models() {
			for _, rq := range cl.modelReplicas(model) {
				if p, ok := rq.replica.Pred.(*poolStubModel); ok {
					reads += p.poolReads.Load()
					pooled++
				}
			}
		}
		return reads, pooled
	}
	before, pooled := poolReads()
	var buf strings.Builder
	if err := cl.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if after, _ := poolReads(); after-before != pooled {
		t.Errorf("one scrape called PoolStats %d times over %d pooled replicas, want once each", after-before, pooled)
	}
	return buf.String()
}

// TestReadoutParity: on one quiesced node, every family that mirrors a
// ReplicaStatus, AppStatus or SchedulerStats field carries that field's
// value, after the same conversion from the raw snapshot. Durations are
// converted back to whole nanoseconds from the JSON's milliseconds and
// then to seconds, as the families do.
func TestReadoutParity(t *testing.T) {
	cl := parityNode(t)
	series := map[string]float64{}
	for _, l := range strings.Split(scrapeText(t, cl), "\n") {
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		i := strings.LastIndexByte(l, ' ')
		v, err := strconv.ParseFloat(l[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", l, err)
		}
		series[l[:i]] = v
	}
	check := func(key string, want float64, present bool) {
		t.Helper()
		got, ok := series[key]
		switch {
		case ok != present:
			t.Errorf("%s present %v, want %v", key, ok, present)
		case ok && got != want:
			t.Errorf("%s = %v, status says %v", key, got, want)
		}
	}
	seconds := func(ms float64) float64 { return time.Duration(math.Round(ms * 1e6)).Seconds() }

	tenants := 0
	for _, model := range []string{"m", "p"} {
		sched, ok := cl.SchedulerStats(model)
		if !ok {
			t.Fatalf("no scheduler for %s", model)
		}
		ml := `{model="` + model + `"}`
		check("clipper_sched_replicas"+ml, float64(sched.Replicas), true)
		check("clipper_sched_submitted_total"+ml, float64(sched.Submitted), true)
		check("clipper_sched_hedges_issued_total"+ml, float64(sched.HedgesIssued), true)
		check("clipper_sched_hedges_won_total"+ml, float64(sched.HedgesWon), true)
		check("clipper_sched_hedges_wasted_total"+ml, float64(sched.HedgesWasted), true)
		check("clipper_sched_failovers_total"+ml, float64(sched.Failovers), true)

		sts := cl.ReplicaStatuses(model)
		if len(sts) != 1 {
			t.Fatalf("%s: %d replicas, want 1", model, len(sts))
		}
		for id, st := range sts {
			rl := `{model="` + model + `",replica="` + id + `"}`
			check("clipper_replica_healthy"+rl, boolGauge(st.Healthy), true)
			check("clipper_queue_window"+rl, float64(st.Window), true)
			check("clipper_adaptive_window"+rl, float64(st.Window), !st.WindowPinned)
			check("clipper_pool_live_conns"+rl, float64(st.LiveConns), st.TotalConns > 0)
			check("clipper_pool_conns"+rl, float64(st.TotalConns), st.TotalConns > 0)
			check("clipper_queue_queued"+rl, float64(st.Queued), true)
			check("clipper_queue_in_flight_batches"+rl, float64(st.InFlightBatches), true)
			check("clipper_queue_in_flight_queries"+rl, float64(st.InFlightQueries), true)
			check("clipper_queue_completed_queries_total"+rl, float64(st.CompletedQueries), true)
			check("clipper_replica_service_ewma_seconds"+rl, seconds(st.ServiceEWMAMillis), true)
			check("clipper_replica_est_cost_seconds"+rl, seconds(st.EstCostMillis), st.EstCostMillis > 0)
			check("clipper_queue_arrival_rate"+rl, st.ArrivalRate, true)
			check("clipper_replica_hedges_from_total"+rl, float64(st.HedgesFrom), true)
			check("clipper_replica_hedges_won_total"+rl, float64(st.HedgesWon), true)
			if len(st.Tenants) == 0 {
				t.Errorf("%s: no tenants on a QoS app's replica", id)
			}
			tenants += len(st.Tenants)
			for _, ten := range st.Tenants {
				tl := `{model="` + model + `",replica="` + id + `",tenant="` + ten.Tenant + `"}`
				check("clipper_tenant_queued"+tl, float64(ten.Queued), true)
				check("clipper_tenant_served_total"+tl, float64(ten.Served), true)
			}
			if st.CompletedQueries == 0 || st.ServiceEWMAMillis == 0 || st.EstCostMillis == 0 {
				t.Errorf("%s: a settled replica reads cold: %+v", id, st)
			}
		}
	}
	for key := range series {
		if strings.HasPrefix(key, "clipper_tenant_queued{") {
			tenants--
		}
	}
	if tenants != 0 {
		t.Errorf("the scrape's tenant series and the statuses' tenants differ by %d", tenants)
	}

	apps := cl.AppStatuses()
	st, ok := apps["demo"]
	if !ok || len(apps) != 1 {
		t.Fatalf("AppStatuses = %v", apps)
	}
	al := `{app="demo"}`
	check("clipper_app_predictions_total"+al, float64(st.Predictions), true)
	check("clipper_app_latency_seconds_count"+al, float64(st.Predictions), true)
	check("clipper_app_feedbacks_total"+al, float64(st.Feedbacks), true)
	check("clipper_app_defaults_total"+al, float64(st.Defaults), true)
	check("clipper_app_sheds_total"+al, float64(st.Sheds), true)
	check("clipper_app_degrades_total"+al, float64(st.Degrades), true)
	check("clipper_app_qos"+al, boolGauge(st.QoS), true)
	check("clipper_app_weight"+al, float64(st.Weight), true)
	check("clipper_app_slo_seconds"+al, st.SLOMillis/1e3, true)
	if st.Predictions == 0 || st.Feedbacks == 0 {
		t.Errorf("app status reads idle: %+v", st)
	}
}

// TestScrapeShape pins the scrape's family inventory on the parity node:
// every HELP and TYPE line, and every distinct series name with its label
// names in emitted order. Sample values and label values are left out, so
// the fixture holds what a dashboard or alert rule depends on and nothing
// that moves with timing. After a deliberate change to the inventory,
// rewrite it with go test ./internal/core/ -run TestScrapeShape -update.
func TestScrapeShape(t *testing.T) {
	var shape []string
	seen := map[string]bool{}
	for _, l := range strings.Split(scrapeText(t, parityNode(t)), "\n") {
		if l == "" {
			continue
		}
		if !strings.HasPrefix(l, "#") {
			l = l[:strings.LastIndexByte(l, ' ')]
			if i := strings.IndexByte(l, '{'); i >= 0 {
				var names []string
				for _, kv := range strings.Split(l[i+1:len(l)-1], `",`) {
					names = append(names, kv[:strings.IndexByte(kv, '=')])
				}
				l = l[:i] + "{" + strings.Join(names, ",") + "}"
			}
		}
		if !seen[l] {
			seen[l] = true
			shape = append(shape, l)
		}
	}
	got := strings.Join(shape, "\n") + "\n"
	path := filepath.Join("testdata", "metrics_shape.golden")
	if *updateShape {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("scrape shape differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
