package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"clipper/internal/rpc"
)

// poolStubModel is a stubModel whose replica pretends to own an RPC
// connection pool, so the pool families collect without a real network.
type poolStubModel struct {
	stubModel
}

func (p *poolStubModel) PoolStats() rpc.PoolStats {
	p.poolReads.Add(1)
	return rpc.PoolStats{
		Conns: 4, Live: 3,
		BytesInFlight: 128, Writes: 10, WriteQueued: 2,
		WriteWait: 5 * time.Millisecond,
	}
}

// TestMetricsCoverage deploys a replica with a measured window and a
// (stubbed) pool, registers a QoS app, serves traffic, and asserts the
// scrape carries every family group the acceptance criteria name: cache,
// queue, scheduler, pool, adaptive controller, and QoS.
func TestMetricsCoverage(t *testing.T) {
	cl := New(Config{CacheSize: 1024})
	t.Cleanup(cl.Close)
	pred := &poolStubModel{stubModel{name: "m", label: 3}}
	if _, err := cl.Deploy(pred, nil, qcfg()); err != nil { // a measured window: the adaptive families exist for it ...
		t.Fatal(err)
	}
	pinned := qcfg()
	pinned.InFlight = 1 // ... and not for a pinned one
	if _, err := cl.Deploy(&stubModel{name: "p"}, nil, pinned); err != nil {
		t.Fatal(err)
	}
	app, err := cl.RegisterApp(AppConfig{
		Name: "demo", Models: []string{"m"},
		SLO: time.Second, Weight: 2, Shed: ShedReject,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := app.PredictContext(context.Background(), "", []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A predict returns once its reply is delivered, but runBatch counts the
	// batch as completed only after every reply is out: wait for the count.
	for q := cl.ReplicaQueues("m")[0]; q.LoadStats().Completed != 4; {
		runtime.Gosched()
	}

	var buf strings.Builder
	if err := cl.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		// cache
		"# TYPE clipper_cache_hits_total counter",
		"# TYPE clipper_cache_shard_entries gauge",
		"clipper_cache_shard_hits_total{shard=\"0\"}",
		"# TYPE clipper_cache_shard_probation_entries gauge",
		"clipper_cache_shard_probation_entries{shard=\"0\"}",
		"clipper_cache_promotions_total 0",
		"clipper_cache_evictions_total 0",
		// queue / replica load
		`clipper_queue_queued{model="m",replica="m:v1/0"} 0`,
		`clipper_queue_completed_queries_total{model="m",replica="m:v1/0"} 4`,
		"# TYPE clipper_queue_arrival_rate gauge",
		`clipper_queue_arrival_rate{model="m",replica="m:v1/0"} `,
		`clipper_queue_dispatch_holds_total{model="m",replica="m:v1/0"} 0`,
		`clipper_queue_dispatch_hold_seconds_total{model="m",replica="m:v1/0"} 0`,
		`clipper_replica_healthy{model="m",replica="m:v1/0"} 1`,
		"# TYPE clipper_batch_size histogram",
		`clipper_batch_latency_seconds_count{model="m",replica="m:v1/0"} `,
		`clipper_batch_size_bucket{model="m",replica="m:v1/0",le="4096"}`,
		`clipper_queue_delay_seconds_bucket{model="m",replica="m:v1/0",le="+Inf"} 4`,
		// scheduler
		`clipper_sched_submitted_total{model="m"} 4`,
		`clipper_sched_replicas{model="m"} 1`,
		"# TYPE clipper_sched_hedges_issued_total counter",
		// pool
		`clipper_pool_live_conns{model="m",replica="m:v1/0"} 3`,
		`clipper_pool_write_queued_total{model="m",replica="m:v1/0"} 2`,
		`clipper_pool_write_wait_seconds_total{model="m",replica="m:v1/0"} 0.005`,
		// adaptive controller
		`clipper_adaptive_window{model="m",replica="m:v1/0"} 4`,
		`clipper_queue_window{model="p",replica="p:v1/0"} 1`,
		// QoS / app
		`clipper_app_predictions_total{app="demo"} 4`,
		`clipper_app_qos{app="demo"} 1`,
		`clipper_app_weight{app="demo"} 2`,
		`clipper_app_sheds_total{app="demo"} 0`,
		"# TYPE clipper_app_latency_seconds histogram",
		`clipper_app_latency_seconds_bucket{app="demo",le="+Inf"} 4`,
		`clipper_app_latency_seconds_count{app="demo"} 4`,
		// tenant fair-batching
		`clipper_tenant_served_total{model="m",replica="m:v1/0",tenant="demo"}`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if series := `clipper_adaptive_window{model="p"`; strings.Contains(got, series) {
		t.Errorf("scrape carries %q: a pinned window has no controller to report", series)
	}
	if t.Failed() {
		t.Logf("full scrape:\n%s", got)
	}
}

// TestMetricsDynamicPopulation: families registered at construction must
// pick up models and apps deployed afterwards, on the next scrape.
func TestMetricsDynamicPopulation(t *testing.T) {
	cl := New(Config{CacheSize: 1024})
	t.Cleanup(cl.Close)

	var buf strings.Builder
	if err := cl.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "clipper_queue_queued") {
		t.Fatal("queue family present before any replica exists")
	}

	if _, err := cl.Deploy(&stubModel{name: "late"}, nil, qcfg()); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := cl.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `clipper_queue_queued{model="late",replica="late:v1/0"}`) {
		t.Fatalf("late-deployed replica missing from scrape:\n%s", buf.String())
	}
}

// TestMetricsScrapeUnderLoad hammers the predict path from several
// goroutines while scraping continuously; under -race this proves the
// scrape path is safe against live instrumentation, mid-run deploys
// included.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	cl := New(Config{CacheSize: 1024})
	t.Cleanup(cl.Close)
	if _, err := cl.Deploy(&stubModel{name: "m"}, nil, qcfg()); err != nil {
		t.Fatal(err)
	}
	app, err := cl.RegisterApp(AppConfig{Name: "demo", Models: []string{"m"}, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
					_, err := app.PredictContext(context.Background(), "",
						[]float64{float64(g), float64(i)})
					if err != nil {
						t.Error(err)
						return
					}
					i++
				}
			}
		}(g)
	}
	for i := 0; i < 40; i++ {
		var buf strings.Builder
		if err := cl.Metrics().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		// One scrape shows one state of the cache: each aggregate is the
		// sum of the shard series beside it.
		sums := map[string]float64{}
		for _, l := range strings.Split(buf.String(), "\n") {
			if !strings.HasPrefix(l, "clipper_cache_") {
				continue
			}
			v, err := strconv.ParseFloat(l[strings.LastIndexByte(l, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", l, err)
			}
			sums[l[:strings.IndexAny(l, "{ ")]] += v
		}
		for _, agg := range []string{"hits_total", "misses_total", "entries"} {
			if a, s := sums["clipper_cache_"+agg], sums["clipper_cache_shard_"+agg]; a != s {
				t.Errorf("scrape %d: clipper_cache_%s = %v, its shard series sum to %v", i, agg, a, s)
			}
		}
		if i == 20 {
			// A replica joining mid-scrape-storm must not trip collection.
			if _, err := cl.Deploy(&stubModel{name: "m"}, nil, qcfg()); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestMetricsPredictPathZeroAllocs: scraping must leave zero added
// allocations on the predict hot path — collectors read atomics at
// scrape time, never on the request path. Measured as: per-predict
// allocations after a scrape are no higher than before any scrape.
func TestMetricsPredictPathZeroAllocs(t *testing.T) {
	cl := New(Config{CacheSize: 1024})
	t.Cleanup(cl.Close)
	if _, err := cl.Deploy(&stubModel{name: "m"}, nil, qcfg()); err != nil {
		t.Fatal(err)
	}
	app, err := cl.RegisterApp(AppConfig{Name: "demo", Models: []string{"m"}})
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{1, 2, 3}
	predict := func() {
		if _, err := app.PredictContext(context.Background(), "", in); err != nil {
			t.Fatal(err)
		}
	}
	predict() // warm: the repeat input is a synchronous cache hit below

	before := testing.AllocsPerRun(200, predict)
	var buf strings.Builder
	if err := cl.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty scrape")
	}
	after := testing.AllocsPerRun(200, predict)
	if after > before {
		t.Errorf("predict path allocations grew after scrape: %.2f -> %.2f allocs/op", before, after)
	}
}

// BenchmarkScrape renders the node's registry over 4 pooled replicas (two
// models of two replicas) and 2 QoS apps that have served traffic.
func BenchmarkScrape(b *testing.B) {
	cl := New(Config{CacheSize: 1024})
	b.Cleanup(cl.Close)
	for _, model := range []string{"m", "n"} {
		for r := 0; r < 2; r++ {
			if _, err := cl.Deploy(&poolStubModel{stubModel{name: model, label: 3}}, nil, qcfg()); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i, model := range []string{"m", "n"} {
		app, err := cl.RegisterApp(AppConfig{
			Name: fmt.Sprintf("app%d", i), Models: []string{model},
			SLO: time.Second, Weight: 2, Shed: ShedReject,
		})
		if err != nil {
			b.Fatal(err)
		}
		for q := 0; q < 64; q++ {
			if _, err := app.PredictContext(context.Background(), "", []float64{float64(q)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := cl.Metrics().WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
