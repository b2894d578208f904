package main

import (
	"context"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"clipper/internal/adapter"
	"clipper/internal/adapter/httpjson"
	"clipper/internal/adapter/stream"
	"clipper/internal/batching"
	"clipper/internal/cache"
	"clipper/internal/container"
	"clipper/internal/gateway"
	"clipper/internal/metrics"
	"clipper/internal/rpc"
)

// perLayer lists the metrics of single layers, taken in the traced run.
// The name before the dot is the layer: a module of the repository, or
// proc / gen / trace for the process, the generator and the tracer.
// Phase-bound values are taken over the traced lo phase — its op count is
// fixed by the seed — except proc.*, taken over the traced closed phase.
// README.md says which end-to-end metric each one should move.
var perLayer = []metricDef{
	{"adapter.stream_rtt_us", "us", "lower", 0},
	{"adapter.http_rtt_us", "us", "lower", 0},
	{"adapter.encode_req_ns", "ns", "lower", 0},
	{"adapter.decode_req_ns", "ns", "lower", 0},
	{"adapter.encode_res_ns", "ns", "lower", 0},
	{"adapter.decode_res_ns", "ns", "lower", 0},
	{"gateway.predict_hit_us", "us", "lower", 0},
	{"gateway.requests", "count", "higher", 0},
	{"gateway.errors", "count", "lower", 0},
	{"core.predict_hit_us", "us", "lower", 0},
	{"core.sched_submitted", "count", "lower", 0},
	{"core.sched_imbalance", "ratio", "lower", 0},
	{"core.missing_frac", "frac", "lower", 0},
	{"core.defaults_frac", "frac", "lower", 0},
	{"core.feedback_p50_ms", "ms", "lower", 0},
	{"core.feedback_p99_ms", "ms", "lower", 0},
	{"cache.hit_frac", "frac", "higher", 0},
	{"cache.hits", "count", "higher", 0},
	{"cache.misses", "count", "lower", 0},
	{"cache.fetch_hit_ns", "ns", "lower", 0},
	{"cache.miss_insert_ns", "ns", "lower", 0},
	{"batching.batch_size_mean", "rows", "higher", 0},
	{"batching.batch_size_p99", "rows", "higher", 0},
	{"batching.max_batch", "rows", "higher", 0},
	{"batching.window", "count", "higher", 0},
	{"batching.queue_delay_p50_us", "us", "lower", 0},
	{"batching.queue_delay_p99_us", "us", "lower", 0},
	{"batching.batch_latency_p50_ms", "ms", "lower", 0},
	{"batching.batch_latency_p99_ms", "ms", "lower", 0},
	{"batching.submit_ns", "ns", "lower", 0},
	{"selection.select_ns", "ns", "lower", 0},
	{"selection.combine_ns", "ns", "lower", 0},
	{"selection.observe_ns", "ns", "lower", 0},
	{"selection.calls", "count", "lower", 0},
	{"statestore.get_ns", "ns", "lower", 0},
	{"statestore.set_ns", "ns", "lower", 0},
	{"statestore.gets", "count", "lower", 0},
	{"statestore.sets", "count", "lower", 0},
	{"container.batches", "count", "lower", 0},
	{"container.rows", "count", "lower", 0},
	{"container.compute_ms_mean", "ms", "lower", 0},
	{"container.busy_s", "s", "lower", 0},
	{"container.encode_batch_ns", "ns", "lower", 0},
	{"container.decode_batch_ns", "ns", "lower", 0},
	{"container.encode_preds_ns", "ns", "lower", 0},
	{"container.decode_preds_ns", "ns", "lower", 0},
	{"rpc.call_ms_mean", "ms", "lower", 0},
	{"rpc.self_us", "us", "lower", 0},
	{"rpc.frames", "count", "lower", 0},
	{"rpc.echo_rtt_us", "us", "lower", 0},
	{"rpc.write_wait_us", "us", "lower", 0},
	{"rpc.write_queued", "count", "lower", 0},
	{"metrics.observe_ns", "ns", "lower", 0},
	{"metrics.observe_contended_ns", "ns", "lower", 0},
	{"metrics.scrape_ms", "ms", "lower", 0},
	{"proc.cpu_us_per_op", "us", "lower", 0},
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.alloc_bytes_per_op", "B", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.rss_mb", "MB", "lower", 0},
	{"proc.goroutines", "count", "lower", 0},
	{"gen.late_p50_ms", "ms", "lower", 0},
	{"gen.late_p99_ms", "ms", "lower", 0},
	{"gen.attempted", "count", "higher", 0},
	{"gen.ok", "count", "higher", 0},
	{"gen.failed", "count", "lower", 0},
	{"gen.slo_miss", "count", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
	{"trace.unattributed_frac", "frac", "lower", 0},
}

// runTraced is the per-layer run. It measures lo untraced for reference,
// then builds the node again with the three wrappers installed and runs
// closed and lo on it (a sixth of seconds each), drives the layers
// directly once, and writes the spans out.
func runTraced(w *workload, seed int64, seconds int, outDir string) *runResult {
	r := &runResult{workload: w.name, seed: seed, seconds: seconds, traced: true, metrics: map[string]float64{}}
	m := r.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	durNs := int64(seconds) * int64(time.Second) / 6

	// Reference: the same lo phase with nothing wrapped.
	ref, err := setUp(w, seed, nil)
	if err != nil {
		r.problem("set-up: %v", err)
		return r
	}
	plain, _ := ref.measure(r, ref.makePhase(phLo, "lo-untraced", durNs, w.loRate))
	ref.tearDown()
	runtime.GC()

	tr := newTracer()
	n, err := setUp(w, seed, tr)
	if err != nil {
		r.problem("set-up: %v", err)
		return r
	}
	defer n.tearDown()
	tr.reset() // the spans of warm-up are not reported

	// Closed: what the process costs per op.
	var ms0, ms1 runtime.MemStats
	closedSpec := n.makePhase(phClosed, "closed", durNs, 0)
	runtime.ReadMemStats(&ms0)
	closed, closedRes := n.measure(r, closedSpec)
	runtime.ReadMemStats(&ms1)
	tr.addClientSpans(phClosed, closedRes)
	if closed.ok > 0 {
		m["proc.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(closed.ok)
		m["proc.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(closed.ok)
	}
	m["proc.cpu_us_per_op"] = median(closed.win.cpuUs)
	m["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["proc.rss_mb"] = rssMB()
	m["proc.goroutines"] = float64(runtime.NumGoroutine())

	// Lo: the layer counts and times at a fixed offered rate.
	loSpec := n.makePhase(phLo, "lo", durNs, w.loRate)
	n.resetQueueStats()
	var span0 [numSpanKinds]spanTotals
	for k := range span0 {
		span0[k] = tr.totals(k)
	}
	sched0, done0 := n.schedState()
	pool0 := n.poolStats()
	lo, loRes := n.measure(r, loSpec)
	tr.addClientSpans(phLo, loRes)
	n.layerStats(m, tr, span0, sched0, done0, pool0)
	clientStats(m, lo, loRes, n.selected())
	m["gateway.requests"], m["gateway.errors"] = float64(lo.gwRequests), float64(lo.gwErrors)
	m["cache.hits"], m["cache.misses"] = float64(lo.cacheHits), float64(lo.cacheMiss)
	if t := lo.cacheHits + lo.cacheMiss; t > 0 {
		m["cache.hit_frac"] = float64(lo.cacheHits) / float64(t)
	}
	_, _, took, _ := n.scrape() // the read use of the registry, on the loaded node
	m["metrics.scrape_ms"] = float64(took) / 1e6

	if err := n.directDrives(m); err != nil {
		r.problem("direct drive: %v", err)
	}
	driveCodecs(m)
	driveCache(m)
	driveSubmit(m)
	driveHistogram(m)
	if err := driveEcho(m); err != nil {
		r.problem("rpc echo: %v", err)
	}

	spans := tr.recorded()
	m["trace.spans"] = float64(len(spans))
	if d := tr.dropped.Load(); d > 0 {
		r.warnings = append(r.warnings, "trace buffer full: "+strconv.FormatInt(d, 10)+" spans kept only as sums")
	}
	if self, paired := rpcSelfNs(spans); paired > 0 {
		m["rpc.self_us"] = self / 1e3
	}
	if p, t := median(plain.win.p50), median(lo.win.p50); p > 0 {
		m["trace.overhead_frac"] = t/p - 1
		// What the outside timers do not explain of a miss's latency: the
		// adapter round trip, the wait in the batch queue and the batch
		// itself against the client's median. Meaningful where misses
		// dominate (scan_batch).
		explained := m["adapter.stream_rtt_us"]/1e3 + m["batching.queue_delay_p50_us"]/1e3 + m["batching.batch_latency_p50_ms"]
		m["trace.unattributed_frac"] = 1 - explained/t
	}
	r.audit(w, 0)
	r.checkNames(perLayer)
	if r.traceFile, err = writeTrace(outDir, w.name, spans); err != nil {
		r.problem("trace file: %v", err)
	}
	return r
}

// spanTotals is a snapshot of one span kind's running sums.
type spanTotals struct{ sumNs, count, rows int64 }

func (t *tracer) totals(kind int) spanTotals {
	return spanTotals{t.sumNs[kind].Load(), t.count[kind].Load(), t.rows[kind].Load()}
}

// resetQueueStats empties the replica queues' histograms so they cover
// one phase.
func (n *node) resetQueueStats() {
	for _, model := range n.models {
		for _, q := range n.cl.ReplicaQueues(model) {
			q.BatchSizes.Reset()
			q.BatchLatency.Reset()
			q.QueueDelay.Reset()
		}
	}
}

// schedState snapshots model 0's scheduler count and per-replica
// completed queries.
func (n *node) schedState() (submitted int64, done map[string]int64) {
	if st, ok := n.cl.SchedulerStats(n.models[0]); ok {
		submitted = st.Submitted
	}
	done = map[string]int64{}
	for id, st := range n.cl.ReplicaStatuses(n.models[0]) {
		done[id] = st.CompletedQueries
	}
	return submitted, done
}

func (n *node) poolStats() (st rpc.PoolStats) {
	for _, r := range n.remotes {
		s := r.PoolStats()
		st.Writes += s.Writes
		st.WriteQueued += s.WriteQueued
		st.WriteWait += s.WriteWait
	}
	return st
}

// layerStats fills the metrics read from the node and the tracer over
// the phase that just ran.
func (n *node) layerStats(m map[string]float64, tr *tracer, span0 [numSpanKinds]spanTotals,
	sched0 int64, done0 map[string]int64, pool0 rpc.PoolStats) {
	delta := func(kind int) spanTotals {
		t := tr.totals(kind)
		return spanTotals{t.sumNs - span0[kind].sumNs, t.count - span0[kind].count, t.rows - span0[kind].rows}
	}
	mean := func(d spanTotals) float64 {
		if d.count == 0 {
			return 0
		}
		return float64(d.sumNs) / float64(d.count)
	}

	// batching: model 0's replica queues; quantiles are averaged over
	// the replicas, which JSQ loads alike.
	qs := n.cl.ReplicaQueues(n.models[0])
	var batches, rows float64
	for _, q := range qs {
		batches += float64(q.BatchSizes.Count())
		rows += q.BatchSizes.Sum()
		m["batching.max_batch"] = float64(q.Controller().MaxBatch())
		m["batching.window"] = float64(q.InFlight())
	}
	if batches > 0 {
		avg := func(quantile func(q *batching.Queue) float64) float64 {
			sum := 0.0
			for _, q := range qs {
				sum += quantile(q)
			}
			return sum / float64(len(qs))
		}
		m["batching.batch_size_mean"] = rows / batches
		m["batching.batch_size_p99"] = avg(func(q *batching.Queue) float64 { return q.BatchSizes.Quantile(0.99) })
		m["batching.queue_delay_p50_us"] = avg(func(q *batching.Queue) float64 { return q.QueueDelay.Quantile(0.5) }) * 1e6
		m["batching.queue_delay_p99_us"] = avg(func(q *batching.Queue) float64 { return q.QueueDelay.Quantile(0.99) }) * 1e6
		m["batching.batch_latency_p50_ms"] = avg(func(q *batching.Queue) float64 { return q.BatchLatency.Quantile(0.5) }) * 1e3
		m["batching.batch_latency_p99_ms"] = avg(func(q *batching.Queue) float64 { return q.BatchLatency.Quantile(0.99) }) * 1e3
	}

	// core: the scheduler over model 0's replicas.
	sched1, done1 := n.schedState()
	m["core.sched_submitted"] = float64(sched1 - sched0)
	lo, hi := int64(-1), int64(0)
	for id, v := range done1 {
		d := v - done0[id]
		if lo < 0 || d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if lo > 0 {
		m["core.sched_imbalance"] = float64(hi) / float64(lo)
	}

	sel, comb, obs := delta(spSelect), delta(spCombine), delta(spObserve)
	m["selection.select_ns"], m["selection.combine_ns"], m["selection.observe_ns"] = mean(sel), mean(comb), mean(obs)
	m["selection.calls"] = float64(sel.count + comb.count + obs.count)
	get, set := delta(spStoreGet), delta(spStoreSet)
	m["statestore.get_ns"], m["statestore.set_ns"] = mean(get), mean(set)
	m["statestore.gets"], m["statestore.sets"] = float64(get.count), float64(set.count)

	comp, call := delta(spCompute), delta(spRPCCall)
	m["container.batches"], m["container.rows"] = float64(comp.count), float64(comp.rows)
	m["container.compute_ms_mean"] = mean(comp) / 1e6
	m["container.busy_s"] = float64(comp.sumNs) / 1e9
	m["rpc.call_ms_mean"] = mean(call) / 1e6
	if call.count > 0 {
		// Replaced by the paired figure when spans pair up unambiguously.
		m["rpc.self_us"] = (mean(call) - mean(comp)) / 1e3
	}
	pool1 := n.poolStats()
	m["rpc.frames"] = float64(pool1.Writes - pool0.Writes)
	m["rpc.write_queued"] = float64(pool1.WriteQueued - pool0.WriteQueued)
	m["rpc.write_wait_us"] = float64(pool1.WriteWait-pool0.WriteWait) / 1e3
}

// clientStats fills what only the client's replies show.
func clientStats(m map[string]float64, s *phaseSummary, res *phaseResult, models int) {
	var late, fb []float64
	missing, selected, defaults, sloMiss := 0, 0, 0, 0
	for _, o := range res.all() {
		late = append(late, float64(o.late)/1e6)
		if o.status != statusOK || o.lat > sloNs {
			sloMiss++
		}
		if o.status != statusOK {
			continue
		}
		if o.kind == opFeedback {
			fb = append(fb, float64(o.lat)/1e6)
			continue
		}
		selected++
		missing += int(o.missing)
		if o.deflt {
			defaults++
		}
	}
	sort.Float64s(late)
	sort.Float64s(fb)
	m["gen.late_p50_ms"], _ = percentile(late, 0.5)
	m["gen.late_p99_ms"], _ = percentile(late, 0.99)
	m["gen.attempted"], m["gen.ok"], m["gen.failed"] = float64(s.attempted), float64(s.ok), float64(s.failed)
	m["gen.slo_miss"] = float64(sloMiss)
	m["core.feedback_p50_ms"], _ = percentile(fb, 0.5)
	m["core.feedback_p99_ms"], _ = percentile(fb, 0.99)
	if selected > 0 {
		// Missing counts models per reply; the share is of models asked.
		m["core.missing_frac"] = float64(missing) / float64(selected*models)
		m["core.defaults_frac"] = float64(defaults) / float64(selected)
	}
}

func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// ---- direct drives: one layer at a time, from outside ----

const (
	driveRTTs  = 5000
	driveBatch = 5 // timed batches per codec-style drive; the median is reported
)

// medianOfBatches times fn over iters calls, driveBatch times, and
// returns the median batch's ns per call.
func medianOfBatches(iters int, fn func()) float64 {
	per := make([]float64, driveBatch)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0)) / float64(iters)
	}
	return median(per)
}

// medianRTT calls fn driveRTTs times, one at a time, and returns the
// median in ns.
func medianRTT(fn func() error) (float64, error) {
	ds := make([]float64, driveRTTs)
	for i := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return median(ds), nil
}

// directDrives times a warm-hit predict at each boundary from the
// adapter inward: over each adapter's socket, at the gateway, at the
// application.
func (n *node) directDrives(m map[string]float64) error {
	ctx := context.Background()
	x := n.pool[0]
	cctx := n.ctxNames[0]
	app, _ := n.cl.App(appName)
	// Make the key resident under every model first.
	if _, err := app.PredictContext(ctx, cctx, x); err != nil {
		return err
	}
	time.Sleep(50 * time.Millisecond) // stragglers finish and populate the cache

	v, err := medianRTT(func() error { _, err := app.PredictContext(ctx, cctx, x); return err })
	if err != nil {
		return err
	}
	m["core.predict_hit_us"] = v / 1e3
	b := n.gw.Bind("direct") // its own label: the adapters' counts stay the generator's
	req := gateway.PredictRequest{App: appName, Context: cctx, Input: x}
	if v, err = medianRTT(func() error { _, err := b.Predict(ctx, req); return err }); err != nil {
		return err
	}
	m["gateway.predict_hit_us"] = v / 1e3

	ss := stream.New(n.gw)
	saddr, err := ss.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ss.Close()
	sc, err := stream.Dial(saddr, time.Second)
	if err != nil {
		return err
	}
	defer sc.Close()
	if v, err = medianRTT(func() error { _, err := sc.Predict(ctx, appName, cctx, x); return err }); err != nil {
		return err
	}
	m["adapter.stream_rtt_us"] = v / 1e3

	hs := httpjson.New(n.gw)
	haddr, err := hs.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer hs.Close()
	hc, err := dialHTTP(haddr)
	if err != nil {
		return err
	}
	defer hc.close()
	hreq := encodeHTTPRequest(cctx, x)
	if v, err = medianRTT(func() error { _, _, err := hc.roundTrip(hreq); return err }); err != nil {
		return err
	}
	m["adapter.http_rtt_us"] = v / 1e3
	return nil
}

// driveCodecs times the framed adapters' request/response codecs on a
// 784-d request and the container wire codecs on a 64 × 784 batch.
func driveCodecs(m map[string]float64) {
	x := make([]float64, inputDim)
	for i := range x {
		x[i] = float64(i%97) / 97
	}
	buf := make([]byte, 0, 16<<10)
	m["adapter.encode_req_ns"] = medianOfBatches(20000, func() {
		buf, _ = adapter.AppendPredictRequest(buf[:0], appName, "u1", x)
	})
	m["adapter.decode_req_ns"] = medianOfBatches(20000, func() {
		if _, err := adapter.DecodePredictRequest(buf); err != nil {
			panic(err)
		}
	})
	res := gateway.PredictResult{Label: 3, Confidence: 1, Latency: time.Millisecond}
	rbuf := make([]byte, 0, 64)
	m["adapter.encode_res_ns"] = medianOfBatches(200000, func() {
		rbuf = adapter.AppendPredictResult(rbuf[:0], res)
	})
	m["adapter.decode_res_ns"] = medianOfBatches(200000, func() {
		if _, err := adapter.DecodePredictResult(rbuf); err != nil {
			panic(err)
		}
	})

	const rows = 64
	view := container.GetBatchView()
	for i := 0; i < rows; i++ {
		view.AppendRow(x)
	}
	wire := make([]byte, 0, rows*inputDim*8+1024)
	m["container.encode_batch_ns"] = medianOfBatches(500, func() {
		wire = container.AppendBatchView(wire[:0], view)
	})
	into := container.GetBatchView()
	m["container.decode_batch_ns"] = medianOfBatches(500, func() {
		if err := container.DecodeBatchView(wire, into); err != nil {
			panic(err)
		}
	})
	var pv container.PredictionView
	scores := pv.Size(rows, numClasses)
	for i := range scores {
		scores[i] = float64(i % numClasses)
	}
	pwire := make([]byte, 0, rows*numClasses*8+1024)
	m["container.encode_preds_ns"] = medianOfBatches(5000, func() {
		pwire = container.AppendPredictionView(pwire[:0], &pv)
	})
	var pinto container.PredictionView
	m["container.decode_preds_ns"] = medianOfBatches(5000, func() {
		if err := container.DecodePredictionView(pwire, &pinto); err != nil {
			panic(err)
		}
	})
	container.PutBatchView(view)
	container.PutBatchView(into)
}

// driveCache times a read of a resident key and a miss that inserts at
// capacity (so it evicts) on a cache of the workloads' size.
func driveCache(m map[string]float64) {
	const size = 1024
	c := cache.New(size)
	key := func(i int) cache.Key {
		return cache.Key{Model: "svm", Version: 1, QueryID: uint64(i) * 0x9E3779B97F4A7C15}
	}
	for i := 0; i < size; i++ {
		c.Put(key(i), container.Prediction{Label: i % numClasses})
	}
	i := 0
	m["cache.fetch_hit_ns"] = medianOfBatches(200000, func() {
		// Recent keys only: inserts below must not have evicted them.
		if _, ok := c.Fetch(key(size - 1 - i%16)); !ok {
			panic("resident key missing")
		}
		i++
	})
	next := size
	m["cache.miss_insert_ns"] = medianOfBatches(100000, func() {
		k := key(next)
		next++
		if _, hit, _, _ := c.Request(k); hit {
			panic("fresh key hit")
		}
		c.Put(k, container.Prediction{Label: 1})
	})
}

// instant answers at once: what is left is the queue's own cost.
type instant struct{}

func (instant) Info() container.Info {
	return container.Info{Name: "instant", Version: 1, NumClasses: 2}
}
func (instant) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	return make([]container.Prediction, len(xs)), nil
}

// driveSubmit times batching.Queue.Submit, one at a time, against an
// in-process predictor that takes no time.
func driveSubmit(m map[string]float64) {
	q := batching.NewQueue(instant{}, batching.QueueConfig{Controller: batching.NewFixed(64)})
	defer q.Close()
	x := make([]float64, inputDim)
	ctx := context.Background()
	m["batching.submit_ns"] = medianOfBatches(20000, func() {
		if _, err := q.Submit(ctx, x); err != nil {
			panic(err)
		}
	})
}

// driveHistogram times metrics.Histogram.Observe from one goroutine and
// from two at once — ROADMAP's mutex suspect on the per-request path.
func driveHistogram(m map[string]float64) {
	const iters = 200000
	h := metrics.NewHistogram()
	m["metrics.observe_ns"] = medianOfBatches(iters, func() { h.Observe(1.5) })
	h = metrics.NewHistogram()
	m["metrics.observe_contended_ns"] = medianOfBatches(1, func() {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					h.Observe(1.5)
				}
			}()
		}
		wg.Wait()
	}) / iters
}

// driveEcho times rpc.Client.Call against an echo rpc.Server on loopback
// TCP with a 48 KiB payload, about a 8 × 784 batch.
func driveEcho(m map[string]float64) error {
	srv := rpc.NewServer(func(_ rpc.Method, payload, scratch []byte) ([]byte, error) {
		return append(scratch, payload...), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := rpc.Dial(addr, time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	payload := make([]byte, 48<<10)
	ctx := context.Background()
	v, err := medianRTT(func() error {
		p, err := c.Call(ctx, rpc.MethodPredict, payload)
		if err == nil {
			p.Release()
		}
		return err
	})
	m["rpc.echo_rtt_us"] = v / 1e3
	return err
}
