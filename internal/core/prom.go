package core

// Prometheus collector wiring: every family the serving stack exposes at
// GET /metrics is a row of a table, registered once when the Clipper is
// constructed. A table's rows render one kind of snapshot entry:
// replicaFamilies a replica snapshot, schedFamilies a model snapshot,
// appFamilies an app snapshot (the same snapshots the admin JSON renders),
// cacheFamilies the cache's stripe stats. A row is a name, HELP text, TYPE
// and a function of one entry. Each source registers its tables as one
// metrics group, so a scrape reads each source once — modelSnaps for the
// replica and scheduler tables, appSnaps, one ShardStats — and renders
// every row from that read: one scrape shows one state of each source.
// Sources are read at scrape time, so models deployed or apps registered
// after startup appear on the next scrape with no additional wiring, and
// the predict hot path never executes a single instruction for
// exposition.
//
// Metric naming follows the Prometheus conventions: a clipper_ prefix,
// base units (seconds, entries, connections; durations via
// Duration.Seconds), _total on cumulative counters, and label dimensions
// (model, replica, app, tenant, shard) rather than name-embedded
// identifiers. The full inventory is in the Observability section of
// docs/ARCHITECTURE.md.

import (
	"strconv"

	"clipper/internal/batching"
	"clipper/internal/cache"
	"clipper/internal/metrics"
)

// Metrics returns the node's Prometheus registry. The frontend serves it
// at GET /metrics; embedders can add their own families (names should
// avoid the clipper_ prefix to stay collision-free).
func (cl *Clipper) Metrics() *metrics.Registry { return cl.prom }

// family is one metric family as a table row over snapshot entries of
// type S.
type family[S any] struct {
	name, help string
	kind       metrics.Kind
	add        addFunc[S]
}

// table is the rows one kind of snapshot entry renders.
type table[S any] []family[S]

// families names the table's families for the registry, in row order.
func (t table[S]) families() []metrics.Family {
	out := make([]metrics.Family, len(t))
	for i, f := range t {
		out[i] = metrics.Family{Name: f.name, Help: f.help, Kind: f.kind}
	}
	return out
}

// fill appends every row's series for entry s, labelled ls, row i's to
// dst[i].
func (t table[S]) fill(dst [][]metrics.Series, s *S, ls []metrics.Label) {
	for i, f := range t {
		dst[i] = f.add(dst[i], s, ls)
	}
}

// addFunc appends a family's series for one snapshot entry s, labelled ls.
type addFunc[S any] func(dst []metrics.Series, s *S, ls []metrics.Label) []metrics.Series

// value is a row of one series per entry.
func value[S any](fn func(s *S) float64) addFunc[S] {
	return valueIf(func(s *S) (float64, bool) { return fn(s), true })
}

// valueIf is a row of one series per entry for which fn reports ok.
func valueIf[S any](fn func(s *S) (float64, bool)) addFunc[S] {
	return func(dst []metrics.Series, s *S, ls []metrics.Label) []metrics.Series {
		if v, ok := fn(s); ok {
			dst = append(dst, metrics.Series{Labels: ls, Value: v})
		}
		return dst
	}
}

// histogram is a row of one histogram per entry.
func histogram[S any](fn func(s *S) *metrics.Histogram) addFunc[S] {
	return func(dst []metrics.Series, s *S, ls []metrics.Label) []metrics.Series {
		return metrics.AppendHistogram(dst, fn(s), ls...)
	}
}

// perTenant is a row of one series per fair-batching tenant on a replica.
func perTenant(fn func(t batching.TenantLoad) float64) addFunc[replicaSnap] {
	return func(dst []metrics.Series, r *replicaSnap, ls []metrics.Label) []metrics.Series {
		for _, t := range r.tenants {
			dst = append(dst, metrics.Series{
				Labels: append(ls[:len(ls):len(ls)], metrics.Label{Name: "tenant", Value: t.Tenant}),
				Value:  fn(t),
			})
		}
		return dst
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// replicaFamilies are the per-replica families, labelled {model, replica}.
var replicaFamilies = table[replicaSnap]{
	// Batching queues and replica load (the scheduler's JSQ inputs).
	{"clipper_queue_queued", "Requests buffered in the batching queue, not yet collected.", metrics.KindGauge,
		value(func(r *replicaSnap) float64 { return float64(r.load.Queued) })},
	{"clipper_queue_in_flight_batches", "Batches currently inside the container RPC.", metrics.KindGauge,
		value(func(r *replicaSnap) float64 { return float64(r.load.InFlightBatches) })},
	{"clipper_queue_in_flight_queries", "Queries across the batches in flight.", metrics.KindGauge,
		value(func(r *replicaSnap) float64 { return float64(r.load.InFlightQueries) })},
	{"clipper_queue_completed_queries_total", "Queries answered by this replica.", metrics.KindCounter,
		value(func(r *replicaSnap) float64 { return float64(r.load.Completed) })},
	{"clipper_queue_arrival_rate", "Smoothed rate of requests entering the batching queue, per second (0 while cold).", metrics.KindGauge,
		value(func(r *replicaSnap) float64 { return r.load.ArrivalRate })},
	{"clipper_queue_dispatch_holds_total", "Dispatches for which the collector held the pipeline's last free slot.", metrics.KindCounter,
		value(func(r *replicaSnap) float64 { return float64(r.load.Holds) })},
	{"clipper_queue_dispatch_hold_seconds_total", "Total time the collector held the pipeline's last free slot.", metrics.KindCounter,
		value(func(r *replicaSnap) float64 { return r.load.HoldTime.Seconds() })},
	{"clipper_queue_window", "Current dispatch pipeline window (pinned, or where the window controller has it).", metrics.KindGauge,
		value(func(r *replicaSnap) float64 { return float64(r.window) })},
	{"clipper_queue_max_batch", "Batching controller's current maximum batch size.", metrics.KindGauge,
		value(func(r *replicaSnap) float64 { return float64(r.maxBatch) })},
	{"clipper_replica_healthy", "1 when the health monitor considers the replica available.", metrics.KindGauge,
		value(func(r *replicaSnap) float64 { return boolGauge(r.healthy) })},
	{"clipper_replica_service_ewma_seconds", "Smoothed per-query service time (0 while cold).", metrics.KindGauge,
		value(func(r *replicaSnap) float64 { return r.load.PerQueryService.Seconds() })},
	{"clipper_replica_est_cost_seconds", "Scheduler's estimated completion time for one more query (absent while cold).", metrics.KindGauge,
		valueIf(func(r *replicaSnap) (float64, bool) { return r.cost.Seconds(), r.costed })},
	{"clipper_replica_hedges_from_total", "Hedges fired while this replica held the primary request.", metrics.KindCounter,
		value(func(r *replicaSnap) float64 { return float64(r.hedgesFrom) })},
	{"clipper_replica_hedges_won_total", "Hedge races this replica answered first.", metrics.KindCounter,
		value(func(r *replicaSnap) float64 { return float64(r.hedgesWon) })},
	{"clipper_batch_size", "Dispatched batch sizes (queries per batch).", metrics.KindHistogram,
		histogram(func(r *replicaSnap) *metrics.Histogram { return r.queue.BatchSizes })},
	{"clipper_batch_latency_seconds", "Per-batch container round-trip latency.", metrics.KindHistogram,
		histogram(func(r *replicaSnap) *metrics.Histogram { return r.queue.BatchLatency })},
	{"clipper_queue_delay_seconds", "Per-request time spent queued before dispatch.", metrics.KindHistogram,
		histogram(func(r *replicaSnap) *metrics.Histogram { return r.queue.QueueDelay })},

	// Window controller (every queue whose window is not pinned).
	{"clipper_adaptive_window", "Measured pipeline window (absent when InFlight pins it).", metrics.KindGauge,
		valueIf(func(r *replicaSnap) (float64, bool) { return float64(r.adaptive.InFlight), r.measured })},
	{"clipper_adaptive_batch_latency_seconds", "The load model's smoothed per-batch latency.", metrics.KindGauge,
		valueIf(func(r *replicaSnap) (float64, bool) { return r.adaptive.BatchLatency.Seconds(), r.measured })},

	// RPC connection pools (replicas exposing PoolStats).
	{"clipper_pool_conns", "Dialed connection slots in the replica's RPC pool.", metrics.KindGauge,
		valueIf(func(r *replicaSnap) (float64, bool) { return float64(r.pool.Conns), r.pooled })},
	{"clipper_pool_live_conns", "Pool slots holding a live connection.", metrics.KindGauge,
		valueIf(func(r *replicaSnap) (float64, bool) { return float64(r.pool.Live), r.pooled })},
	{"clipper_pool_bytes_in_flight", "Payload bytes being written across live connections.", metrics.KindGauge,
		valueIf(func(r *replicaSnap) (float64, bool) { return float64(r.pool.BytesInFlight), r.pooled })},
	{"clipper_pool_writes_total", "Request frames written across live connections.", metrics.KindCounter,
		valueIf(func(r *replicaSnap) (float64, bool) { return float64(r.pool.Writes), r.pooled })},
	{"clipper_pool_write_queued_total", "Writes that queued behind another in-progress frame write (transfer-bound signal).", metrics.KindCounter,
		valueIf(func(r *replicaSnap) (float64, bool) { return float64(r.pool.WriteQueued), r.pooled })},
	{"clipper_pool_write_wait_seconds_total", "Total time writes spent queued behind other writes.", metrics.KindCounter,
		valueIf(func(r *replicaSnap) (float64, bool) { return r.pool.WriteWait.Seconds(), r.pooled })},

	// Per-tenant fair-batching state, labelled {model, replica, tenant}.
	{"clipper_tenant_queued", "Tenant sub-queue backlog on a replica (fair batching engaged).", metrics.KindGauge,
		perTenant(func(t batching.TenantLoad) float64 { return float64(t.Queued) })},
	{"clipper_tenant_served_total", "Queries dequeued into batches per tenant on a replica.", metrics.KindCounter,
		perTenant(func(t batching.TenantLoad) float64 { return float64(t.Served) })},
}

// schedFamilies are the cross-replica scheduler's families, labelled {model}.
var schedFamilies = table[modelSnap]{
	{"clipper_sched_replicas", "Replicas deployed for the model.", metrics.KindGauge,
		value(func(m *modelSnap) float64 { return float64(m.sched.Replicas) })},
	{"clipper_sched_submitted_total", "Queries routed through the scheduler.", metrics.KindCounter,
		value(func(m *modelSnap) float64 { return float64(m.sched.Submitted) })},
	{"clipper_sched_hedges_issued_total", "Straggler hedges issued.", metrics.KindCounter,
		value(func(m *modelSnap) float64 { return float64(m.sched.HedgesIssued) })},
	{"clipper_sched_hedges_won_total", "Hedge races the hedge won.", metrics.KindCounter,
		value(func(m *modelSnap) float64 { return float64(m.sched.HedgesWon) })},
	{"clipper_sched_hedges_wasted_total", "Hedge races the primary won anyway.", metrics.KindCounter,
		value(func(m *modelSnap) float64 { return float64(m.sched.HedgesWasted) })},
	{"clipper_sched_failovers_total", "Queries re-run on a sibling after a primary error.", metrics.KindCounter,
		value(func(m *modelSnap) float64 { return float64(m.sched.Failovers) })},
}

// appFamilies are the per-application (multi-tenant QoS) families,
// labelled {app}.
var appFamilies = table[appSnap]{
	{"clipper_app_predictions_total", "Predictions served (admission-degraded included).", metrics.KindCounter,
		value(func(a *appSnap) float64 { return float64(a.Predictions) })},
	{"clipper_app_feedbacks_total", "Feedback observations folded into selection state.", metrics.KindCounter,
		value(func(a *appSnap) float64 { return float64(a.Feedbacks) })},
	{"clipper_app_defaults_total", "Responses that fell back to the default label.", metrics.KindCounter,
		value(func(a *appSnap) float64 { return float64(a.Defaults) })},
	{"clipper_app_sheds_total", "Queries rejected by the SLO admission gate.", metrics.KindCounter,
		value(func(a *appSnap) float64 { return float64(a.Sheds) })},
	{"clipper_app_degrades_total", "Queries answered degraded (stale cache or default) by the admission gate.", metrics.KindCounter,
		value(func(a *appSnap) float64 { return float64(a.Degrades) })},
	{"clipper_app_qos", "1 when the app opted into multi-tenant QoS.", metrics.KindGauge,
		value(func(a *appSnap) float64 { return boolGauge(a.QoS) })},
	{"clipper_app_weight", "Fair-batching weight (effective).", metrics.KindGauge,
		value(func(a *appSnap) float64 { return float64(a.Weight) })},
	{"clipper_app_slo_seconds", "Latency SLO (0 = none set).", metrics.KindGauge,
		value(func(a *appSnap) float64 { return a.SLOMillis / 1e3 })},
	{"clipper_app_latency_seconds", "End-to-end prediction latency per application.", metrics.KindHistogram,
		histogram(func(a *appSnap) *metrics.Histogram { return a.latency })},
}

// cacheSnap is one read of the prediction cache.
type cacheSnap struct {
	shards   []cache.ShardStat
	capacity int
}

// total is a row of one series: fn summed over the cache's stripes.
func total(fn func(st *cache.ShardStat) int64) addFunc[cacheSnap] {
	return value(func(c *cacheSnap) float64 {
		var n int64
		for i := range c.shards {
			n += fn(&c.shards[i])
		}
		return float64(n)
	})
}

// perShard is a row of one series per cache stripe, labelled {shard}.
func perShard(fn func(st *cache.ShardStat) int64) addFunc[cacheSnap] {
	return func(dst []metrics.Series, c *cacheSnap, ls []metrics.Label) []metrics.Series {
		for i := range c.shards {
			dst = append(dst, metrics.Series{
				Labels: append(ls[:len(ls):len(ls)], metrics.Label{Name: "shard", Value: strconv.Itoa(i)}),
				Value:  float64(fn(&c.shards[i])),
			})
		}
		return dst
	}
}

// cacheFamilies are the prediction cache's families: aggregates, which sum
// the stripes of the same read, and per-stripe series.
var cacheFamilies = table[cacheSnap]{
	{"clipper_cache_hits_total", "Prediction cache hits.", metrics.KindCounter,
		total(func(st *cache.ShardStat) int64 { return st.Hits })},
	{"clipper_cache_misses_total", "Prediction cache misses.", metrics.KindCounter,
		total(func(st *cache.ShardStat) int64 { return st.Misses })},
	{"clipper_cache_entries", "Live prediction cache entries.", metrics.KindGauge,
		total(func(st *cache.ShardStat) int64 { return int64(st.Entries) })},
	{"clipper_cache_capacity_entries", "Prediction cache capacity.", metrics.KindGauge,
		value(func(c *cacheSnap) float64 { return float64(c.capacity) })},
	{"clipper_cache_shards", "Prediction cache lock stripes.", metrics.KindGauge,
		value(func(c *cacheSnap) float64 { return float64(len(c.shards)) })},
	{"clipper_cache_shard_hits_total", "Prediction cache hits per lock stripe.", metrics.KindCounter,
		perShard(func(st *cache.ShardStat) int64 { return st.Hits })},
	{"clipper_cache_shard_misses_total", "Prediction cache misses per lock stripe.", metrics.KindCounter,
		perShard(func(st *cache.ShardStat) int64 { return st.Misses })},
	{"clipper_cache_shard_entries", "Live entries per lock stripe.", metrics.KindGauge,
		perShard(func(st *cache.ShardStat) int64 { return int64(st.Entries) })},
	{"clipper_cache_shard_probation_entries", "Live entries in the stripe's probation FIFO (the rest are in its protected CLOCK ring).", metrics.KindGauge,
		perShard(func(st *cache.ShardStat) int64 { return int64(st.Probation) })},
	{"clipper_cache_promotions_total", "Entries promoted from probation to the protected ring.", metrics.KindCounter,
		total(func(st *cache.ShardStat) int64 { return st.Promotions })},
	{"clipper_cache_evictions_total", "Entries evicted, from either segment.", metrics.KindCounter,
		total(func(st *cache.ShardStat) int64 { return st.Evictions })},
}

// registerCollectors registers each source's tables as one group. Called
// once from New; cl's maps exist but are empty at that point — collectors
// only capture cl. The names are fixed, so a registration error is a bug.
func (cl *Clipper) registerCollectors() {
	register := func(fams []metrics.Family, collect func(dst [][]metrics.Series)) {
		if err := cl.prom.RegisterGroup(fams, collect); err != nil {
			panic(err)
		}
	}
	if c := cl.cache; c != nil {
		register(cacheFamilies.families(), func(dst [][]metrics.Series) {
			s := cacheSnap{c.ShardStats(), c.Capacity()}
			cacheFamilies.fill(dst, &s, nil)
		})
	}
	nr := len(replicaFamilies)
	register(append(replicaFamilies.families(), schedFamilies.families()...), func(dst [][]metrics.Series) {
		for _, m := range cl.modelSnaps() {
			ml := []metrics.Label{{Name: "model", Value: m.model}}
			schedFamilies.fill(dst[nr:], &m, ml)
			for i := range m.replicas {
				rs := &m.replicas[i]
				replicaFamilies.fill(dst[:nr], rs, append(ml[:1:1], metrics.Label{Name: "replica", Value: rs.id}))
			}
		}
	})
	register(appFamilies.families(), func(dst [][]metrics.Series) {
		for _, a := range cl.appSnaps() {
			appFamilies.fill(dst, &a, []metrics.Label{{Name: "app", Value: a.Name}})
		}
	})
}
