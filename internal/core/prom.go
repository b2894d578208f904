package core

// Prometheus collector wiring: every family the serving stack exposes at
// GET /metrics is registered here, once, when the Clipper is constructed.
// Collectors enumerate the live replica/app/tenant population at scrape
// time (modelReplicas / AppStatuses snapshots), so models deployed or
// apps registered after startup appear on the next scrape with no
// additional wiring — and the predict hot path never executes a single
// instruction for exposition: collection reads the same atomics the hot
// path already updates.
//
// Metric naming follows the Prometheus conventions: a clipper_ prefix,
// base units (seconds, entries, connections), _total on cumulative
// counters, and label dimensions (model, replica, app, tenant, shard)
// rather than name-embedded identifiers. The full inventory is in the
// Observability section of docs/ARCHITECTURE.md.

import (
	"sort"
	"strconv"

	"clipper/internal/cache"
	"clipper/internal/metrics"
	"clipper/internal/rpc"
)

// Metrics returns the node's Prometheus registry. The frontend serves it
// at GET /metrics; embedders can add their own families (names should
// avoid the clipper_ prefix to stay collision-free).
func (cl *Clipper) Metrics() *metrics.Registry { return cl.prom }

// eachReplica calls fn for every (model, replica) pair in deterministic
// order: models sorted by name, replicas in deployment order.
func (cl *Clipper) eachReplica(fn func(model string, rq *replicaQueue)) {
	cl.mu.Lock()
	models := make([]string, 0, len(cl.scheds))
	scheds := make(map[string]*scheduler, len(cl.scheds))
	for name, s := range cl.scheds {
		models = append(models, name)
		scheds[name] = s
	}
	cl.mu.Unlock()
	sort.Strings(models)
	for _, m := range models {
		for _, rq := range scheds[m].snapshot() {
			fn(m, rq)
		}
	}
}

// eachScheduler calls fn for every model's scheduler in name order.
func (cl *Clipper) eachScheduler(fn func(model string, s *scheduler)) {
	cl.mu.Lock()
	models := make([]string, 0, len(cl.scheds))
	scheds := make(map[string]*scheduler, len(cl.scheds))
	for name, s := range cl.scheds {
		models = append(models, name)
		scheds[name] = s
	}
	cl.mu.Unlock()
	sort.Strings(models)
	for _, m := range models {
		fn(m, scheds[m])
	}
}

// replicaGauge registers a per-replica gauge/counter family whose value
// fn reads from the replica pair at scrape time.
func (cl *Clipper) replicaGauge(name, help string, kind metrics.Kind, fn func(rq *replicaQueue) (float64, bool)) {
	cl.prom.MustRegister(name, help, kind, func(dst []metrics.Series) []metrics.Series {
		cl.eachReplica(func(model string, rq *replicaQueue) {
			v, ok := fn(rq)
			if !ok {
				return
			}
			dst = append(dst, metrics.Series{
				Labels: []metrics.Label{{Name: "model", Value: model}, {Name: "replica", Value: rq.replica.ID}},
				Value:  v,
			})
		})
		return dst
	})
}

// replicaHistogram registers a per-replica histogram family backed by a
// queue-owned histogram.
func (cl *Clipper) replicaHistogram(name, help string, fn func(rq *replicaQueue) *metrics.Histogram) {
	cl.prom.MustRegister(name, help, metrics.KindHistogram, func(dst []metrics.Series) []metrics.Series {
		cl.eachReplica(func(model string, rq *replicaQueue) {
			dst = metrics.AppendHistogram(dst, fn(rq),
				metrics.Label{Name: "model", Value: model},
				metrics.Label{Name: "replica", Value: rq.replica.ID})
		})
		return dst
	})
}

// schedCounter registers a per-model scheduler counter family.
func (cl *Clipper) schedCounter(name, help string, kind metrics.Kind, fn func(st SchedulerStats) float64) {
	cl.prom.MustRegister(name, help, kind, func(dst []metrics.Series) []metrics.Series {
		cl.eachScheduler(func(model string, s *scheduler) {
			dst = append(dst, metrics.Series{
				Labels: []metrics.Label{{Name: "model", Value: model}},
				Value:  fn(s.stats()),
			})
		})
		return dst
	})
}

// appCounter registers a per-application family from AppStatus.
func (cl *Clipper) appCounter(name, help string, kind metrics.Kind, fn func(st AppStatus) float64) {
	cl.prom.MustRegister(name, help, kind, func(dst []metrics.Series) []metrics.Series {
		sts := cl.AppStatuses()
		names := make([]string, 0, len(sts))
		for name := range sts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, app := range names {
			dst = append(dst, metrics.Series{
				Labels: []metrics.Label{{Name: "app", Value: app}},
				Value:  fn(sts[app]),
			})
		}
		return dst
	})
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// registerCollectors wires every family. Called once from New; cl's maps
// exist but are empty at that point — collectors only capture cl.
func (cl *Clipper) registerCollectors() {
	r := cl.prom

	// --- Prediction cache (aggregate + per-shard) ---
	if c := cl.cache; c != nil {
		r.MustRegister("clipper_cache_hits_total", "Prediction cache hits.", metrics.KindCounter,
			metrics.GaugeCollector(func() float64 { h, _ := c.Stats(); return float64(h) }))
		r.MustRegister("clipper_cache_misses_total", "Prediction cache misses.", metrics.KindCounter,
			metrics.GaugeCollector(func() float64 { _, m := c.Stats(); return float64(m) }))
		r.MustRegister("clipper_cache_entries", "Live prediction cache entries.", metrics.KindGauge,
			metrics.GaugeCollector(func() float64 { return float64(c.Len()) }))
		r.MustRegister("clipper_cache_capacity_entries", "Prediction cache capacity.", metrics.KindGauge,
			metrics.GaugeCollector(func() float64 { return float64(c.Capacity()) }))
		r.MustRegister("clipper_cache_shards", "Prediction cache lock stripes.", metrics.KindGauge,
			metrics.GaugeCollector(func() float64 { return float64(c.Shards()) }))
		perShard := func(name, help string, kind metrics.Kind, val func(cache.ShardStat) float64) {
			r.MustRegister(name, help, kind, func(dst []metrics.Series) []metrics.Series {
				for i, st := range c.ShardStats() {
					dst = append(dst, metrics.Series{
						Labels: []metrics.Label{{Name: "shard", Value: strconv.Itoa(i)}},
						Value:  val(st),
					})
				}
				return dst
			})
		}
		perShard("clipper_cache_shard_hits_total", "Prediction cache hits per lock stripe.", metrics.KindCounter,
			func(st cache.ShardStat) float64 { return float64(st.Hits) })
		perShard("clipper_cache_shard_misses_total", "Prediction cache misses per lock stripe.", metrics.KindCounter,
			func(st cache.ShardStat) float64 { return float64(st.Misses) })
		perShard("clipper_cache_shard_entries", "Live entries per lock stripe.", metrics.KindGauge,
			func(st cache.ShardStat) float64 { return float64(st.Entries) })
		perShard("clipper_cache_shard_probation_entries", "Live entries in the stripe's probation FIFO (the rest are in its protected CLOCK ring).", metrics.KindGauge,
			func(st cache.ShardStat) float64 { return float64(st.Probation) })
		total := func(val func(cache.ShardStat) int64) metrics.CollectFunc {
			return metrics.GaugeCollector(func() float64 {
				var n int64
				for _, st := range c.ShardStats() {
					n += val(st)
				}
				return float64(n)
			})
		}
		r.MustRegister("clipper_cache_promotions_total", "Entries promoted from probation to the protected ring.", metrics.KindCounter,
			total(func(st cache.ShardStat) int64 { return st.Promotions }))
		r.MustRegister("clipper_cache_evictions_total", "Entries evicted, from either segment.", metrics.KindCounter,
			total(func(st cache.ShardStat) int64 { return st.Evictions }))
	}

	// --- Batching queues + replica load (the scheduler's JSQ inputs) ---
	cl.replicaGauge("clipper_queue_queued", "Requests buffered in the batching queue, not yet collected.",
		metrics.KindGauge, func(rq *replicaQueue) (float64, bool) {
			return float64(rq.queue.LoadStats().Queued), true
		})
	cl.replicaGauge("clipper_queue_in_flight_batches", "Batches currently inside the container RPC.",
		metrics.KindGauge, func(rq *replicaQueue) (float64, bool) {
			return float64(rq.queue.LoadStats().InFlightBatches), true
		})
	cl.replicaGauge("clipper_queue_in_flight_queries", "Queries across the batches in flight.",
		metrics.KindGauge, func(rq *replicaQueue) (float64, bool) {
			return float64(rq.queue.LoadStats().InFlightQueries), true
		})
	cl.replicaGauge("clipper_queue_completed_queries_total", "Queries answered by this replica.",
		metrics.KindCounter, func(rq *replicaQueue) (float64, bool) {
			return float64(rq.queue.LoadStats().Completed), true
		})
	cl.replicaGauge("clipper_queue_arrival_rate", "Smoothed rate of requests entering the batching queue, per second (0 while cold).",
		metrics.KindGauge, func(rq *replicaQueue) (float64, bool) {
			return rq.queue.LoadStats().ArrivalRate, true
		})
	cl.replicaGauge("clipper_queue_dispatch_holds_total", "Dispatches for which the collector held the pipeline's last free slot.",
		metrics.KindCounter, func(rq *replicaQueue) (float64, bool) {
			return float64(rq.queue.LoadStats().Holds), true
		})
	cl.replicaGauge("clipper_queue_dispatch_hold_seconds_total", "Total time the collector held the pipeline's last free slot.",
		metrics.KindCounter, func(rq *replicaQueue) (float64, bool) {
			return rq.queue.LoadStats().HoldTime.Seconds(), true
		})
	cl.replicaGauge("clipper_queue_window", "Current dispatch pipeline window (pinned, or where the window controller has it).",
		metrics.KindGauge, func(rq *replicaQueue) (float64, bool) {
			return float64(rq.queue.InFlight()), true
		})
	cl.replicaGauge("clipper_queue_max_batch", "Batching controller's current maximum batch size.",
		metrics.KindGauge, func(rq *replicaQueue) (float64, bool) {
			return float64(rq.queue.Controller().MaxBatch()), true
		})
	cl.replicaGauge("clipper_replica_healthy", "1 when the health monitor considers the replica available.",
		metrics.KindGauge, func(rq *replicaQueue) (float64, bool) {
			return boolGauge(rq.health.healthy.Load()), true
		})
	cl.replicaGauge("clipper_replica_service_ewma_seconds", "Smoothed per-query service time (0 while cold).",
		metrics.KindGauge, func(rq *replicaQueue) (float64, bool) {
			return rq.queue.LoadStats().PerQueryService.Seconds(), true
		})
	cl.replicaGauge("clipper_replica_est_cost_seconds", "Scheduler's estimated completion time for one more query (absent while cold).",
		metrics.KindGauge, func(rq *replicaQueue) (float64, bool) {
			cost, ok := rq.estCost()
			return cost.Seconds(), ok
		})
	cl.replicaGauge("clipper_replica_hedges_from_total", "Hedges fired while this replica held the primary request.",
		metrics.KindCounter, func(rq *replicaQueue) (float64, bool) {
			return float64(rq.hedgesFrom.Load()), true
		})
	cl.replicaGauge("clipper_replica_hedges_won_total", "Hedge races this replica answered first.",
		metrics.KindCounter, func(rq *replicaQueue) (float64, bool) {
			return float64(rq.hedgesWon.Load()), true
		})
	cl.replicaHistogram("clipper_batch_size", "Dispatched batch sizes (queries per batch).",
		func(rq *replicaQueue) *metrics.Histogram { return rq.queue.BatchSizes })
	cl.replicaHistogram("clipper_batch_latency_seconds", "Per-batch container round-trip latency.",
		func(rq *replicaQueue) *metrics.Histogram { return rq.queue.BatchLatency })
	cl.replicaHistogram("clipper_queue_delay_seconds", "Per-request time spent queued before dispatch.",
		func(rq *replicaQueue) *metrics.Histogram { return rq.queue.QueueDelay })

	// --- Window controller (every queue whose window is not pinned) ---
	cl.replicaGauge("clipper_adaptive_window", "Measured pipeline window (absent when InFlight pins it).",
		metrics.KindGauge, func(rq *replicaQueue) (float64, bool) {
			snap, ok := rq.queue.Window()
			return float64(snap.InFlight), ok
		})
	cl.replicaGauge("clipper_adaptive_batch_latency_seconds", "The load model's smoothed per-batch latency.",
		metrics.KindGauge, func(rq *replicaQueue) (float64, bool) {
			snap, ok := rq.queue.Window()
			return snap.BatchLatency.Seconds(), ok
		})

	// --- RPC connection pools (replicas exposing PoolStats) ---
	poolGauge := func(name, help string, kind metrics.Kind, pick func(st rpc.PoolStats) float64) {
		cl.replicaGauge(name, help, kind, func(rq *replicaQueue) (float64, bool) {
			ps, ok := rq.replica.Pred.(poolStatser)
			if !ok {
				return 0, false
			}
			return pick(ps.PoolStats()), true
		})
	}
	poolGauge("clipper_pool_conns", "Dialed connection slots in the replica's RPC pool.",
		metrics.KindGauge, func(st rpc.PoolStats) float64 { return float64(st.Conns) })
	poolGauge("clipper_pool_live_conns", "Pool slots holding a live connection.",
		metrics.KindGauge, func(st rpc.PoolStats) float64 { return float64(st.Live) })
	poolGauge("clipper_pool_bytes_in_flight", "Payload bytes being written across live connections.",
		metrics.KindGauge, func(st rpc.PoolStats) float64 { return float64(st.BytesInFlight) })
	poolGauge("clipper_pool_writes_total", "Request frames written across live connections.",
		metrics.KindCounter, func(st rpc.PoolStats) float64 { return float64(st.Writes) })
	poolGauge("clipper_pool_write_queued_total", "Writes that queued behind another in-progress frame write (transfer-bound signal).",
		metrics.KindCounter, func(st rpc.PoolStats) float64 { return float64(st.WriteQueued) })
	poolGauge("clipper_pool_write_wait_seconds_total", "Total time writes spent queued behind other writes.",
		metrics.KindCounter, func(st rpc.PoolStats) float64 { return st.WriteWait.Seconds() })

	// --- Cross-replica scheduler ---
	cl.schedCounter("clipper_sched_replicas", "Replicas deployed for the model.",
		metrics.KindGauge, func(st SchedulerStats) float64 { return float64(st.Replicas) })
	cl.schedCounter("clipper_sched_submitted_total", "Queries routed through the scheduler.",
		metrics.KindCounter, func(st SchedulerStats) float64 { return float64(st.Submitted) })
	cl.schedCounter("clipper_sched_hedges_issued_total", "Straggler hedges issued.",
		metrics.KindCounter, func(st SchedulerStats) float64 { return float64(st.HedgesIssued) })
	cl.schedCounter("clipper_sched_hedges_won_total", "Hedge races the hedge won.",
		metrics.KindCounter, func(st SchedulerStats) float64 { return float64(st.HedgesWon) })
	cl.schedCounter("clipper_sched_hedges_wasted_total", "Hedge races the primary won anyway.",
		metrics.KindCounter, func(st SchedulerStats) float64 { return float64(st.HedgesWasted) })
	cl.schedCounter("clipper_sched_failovers_total", "Queries re-run on a sibling after a primary error.",
		metrics.KindCounter, func(st SchedulerStats) float64 { return float64(st.Failovers) })

	// --- Applications (multi-tenant QoS surface) ---
	cl.appCounter("clipper_app_predictions_total", "Predictions served (admission-degraded included).",
		metrics.KindCounter, func(st AppStatus) float64 { return float64(st.Predictions) })
	cl.appCounter("clipper_app_feedbacks_total", "Feedback observations folded into selection state.",
		metrics.KindCounter, func(st AppStatus) float64 { return float64(st.Feedbacks) })
	cl.appCounter("clipper_app_defaults_total", "Responses that fell back to the default label.",
		metrics.KindCounter, func(st AppStatus) float64 { return float64(st.Defaults) })
	cl.appCounter("clipper_app_sheds_total", "Queries rejected by the SLO admission gate.",
		metrics.KindCounter, func(st AppStatus) float64 { return float64(st.Sheds) })
	cl.appCounter("clipper_app_degrades_total", "Queries answered degraded (stale cache or default) by the admission gate.",
		metrics.KindCounter, func(st AppStatus) float64 { return float64(st.Degrades) })
	cl.appCounter("clipper_app_qos", "1 when the app opted into multi-tenant QoS.",
		metrics.KindGauge, func(st AppStatus) float64 { return boolGauge(st.QoS) })
	cl.appCounter("clipper_app_weight", "Fair-batching weight (effective).",
		metrics.KindGauge, func(st AppStatus) float64 { return float64(st.Weight) })
	cl.appCounter("clipper_app_slo_seconds", "Latency SLO (0 = none set).",
		metrics.KindGauge, func(st AppStatus) float64 { return st.SLOMillis / 1e3 })
	r.MustRegister("clipper_app_latency_seconds", "End-to-end prediction latency per application.",
		metrics.KindHistogram, func(dst []metrics.Series) []metrics.Series {
			registered := *cl.apps.Load()
			apps := make([]*Application, 0, len(registered))
			for _, a := range registered {
				apps = append(apps, a)
			}
			sort.Slice(apps, func(i, j int) bool { return apps[i].cfg.Name < apps[j].cfg.Name })
			for _, a := range apps {
				dst = metrics.AppendHistogram(dst, a.PredLatency, metrics.Label{Name: "app", Value: a.cfg.Name})
			}
			return dst
		})

	// --- Per-tenant fair-batching state ---
	r.MustRegister("clipper_tenant_queued", "Tenant sub-queue backlog on a replica (fair batching engaged).",
		metrics.KindGauge, func(dst []metrics.Series) []metrics.Series {
			cl.eachReplica(func(model string, rq *replicaQueue) {
				for _, tl := range rq.queue.TenantStats() {
					dst = append(dst, metrics.Series{
						Labels: tenantLabels(model, rq.replica.ID, tl.Tenant),
						Value:  float64(tl.Queued),
					})
				}
			})
			return dst
		})
	r.MustRegister("clipper_tenant_served_total", "Queries dequeued into batches per tenant on a replica.",
		metrics.KindCounter, func(dst []metrics.Series) []metrics.Series {
			cl.eachReplica(func(model string, rq *replicaQueue) {
				for _, tl := range rq.queue.TenantStats() {
					dst = append(dst, metrics.Series{
						Labels: tenantLabels(model, rq.replica.ID, tl.Tenant),
						Value:  float64(tl.Served),
					})
				}
			})
			return dst
		})
}

func tenantLabels(model, replica, tenant string) []metrics.Label {
	return []metrics.Label{
		{Name: "model", Value: model},
		{Name: "replica", Value: replica},
		{Name: "tenant", Value: tenant},
	}
}
