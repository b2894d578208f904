package core

import (
	"time"

	"clipper/internal/batching"
	"clipper/internal/rpc"
)

// poolStatser is implemented by predictors whose replica exposes RPC
// connection telemetry (container.Remote does, pooled or not).
type poolStatser interface {
	PoolStats() rpc.PoolStats
}

// ReplicaStatus is one replica's operational snapshot: health, pipeline
// window, connection-pool state, and the scheduler's live load estimate.
// A replica with LiveConns < TotalConns is degraded — still serving on
// the surviving connections, but with less wire parallelism and one
// failure closer to outage — which the plain healthy bit cannot express.
type ReplicaStatus struct {
	ID      string `json:"id"`
	Healthy bool   `json:"healthy"`
	// Window is the replica queue's current dispatch pipeline window.
	// WindowPinned says QueueConfig.InFlight fixed it; otherwise it is
	// measured, and the Window* fields below say why it is where it is:
	// the last judged probe's verdict ("keep" or "revert", "" before the
	// first), the ratio it was judged on (the probe's batch latencies over
	// what the fitted line predicts for their sizes), and that line,
	// latency = WindowFitAMillis + WindowFitBMillis · rows.
	Window           int     `json:"window"`
	WindowPinned     bool    `json:"window_pinned"`
	WindowVerdict    string  `json:"window_verdict,omitempty"`
	WindowRatio      float64 `json:"window_ratio,omitempty"`
	WindowFitAMillis float64 `json:"window_fit_a_ms,omitempty"`
	WindowFitBMillis float64 `json:"window_fit_b_ms,omitempty"`
	// LiveConns / TotalConns report the RPC pool: live connections vs
	// dialed slots. Zero TotalConns means the replica is in-process (no
	// RPC pool to report).
	LiveConns  int `json:"live_conns"`
	TotalConns int `json:"total_conns"`

	// The replica's load model: the numbers JSQ dispatch routes by.
	// Queued is requests buffered in the batching queue; InFlightQueries
	// is requests claimed into a batch and not yet answered;
	// InFlightBatches is batches currently inside the container.
	Queued          int `json:"queued"`
	InFlightBatches int `json:"in_flight_batches"`
	InFlightQueries int `json:"in_flight_queries"`
	// CompletedQueries is the total queries this replica has answered.
	CompletedQueries int64 `json:"completed_queries"`
	// ServiceEWMAMillis is the smoothed per-query service time; 0 while
	// the estimate is cold.
	ServiceEWMAMillis float64 `json:"service_ewma_ms"`
	// EstCostMillis is the scheduler's current estimated completion time
	// for one more query on this replica (0 while cold) — depth × speed,
	// scaled for pool degradation.
	EstCostMillis float64 `json:"est_cost_ms"`
	// ArrivalRate is the smoothed requests/s entering this replica's queue.
	ArrivalRate float64 `json:"arrival_rate"`
	// HedgesFrom counts hedges fired while this replica held the primary
	// request (it was the straggler); HedgesWon counts hedge races this
	// replica answered first (it was the rescuer).
	HedgesFrom int64 `json:"hedges_from"`
	HedgesWon  int64 `json:"hedges_won"`
	// Tenants is the queue's per-tenant fair-batching snapshot, in
	// registration order. Empty until multi-tenant QoS engages on this
	// replica.
	Tenants []TenantStatus `json:"tenants,omitempty"`
}

// TenantStatus is one tenant's slice of a replica's batch queue.
type TenantStatus struct {
	// Tenant is the application name ("" is the default tenant non-QoS
	// applications share, listed once it has held a request).
	Tenant string `json:"tenant"`
	// Weight is the tenant's deficit-round-robin weight.
	Weight int `json:"weight"`
	// Queued is the tenant's current sub-queue backlog.
	Queued int `json:"queued"`
	// Served is the total queries dequeued into batches for this tenant.
	Served int64 `json:"served"`
	// Deficit is the tenant's unspent round-robin credit.
	Deficit int `json:"deficit"`
}

// ReplicaStatuses reports each replica's status for a model, keyed by
// replica ID. Unknown models yield an empty map.
func (cl *Clipper) ReplicaStatuses(model string) map[string]ReplicaStatus {
	rqs := cl.modelReplicas(model)
	out := make(map[string]ReplicaStatus, len(rqs))
	for _, rq := range rqs {
		r := rq.snap()
		out[r.id] = r.status()
	}
	return out
}

// status renders the snapshot as the admin JSON: durations in
// milliseconds, float64(d)/1e6.
func (r *replicaSnap) status() ReplicaStatus {
	st := ReplicaStatus{
		ID:                r.id,
		Healthy:           r.healthy,
		Window:            r.window,
		WindowPinned:      !r.measured,
		Queued:            r.load.Queued,
		InFlightBatches:   r.load.InFlightBatches,
		InFlightQueries:   r.load.InFlightQueries,
		CompletedQueries:  r.load.Completed,
		ServiceEWMAMillis: float64(r.load.PerQueryService) / float64(1e6),
		ArrivalRate:       r.load.ArrivalRate,
		HedgesFrom:        r.hedgesFrom,
		HedgesWon:         r.hedgesWon,
	}
	if r.measured {
		st.WindowVerdict, st.WindowRatio = r.adaptive.Verdict, r.adaptive.Ratio
		st.WindowFitAMillis = float64(r.adaptive.FitA) / 1e6
		st.WindowFitBMillis = float64(r.adaptive.FitB) / 1e6
	}
	if r.costed {
		st.EstCostMillis = float64(r.cost) / float64(1e6)
	}
	if r.pooled {
		st.LiveConns = r.pool.Live
		st.TotalConns = r.pool.Conns
	}
	for _, tl := range r.tenants {
		st.Tenants = append(st.Tenants, TenantStatus{
			Tenant:  tl.Tenant,
			Weight:  tl.Weight,
			Queued:  tl.Queued,
			Served:  tl.Served,
			Deficit: tl.Deficit,
		})
	}
	return st
}

// modelSnap is one model's read-out: its scheduler counters and its
// replicas in deployment order.
type modelSnap struct {
	model    string
	sched    SchedulerStats
	replicas []replicaSnap
}

// replicaSnap is one replica's read-out. Counts and durations stay as the
// replica keeps them; each rendering converts them to its own units.
type replicaSnap struct {
	id         string
	healthy    bool
	load       batching.LoadStats
	window     int // the dispatch window now, pinned or measured
	cost       time.Duration
	costed     bool // cost is known: the load model is warm
	pool       rpc.PoolStats
	pooled     bool // the replica has an RPC pool
	hedgesFrom int64
	hedgesWon  int64
	queue      *batching.Queue // its histograms, read where they are rendered

	measured bool                      // the window is not pinned
	adaptive batching.AdaptiveSnapshot // the window controller's operating point, when measured
	tenants  []batching.TenantLoad     // the queue's fair-batching tenants
	maxBatch int                       // the batching controller's cap
}

// modelSnaps reads every model, in no particular order: its scheduler
// counters and its replicas in deployment order.
func (cl *Clipper) modelSnaps() []modelSnap {
	cl.mu.Lock()
	out := make([]modelSnap, 0, len(cl.scheds))
	scheds := make([]*scheduler, 0, len(cl.scheds))
	for name, s := range cl.scheds {
		out = append(out, modelSnap{model: name})
		scheds = append(scheds, s)
	}
	cl.mu.Unlock()
	for i, s := range scheds {
		rqs := s.snapshot()
		out[i].sched = s.stats()
		out[i].replicas = make([]replicaSnap, len(rqs))
		for j, rq := range rqs {
			out[i].replicas[j] = rq.snap()
		}
	}
	return out
}

// snap reads the replica once: every figure any read-out renders.
func (rq *replicaQueue) snap() replicaSnap {
	r := replicaSnap{
		id:         rq.replica.ID,
		healthy:    rq.health.healthy.Load(),
		load:       rq.queue.LoadStats(),
		window:     rq.queue.InFlight(),
		hedgesFrom: rq.hedgesFrom.Load(),
		hedgesWon:  rq.hedgesWon.Load(),
		queue:      rq.queue,
		tenants:    rq.queue.TenantStats(),
		maxBatch:   rq.queue.Controller().MaxBatch(),
	}
	r.cost, r.costed = rq.estCost()
	if ps, ok := rq.replica.Pred.(poolStatser); ok {
		r.pool, r.pooled = ps.PoolStats(), true
	}
	r.adaptive, r.measured = rq.queue.Window()
	return r
}
