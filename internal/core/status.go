package core

import (
	"clipper/internal/rpc"
)

// PoolStatser is implemented by predictors whose replica exposes RPC
// connection telemetry (container.Remote does, pooled or not).
type PoolStatser interface {
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
		ls := rq.queue.LoadStats()
		st := ReplicaStatus{
			ID:               rq.replica.ID,
			Healthy:          rq.health.healthy.Load(),
			Window:           rq.queue.InFlight(),
			WindowPinned:     rq.queue.Adaptive() == nil,
			Queued:           ls.Queued,
			InFlightBatches:  ls.InFlightBatches,
			InFlightQueries:  ls.InFlightQueries,
			CompletedQueries: ls.Completed,
			ServiceEWMAMillis: float64(ls.PerQueryService) /
				float64(1e6),
			ArrivalRate: ls.ArrivalRate,
			HedgesFrom:  rq.hedgesFrom.Load(),
			HedgesWon:   rq.hedgesWon.Load(),
		}
		if a := rq.queue.Adaptive(); a != nil {
			snap := a.Snapshot()
			st.WindowVerdict, st.WindowRatio = snap.Verdict, snap.Ratio
			st.WindowFitAMillis = float64(snap.FitA) / 1e6
			st.WindowFitBMillis = float64(snap.FitB) / 1e6
		}
		if cost, ok := rq.estCost(); ok {
			st.EstCostMillis = float64(cost) / float64(1e6)
		}
		if ps, ok := rq.replica.Pred.(PoolStatser); ok {
			s := ps.PoolStats()
			st.LiveConns = s.Live
			st.TotalConns = s.Conns
		}
		for _, tl := range rq.queue.TenantStats() {
			st.Tenants = append(st.Tenants, TenantStatus{
				Tenant:  tl.Tenant,
				Weight:  tl.Weight,
				Queued:  tl.Queued,
				Served:  tl.Served,
				Deficit: tl.Deficit,
			})
		}
		out[rq.replica.ID] = st
	}
	return out
}
