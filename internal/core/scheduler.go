package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clipper/internal/batching"
	"clipper/internal/container"
)

// This file is the cross-replica dispatch layer: where nextQueue used to
// walk a round-robin cursor, a per-model scheduler now routes each query
// to the replica with the lowest estimated completion time
// (join-shortest-queue weighted by measured per-replica speed), with
// hedged dispatch for stragglers layered on top (hedge.go). Every number
// it routes by comes from the replica queue's load model
// (batching.LoadModel), so a scheduling decision is a handful of atomic
// loads — no polling, no cross-queue locks, no estimator of its own.

// SchedPolicy selects the cross-replica dispatch strategy.
type SchedPolicy int

const (
	// SchedJSQ (the default) picks the replica with the lowest estimated
	// completion time: (queued + in-flight + 1) queries at the replica's
	// smoothed per-query service time, scaled up when its connection pool
	// is degraded. A slow, busy, or half-dead replica naturally receives
	// less work. Replicas with cold estimates are routed to round-robin
	// so every replica warms up; with one replica JSQ and round-robin are
	// identical.
	SchedJSQ SchedPolicy = iota
	// SchedRoundRobin restores the pre-scheduler blind rotation —
	// load-oblivious, kept for the paper-figure experiments and as an
	// A/B baseline.
	SchedRoundRobin
)

// String names the policy for status surfaces.
func (p SchedPolicy) String() string {
	switch p {
	case SchedRoundRobin:
		return "round-robin"
	default:
		return "jsq"
	}
}

// ParseSchedPolicy parses a policy name ("jsq", "rr", "round-robin").
func ParseSchedPolicy(s string) (SchedPolicy, error) {
	switch s {
	case "", "jsq":
		return SchedJSQ, nil
	case "rr", "round-robin":
		return SchedRoundRobin, nil
	default:
		return 0, fmt.Errorf("core: unknown scheduler policy %q", s)
	}
}

// defaultProbeEvery is the exploration period selected by
// SchedulerConfig.ProbeEvery = 0.
const defaultProbeEvery = 128

// SchedulerConfig parameterizes cross-replica dispatch. The zero value
// selects JSQ with hedging disabled.
type SchedulerConfig struct {
	// Policy is the dispatch strategy; the zero value is SchedJSQ.
	Policy SchedPolicy
	// ProbeEvery, under JSQ, routes every Nth dispatch round-robin
	// regardless of cost estimates, so a replica the estimator has
	// written off (it was slow once; it keeps a stale high EWMA because
	// it gets no traffic to prove otherwise) is periodically re-probed
	// and can rejoin. 0 selects 128; negative disables probing.
	ProbeEvery int
	// Hedge configures straggler hedging (off unless Hedge.Enabled).
	Hedge HedgeConfig
}

func (c SchedulerConfig) probeEvery() int {
	if c.ProbeEvery == 0 {
		return defaultProbeEvery
	}
	return c.ProbeEvery
}

// connHealther is implemented by predictors whose replica exposes cheap
// connection health (container.Remote does).
type connHealther interface {
	ConnHealth() (live, total int)
}

// replicaQueue pairs a replica with its adaptive batching queue,
// availability state, and the scheduler's per-replica hedge counters.
type replicaQueue struct {
	replica *container.Replica
	queue   *batching.Queue
	health  replicaHealth
	conns   connHealther // non-nil when the predictor exposes conn health

	hedgesFrom atomic.Int64 // hedges fired while this replica was primary
	hedgesWon  atomic.Int64 // hedges this replica answered first
}

func newReplicaQueue(rep *container.Replica, q *batching.Queue) *replicaQueue {
	rq := &replicaQueue{replica: rep, queue: q}
	rq.conns, _ = rep.Pred.(connHealther)
	rq.health.healthy.Store(true)
	return rq
}

// estCost is the replica's estimated completion time for one more query:
// the queue's depth-times-speed estimate, scaled by pool degradation
// (a replica on 1 of 4 live connections moves batches at a quarter of
// its wire parallelism, so its effective cost rises). ok is false while
// the queue's service-time estimate is cold.
func (rq *replicaQueue) estCost() (cost time.Duration, ok bool) {
	cost, ok = rq.queue.EstimateCost()
	if !ok {
		return 0, false
	}
	if rq.conns != nil {
		if live, total := rq.conns.ConnHealth(); total > 0 && live < total {
			if live < 1 {
				live = 1 // a fully dead pool is health's problem, not cost's
			}
			cost = cost * time.Duration(total) / time.Duration(live)
		}
	}
	return cost, true
}

// scheduler routes queries across one model's replicas.
type scheduler struct {
	model string
	cfg   SchedulerConfig

	mu       sync.RWMutex
	rqs      []*replicaQueue // copy-on-write; snapshots are never mutated
	tweights map[string]int  // tenant fair-batching weights, applied to every replica queue

	cursor   atomic.Uint64 // free-running rotation cursor
	picks    atomic.Uint64 // dispatch count, for ProbeEvery
	version  atomic.Int64  // deployed model version (cache keys); written by Deploy
	deployed int           // replicas ever deployed, numbering IDs (a roll-over shrinks the set); under Clipper.mu

	submitted    atomic.Int64
	hedgesIssued atomic.Int64
	hedgesWon    atomic.Int64
	hedgesWasted atomic.Int64
	failovers    atomic.Int64
}

func newScheduler(model string, cfg SchedulerConfig) *scheduler {
	return &scheduler{model: model, cfg: cfg}
}

// snapshot returns the current replica set. The slice is copy-on-write:
// readers may iterate it freely but must not mutate it.
func (s *scheduler) snapshot() []*replicaQueue {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rqs
}

func (s *scheduler) size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rqs)
}

// add appends a replica (copy-on-write, so outstanding snapshots stay
// valid), applying any registered tenant weights so a late-joining
// replica arbitrates fairly from its first batch.
func (s *scheduler) add(rq *replicaQueue) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for t, w := range s.tweights {
		rq.queue.SetTenantWeight(t, w)
	}
	next := make([]*replicaQueue, len(s.rqs)+1)
	copy(next, s.rqs)
	next[len(s.rqs)] = rq
	s.rqs = next
}

// setTenantWeight registers a tenant's fair-batching weight on every
// current replica queue and remembers it for replicas added later.
func (s *scheduler) setTenantWeight(tenant string, weight int) {
	s.mu.Lock()
	if s.tweights == nil {
		s.tweights = make(map[string]int)
	}
	s.tweights[tenant] = weight
	rqs := s.rqs
	s.mu.Unlock()
	for _, rq := range rqs {
		rq.queue.SetTenantWeight(tenant, weight)
	}
}

// replaceAll swaps the whole replica set for one new replica (a version
// roll-over), returning the retired set for the caller to drain. Like add,
// it applies the registered tenant weights to the new replica.
func (s *scheduler) replaceAll(rq *replicaQueue) (retired []*replicaQueue) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for t, w := range s.tweights {
		rq.queue.SetTenantWeight(t, w)
	}
	retired = s.rqs
	s.rqs = []*replicaQueue{rq}
	return retired
}

// pick chooses the replica for the next query, or nil when the model has
// no replicas.
func (s *scheduler) pick() *replicaQueue {
	rqs := s.snapshot()
	if len(rqs) == 0 {
		return nil
	}
	// Reduce the free-running cursor modulo the replica count before
	// converting to int: a plain int(cursor.Add(1)) goes negative once
	// the counter passes MaxInt64 and would index out of range.
	i := int(s.cursor.Add(1) % uint64(len(rqs)))
	if len(rqs) == 1 {
		return rqs[0]
	}
	if s.cfg.Policy == SchedRoundRobin || s.probeTick() {
		return pickOrdered(rqs, i)
	}

	// JSQ: lowest estimated completion time among healthy replicas. A
	// replica with a cold estimate is routed to only when it is first in
	// the cursor walk — that hands cold replicas ~1/n of traffic (plain
	// round-robin) until each has served a batch and priced itself,
	// without letting one stuck cold replica absorb the full stream. Ties
	// resolve to the replica closest after the cursor, so equal-cost
	// replicas still rotate instead of pinning the lowest index.
	var best *replicaQueue
	var bestCost time.Duration
	seenHealthy := false
	for probe := 0; probe < len(rqs); probe++ {
		rq := rqs[(i+probe)%len(rqs)]
		if !rq.health.healthy.Load() {
			continue
		}
		cost, warm := rq.estCost()
		if !warm && !seenHealthy {
			return rq
		}
		seenHealthy = true
		if !warm {
			continue
		}
		if best == nil || cost < bestCost {
			best, bestCost = rq, cost
		}
	}
	if best != nil {
		return best
	}
	// Every replica is unhealthy: rotate across all of them (serving
	// degraded beats serving nothing, and the rotation guarantees a
	// recovering replica sees traffic on its first healthy pick rather
	// than whenever the cursor happens back around).
	return rqs[i]
}

// pickOrdered returns the first healthy replica at or after i in cursor
// order, or rqs[i] when every replica is unhealthy — repeated picks then
// still rotate across the whole set instead of pinning one replica.
func pickOrdered(rqs []*replicaQueue, i int) *replicaQueue {
	for probe := 0; probe < len(rqs); probe++ {
		if rq := rqs[(i+probe)%len(rqs)]; rq.health.healthy.Load() {
			return rq
		}
	}
	return rqs[i]
}

// probeTick reports whether this dispatch is an exploration probe.
func (s *scheduler) probeTick() bool {
	pe := s.cfg.probeEvery()
	if pe <= 0 {
		return false
	}
	return s.picks.Add(1)%uint64(pe) == 0
}

// route picks the replica for one more query and counts it; nil with
// ErrUnknownModel when the model has no replicas.
func (s *scheduler) route() (*replicaQueue, error) {
	rq := s.pick()
	if rq == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, s.model)
	}
	s.submitted.Add(1)
	return rq, nil
}

// submit routes one query and blocks for its prediction (hedged when
// enabled). tenant names the sub-queue the query waits in; "" is the
// default tenant every non-QoS application shares.
func (s *scheduler) submit(ctx context.Context, tenant string, x []float64) (container.Prediction, error) {
	rq, err := s.route()
	if err != nil {
		return container.Prediction{}, err
	}
	if !s.cfg.Hedge.Enabled {
		return rq.queue.SubmitTenant(ctx, tenant, x)
	}
	return s.submitHedged(ctx, rq, tenant, x)
}

// start routes one query without waiting for it and never blocks: a full
// sub-queue refuses (batching.ErrQueueFull) rather than wait for room. done
// fires exactly once under batching.Request's completion rule — inline,
// before start returns, when no replica would take the query — unless
// r.Cancel withdraws it first.
func (s *scheduler) start(ctx context.Context, tenant string, r *batching.Request, x []float64, done func(batching.Result)) {
	rq, err := s.route()
	if err == nil && s.cfg.Hedge.Enabled {
		// One parked goroutine per hedged fetch (hedge.go); r stays idle,
		// ctx is what withdraws it.
		go func() {
			p, err := s.submitHedged(ctx, rq, tenant, x)
			done(batching.Result{Pred: p, Err: err})
		}()
		return
	}
	if err == nil {
		err = rq.queue.Start(ctx, tenant, r, x, done)
	}
	if err != nil {
		done(batching.Result{Err: err})
	}
}

// minEstCost is the scheduler's lowest estimated completion time for one
// more query across its healthy replicas — what the QoS admission gate
// compares against an application's SLO. ok is false while no healthy
// replica has priced itself (a cold system cannot predict a violation,
// so it admits).
func (s *scheduler) minEstCost() (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, rq := range s.snapshot() {
		if !rq.health.healthy.Load() {
			continue
		}
		if cost, warm := rq.estCost(); warm && (!found || cost < best) {
			best, found = cost, true
		}
	}
	return best, found
}

// SchedulerStats is one model's cross-replica dispatch counters.
type SchedulerStats struct {
	// Policy is the dispatch strategy ("jsq" or "round-robin").
	Policy string `json:"policy"`
	// Replicas is the current replica count.
	Replicas int `json:"replicas"`
	// Submitted counts queries routed through the scheduler.
	Submitted int64 `json:"submitted"`
	// HedgesIssued / HedgesWon / HedgesWasted count straggler hedges:
	// issued duplicates, races the hedge won, and races the primary won
	// anyway (the hedge was wasted work). Issued bounds at
	// HedgeConfig.BudgetFrac of Submitted.
	HedgesIssued int64 `json:"hedges_issued"`
	HedgesWon    int64 `json:"hedges_won"`
	HedgesWasted int64 `json:"hedges_wasted"`
	// Failovers counts queries re-run on a sibling after their first
	// replica returned an error (hedged mode only).
	Failovers int64 `json:"failovers"`
}

func (s *scheduler) stats() SchedulerStats {
	return SchedulerStats{
		Policy:       s.cfg.Policy.String(),
		Replicas:     s.size(),
		Submitted:    s.submitted.Load(),
		HedgesIssued: s.hedgesIssued.Load(),
		HedgesWon:    s.hedgesWon.Load(),
		HedgesWasted: s.hedgesWasted.Load(),
		Failovers:    s.failovers.Load(),
	}
}

// SchedulerStats reports a model's dispatch/hedge counters; ok is false
// for unknown models.
func (cl *Clipper) SchedulerStats(model string) (SchedulerStats, bool) {
	cl.mu.Lock()
	s := cl.scheds[model]
	cl.mu.Unlock()
	if s == nil {
		return SchedulerStats{}, false
	}
	return s.stats(), true
}
