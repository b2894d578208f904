package core

import (
	"context"
	"sync"
	"time"

	"clipper/internal/batching"
)

// Hedged dispatch (the tail-at-scale treatment of the paper's §4.3
// straggler mitigation): a request that has waited past the fastest
// replica's tail sojourn estimate in a queue whose replica has stopped
// draining — or whose replica now costs several times its best sibling —
// is started again on the current fastest replica. The first success wins
// and Cancels the other copy (a copy a batch already claimed runs on, and
// its Result is dropped), so the caller still sees exactly one outcome. A
// hedge budget bounds duplicates to a fraction of offered load. Like every
// other dispatch it is completions only: a timer and a context callback
// drive it, and no goroutine waits per fetch.

// HedgeConfig parameterizes straggler hedging. Zero values select
// defaults; hedging is off unless Enabled.
type HedgeConfig struct {
	// Enabled turns hedged dispatch on.
	Enabled bool
	// BudgetFrac bounds hedges issued to this fraction of submitted
	// queries; 0 selects 0.1 (10% of offered load).
	BudgetFrac float64
}

// hedgeMinDelay floors the hedge delay, and is the delay while every
// replica's load model is cold.
const hedgeMinDelay = 500 * time.Microsecond

// hedgeSlowFactor gates hedges on cost: a request whose primary still
// drains only hedges when the primary's estimated completion time exceeds
// this multiple of its best sibling's.
const hedgeSlowFactor = 2.0

func (h HedgeConfig) budgetFrac() float64 {
	if h.BudgetFrac <= 0 {
		return 0.1
	}
	if h.BudgetFrac > 1 {
		return 1
	}
	return h.BudgetFrac
}

// hedgeDelay is the wait before a request is considered straggling: the
// load model's tail sojourn estimate of the *fastest* replica (minimum
// across healthy replicas with a warm model), floored at hedgeMinDelay.
// Judging against the fastest replica matters: a request stuck on a slow
// replica must be measured against the service level its healthy siblings
// deliver, not against the slow replica's own (already inflated) history.
func (s *scheduler) hedgeDelay() time.Duration {
	var best time.Duration
	for _, rq := range s.snapshot() {
		if !rq.health.healthy.Load() {
			continue
		}
		if tail := rq.queue.LoadStats().Tail; tail > 0 && (best == 0 || tail < best) {
			best = tail
		}
	}
	return max(best, hedgeMinDelay)
}

// bestAlternative returns the healthy replica (excluding skip) with the
// lowest estimated completion time — the "current fastest replica" a
// hedge or failover re-enqueues on. Warm replicas are preferred; a cold
// one is returned only when no sibling has priced itself yet. Nil when
// the model has no healthy sibling.
func (s *scheduler) bestAlternative(skip *replicaQueue) *replicaQueue {
	var best, cold *replicaQueue
	var bestCost time.Duration
	for _, rq := range s.snapshot() {
		if rq == skip || !rq.health.healthy.Load() {
			continue
		}
		cost, warm := rq.estCost()
		if !warm {
			if cold == nil {
				cold = rq
			}
			continue
		}
		if best == nil || cost < bestCost {
			best, bestCost = rq, cost
		}
	}
	if best != nil {
		return best
	}
	return cold
}

// reserveHedge claims one hedge from the budget, issued+1 ≤ BudgetFrac ×
// submitted, checking and counting in one step: hedge timers that fire
// together cannot all pass the check at the boundary.
func (s *scheduler) reserveHedge() bool {
	limit := s.cfg.Hedge.budgetFrac() * float64(s.submitted.Load())
	for {
		n := s.hedgesIssued.Load()
		if float64(n+1) > limit {
			return false
		}
		if s.hedgesIssued.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// hedgeTarget decides whether a timed-out request should hedge, and where
// to. Firing requires all of: a healthy sibling, a primary that either
// stopped draining since the request was submitted (the stuck-replica
// signal) or costs hedgeSlowFactor× its best sibling (the merely-slow
// signal), and budget headroom, reserved last so only a hedge that fires
// spends it. A primary that is draining normally and fairly priced just had
// an unlucky timer — no hedge.
func (s *scheduler) hedgeTarget(primary *replicaQueue, drainedAtSubmit int64) *replicaQueue {
	alt := s.bestAlternative(primary)
	if alt == nil {
		return nil
	}
	if primary.queue.LoadStats().Completed != drainedAtSubmit {
		pCost, pWarm := primary.estCost()
		aCost, aWarm := alt.estCost()
		if !pWarm || !aWarm || float64(pCost) <= hedgeSlowFactor*float64(aCost) {
			return nil
		}
	}
	if !s.reserveHedge() {
		return nil
	}
	return alt
}

// The copies of one hedged fetch, indexing hedgedFetch.reqs.
const (
	copyPrimary  = iota
	copyHedge    // started by the hedge timer on the best sibling
	copyFailover // started once when the primary fails with no hedge in flight
)

// hedgedFetch is one query under hedging: its copies in replica queues and
// the one done they share. Its events — a copy's completion, the hedge
// timer, ctx ending — each take mu, and the first to end the fetch sets over
// and fires done; every later one finds over set and does nothing more.
// Whatever ends the fetch Cancels the copies still queued. mu guards fields
// only: no Start and no scheduler call runs under it, so a completion, which
// a batch's goroutine delivers, never waits behind one.
type hedgedFetch struct {
	s       *scheduler
	ctx     context.Context
	tenant  string
	x       []float64
	done    func(batching.Result)
	primary *replicaQueue
	drained int64 // the primary's completed count at submit

	mu      sync.Mutex
	over    bool
	reqs    [3]batching.Request
	live    [3]bool       // being started or queued, its Result still owed
	alt     *replicaQueue // the sibling a second copy (hedge or failover) went to
	err     error         // the first copy's error, surfaced if no copy succeeds
	timer   *time.Timer
	unwatch func() bool // stops the ctx callback
}

// startHedged starts x on primary under hedging; done fires exactly once.
func (s *scheduler) startHedged(ctx context.Context, primary *replicaQueue, tenant string, x []float64, done func(batching.Result)) {
	h := &hedgedFetch{s: s, ctx: ctx, tenant: tenant, x: x, done: done, primary: primary}
	h.drained = primary.queue.LoadStats().Completed
	h.live[copyPrimary] = true
	delay := s.hedgeDelay()
	h.mu.Lock() // the callbacks take mu, so they find both set
	h.timer = time.AfterFunc(delay, h.fire)
	h.unwatch = context.AfterFunc(ctx, h.cancel)
	h.mu.Unlock()
	h.start(copyPrimary, primary)
}

// start Starts copy i, already marked live, on rq. A refusal is that copy's
// error, except that a refused hedge leaves the primary free to fail over.
func (h *hedgedFetch) start(i int, rq *replicaQueue) {
	err := rq.queue.Start(h.ctx, h.tenant, &h.reqs[i], h.x, func(res batching.Result) {
		h.mu.Lock()
		h.arriveLocked(i, res)
	})
	if err == nil {
		return
	}
	h.mu.Lock()
	if i != copyHedge {
		h.arriveLocked(i, batching.Result{Err: err})
		return
	}
	h.alt, h.live[copyHedge] = nil, false
	h.settleLocked()
}

// arriveLocked takes copy i's Result and releases mu. The first success wins.
func (h *hedgedFetch) arriveLocked(i int, res batching.Result) {
	h.live[i] = false
	if h.over {
		h.mu.Unlock()
		return
	}
	if res.Err == nil {
		switch {
		case i == copyHedge:
			h.s.hedgesWon.Add(1)
			h.alt.hedgesWon.Add(1)
		case i == copyPrimary && h.alt != nil:
			h.s.hedgesWasted.Add(1)
		}
		h.finishLocked(res)
		return
	}
	if h.err == nil {
		h.err = res.Err
	}
	h.settleLocked()
}

// settleLocked follows a copy that failed, and releases mu. While another
// copy is live it waits for that one. With none, a primary that failed with
// no second copy sent fails over once to the best sibling — a replica that
// died with requests queued fails them all at once, and its survivors can
// still answer — and otherwise the first error ends the fetch.
func (h *hedgedFetch) settleLocked() {
	if h.over || h.live[copyPrimary] || h.live[copyHedge] || h.live[copyFailover] {
		h.mu.Unlock()
		return
	}
	if h.alt == nil {
		if alt := h.s.bestAlternative(h.primary); alt != nil {
			h.s.failovers.Add(1)
			h.alt, h.live[copyFailover] = alt, true
			h.mu.Unlock()
			h.start(copyFailover, alt)
			return
		}
	}
	h.finishLocked(batching.Result{Err: h.err})
}

// fire is the hedge timer: while the primary copy is still owed, it asks
// hedgeTarget and starts the hedge copy there.
func (h *hedgedFetch) fire() {
	h.mu.Lock()
	owed := !h.over && h.live[copyPrimary]
	h.mu.Unlock()
	if !owed {
		return
	}
	alt := h.s.hedgeTarget(h.primary, h.drained)
	if alt == nil {
		return // budget spent, no sibling, or the primary drains fine
	}
	h.mu.Lock()
	if h.over || !h.live[copyPrimary] {
		h.mu.Unlock()
		h.s.hedgesIssued.Add(-1) // ended, or failed, while hedgeTarget decided
		return
	}
	h.alt, h.live[copyHedge] = alt, true
	h.mu.Unlock()
	h.primary.hedgesFrom.Add(1)
	h.start(copyHedge, alt)
}

// cancel is the ctx callback: it ends the fetch with ctx's error.
func (h *hedgedFetch) cancel() {
	h.mu.Lock()
	if h.over {
		h.mu.Unlock()
		return
	}
	h.finishLocked(batching.Result{Err: h.ctx.Err()})
}

// finishLocked ends the fetch with res: it sets over, withdraws the copies
// still queued (one still being started may yet run; its Result finds over
// set), releases mu, stops the timer and the ctx callback, and fires done.
func (h *hedgedFetch) finishLocked(res batching.Result) {
	h.over = true
	for i := range h.reqs {
		h.reqs[i].Cancel()
	}
	timer, unwatch := h.timer, h.unwatch
	h.mu.Unlock()
	timer.Stop()
	unwatch()
	h.done(res)
}
