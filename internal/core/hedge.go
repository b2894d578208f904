package core

import (
	"context"
	"time"

	"clipper/internal/batching"
	"clipper/internal/container"
)

// Hedged dispatch (the tail-at-scale treatment of the paper's §4.3
// straggler mitigation): a request that has waited past the fastest
// replica's tail sojourn estimate in a queue whose replica has stopped
// draining — or whose replica now costs several times its best sibling —
// is re-enqueued on the current fastest replica. First successful result
// wins; the loser is withdrawn via batching.Ticket.Cancel (or its Result
// discarded if a batch already collected it), so the caller still sees
// exactly one outcome. A hedge budget bounds duplicates to a fraction of
// offered load. Racing two tickets against a timer needs a goroutine to
// park, so with hedging on (off by default) scheduler.start spends one per
// fetch where the plain path is a registered completion.

// HedgeConfig parameterizes straggler hedging. Zero values select
// defaults; hedging is off unless Enabled.
type HedgeConfig struct {
	// Enabled turns hedged dispatch on.
	Enabled bool
	// MinDelay floors the hedge delay (and is the delay while every
	// replica's load model is cold); 0 selects 500µs.
	MinDelay time.Duration
	// BudgetFrac bounds hedges issued to this fraction of submitted
	// queries; 0 selects 0.1 (10% of offered load).
	BudgetFrac float64
}

// hedgeSlowFactor gates hedges on cost: a request whose primary still
// drains only hedges when the primary's estimated completion time exceeds
// this multiple of its best sibling's.
const hedgeSlowFactor = 2.0

func (h HedgeConfig) minDelay() time.Duration {
	if h.MinDelay <= 0 {
		return 500 * time.Microsecond
	}
	return h.MinDelay
}

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
// across healthy replicas with a warm model), floored at MinDelay.
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
	return max(best, s.cfg.Hedge.minDelay())
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

// hedgeBudgetOK admits one more hedge iff issued hedges stay within
// BudgetFrac of offered load.
func (s *scheduler) hedgeBudgetOK() bool {
	return float64(s.hedgesIssued.Load()+1) <= s.cfg.Hedge.budgetFrac()*float64(s.submitted.Load())
}

// hedgeTarget decides whether a timed-out request should hedge, and where
// to. Firing requires all of: budget headroom, a healthy sibling, and a
// primary that either stopped draining since the request was submitted
// (the stuck-replica signal) or costs hedgeSlowFactor× its best sibling (the
// merely-slow signal). A primary that is draining normally and fairly
// priced just had an unlucky timer — no hedge.
func (s *scheduler) hedgeTarget(primary *replicaQueue, drainedAtSubmit int64) *replicaQueue {
	if !s.hedgeBudgetOK() {
		return nil
	}
	alt := s.bestAlternative(primary)
	if alt == nil {
		return nil
	}
	if primary.queue.LoadStats().Completed == drainedAtSubmit {
		return alt // replica has not drained a single query since submit
	}
	pCost, pWarm := primary.estCost()
	aCost, aWarm := alt.estCost()
	if pWarm && aWarm && float64(pCost) > hedgeSlowFactor*float64(aCost) {
		return alt
	}
	return nil
}

// submitHedged dispatches x on primary with straggler hedging. The
// caller sees exactly one outcome: the first successful Result wins and
// the loser is cancelled (or its Result silently discarded if already in
// a batch — ticket channels are buffered, so the queue never blocks on
// an abandoned loser). An error from one side falls back to the other,
// which is what carries a request across a replica that dies mid-flight.
func (s *scheduler) submitHedged(ctx context.Context, primary *replicaQueue, tenant string, x []float64) (container.Prediction, error) {
	tk, err := primary.queue.SubmitTicket(ctx, tenant, x)
	if err != nil {
		// The primary refused outright (queue closed under a swap/stop
		// race): fail over once instead of surfacing a transient.
		if alt := s.bestAlternative(primary); alt != nil {
			s.failovers.Add(1)
			return alt.queue.SubmitTenant(ctx, tenant, x)
		}
		return container.Prediction{}, err
	}
	drainedAtSubmit := primary.queue.LoadStats().Completed

	timer := time.NewTimer(s.hedgeDelay())
	defer timer.Stop()
	select {
	case res := <-tk.Done():
		return s.finishPrimary(ctx, primary, res, tenant, x)
	case <-ctx.Done():
		tk.Cancel()
		return container.Prediction{}, ctx.Err()
	case <-timer.C:
	}

	alt := s.hedgeTarget(primary, drainedAtSubmit)
	if alt == nil {
		// Gates said no (budget spent, no sibling, or the primary is
		// draining fine): wait out the primary.
		select {
		case res := <-tk.Done():
			return s.finishPrimary(ctx, primary, res, tenant, x)
		case <-ctx.Done():
			tk.Cancel()
			return container.Prediction{}, ctx.Err()
		}
	}

	s.hedgesIssued.Add(1)
	primary.hedgesFrom.Add(1)
	ht, herr := alt.queue.SubmitTicket(ctx, tenant, x)
	if herr != nil {
		// Hedge could not even enqueue; the primary is all we have.
		select {
		case res := <-tk.Done():
			return s.finishPrimary(ctx, primary, res, tenant, x)
		case <-ctx.Done():
			tk.Cancel()
			return container.Prediction{}, ctx.Err()
		}
	}

	// Race the two tickets: first success wins, an error arm drops out
	// and leaves the other as sole hope, both-error surfaces the first
	// error.
	pDone, hDone := tk.Done(), ht.Done()
	var firstErr error
	for {
		select {
		case res := <-pDone:
			if res.Err == nil {
				ht.Cancel()
				s.hedgesWasted.Add(1)
				return res.Pred, nil
			}
			pDone = nil
			if firstErr == nil {
				firstErr = res.Err
			}
			if hDone == nil {
				return container.Prediction{}, firstErr
			}
		case res := <-hDone:
			if res.Err == nil {
				tk.Cancel()
				s.hedgesWon.Add(1)
				alt.hedgesWon.Add(1)
				return res.Pred, nil
			}
			hDone = nil
			if firstErr == nil {
				firstErr = res.Err
			}
			if pDone == nil {
				return container.Prediction{}, firstErr
			}
		case <-ctx.Done():
			tk.Cancel()
			ht.Cancel()
			return container.Prediction{}, ctx.Err()
		}
	}
}

// finishPrimary handles the primary's Result when no hedge is in flight:
// an error fails over once to the best healthy sibling (a replica that
// died with requests queued fails them all at once — its survivors can
// still answer).
func (s *scheduler) finishPrimary(ctx context.Context, primary *replicaQueue, res batching.Result, tenant string, x []float64) (container.Prediction, error) {
	if res.Err == nil {
		return res.Pred, nil
	}
	alt := s.bestAlternative(primary)
	if alt == nil {
		return container.Prediction{}, res.Err
	}
	s.failovers.Add(1)
	p, err := alt.queue.SubmitTenant(ctx, tenant, x)
	if err != nil {
		return container.Prediction{}, res.Err // surface the original failure
	}
	return p, nil
}
