package batching

import (
	"context"
	"time"

	"clipper/internal/container"
)

// Multi-tenant fair batching (the QoS half of the paper's SLO story):
// requests tagged with a tenant ID land in per-tenant sub-queues and the
// collector arbitrates across them by weighted deficit round-robin
// instead of strict FIFO, so one chatty application cannot starve
// another that shares the replica. The fair path engages lazily — the
// first SubmitTenant/SetTenantWeight flips the queue into fair mode —
// and untagged queues never take it, keeping the single-tenant paper
// experiments on the exact FIFO code path.
//
// DRR semantics: each round a tenant with backlog earns `weight` credits
// (its deficit); it dequeues one request per credit until the credits or
// the backlog run out, then the rotation moves on. Unspent credits carry
// only while backlog remains (an emptied or idle sub-queue forfeits its
// deficit), so a returning tenant cannot burst on hoarded credit. Over
// any interval where tenants stay backlogged, tenant i's share of
// dequeues converges to weight_i / Σ weights, within one batch.

// tenantQueue is one tenant's FIFO sub-queue plus its DRR state. All
// fields are guarded by Queue.tenMu.
type tenantQueue struct {
	name    string
	weight  int64
	reqs    []*request
	head    int   // reqs[:head] are already dequeued (and nilled)
	deficit int64 // unspent DRR credits, bounded by weight
	served  int64 // requests dequeued into batches since queue start
}

func (t *tenantQueue) len() int { return len(t.reqs) - t.head }

func (t *tenantQueue) push(r *request) { t.reqs = append(t.reqs, r) }

func (t *tenantQueue) pop() *request {
	r := t.reqs[t.head]
	t.reqs[t.head] = nil // do not pin delivered requests
	t.head++
	if t.head == len(t.reqs) {
		t.reqs, t.head = t.reqs[:0], 0
	}
	return r
}

// TenantLoad is one tenant's fair-batching snapshot, exported alongside
// LoadStats for the scheduler and the admin /replicas surface.
type TenantLoad struct {
	// Tenant is the tenant ID ("" is the pseudo-tenant that untagged
	// submissions join once fair mode engages).
	Tenant string
	// Weight is the tenant's DRR weight.
	Weight int
	// Queued is the tenant's current sub-queue backlog.
	Queued int
	// Served is the total requests dequeued into batches for this tenant.
	Served int64
	// Deficit is the tenant's unspent DRR credit.
	Deficit int
}

// fairEngaged reports whether the queue has switched to fair collection.
// The flag is sticky: once any tenant registers, FIFO arrival order
// across tenants is already gone, so there is no path back.
func (q *Queue) fairEngaged() bool { return q.fairMode.Load() }

// tenantLocked returns (creating if needed) the sub-queue for name.
// Callers hold q.tenMu.
func (q *Queue) tenantLocked(name string) *tenantQueue {
	if q.tenants == nil {
		q.tenants = make(map[string]*tenantQueue)
	}
	t := q.tenants[name]
	if t == nil {
		t = &tenantQueue{name: name, weight: 1}
		q.tenants[name] = t
		q.tenOrder = append(q.tenOrder, t)
	}
	return t
}

// SetTenantWeight registers tenant with the given DRR weight (creating
// its sub-queue) and engages fair collection. Weights below 1 clamp to 1.
// The "" tenant is the untagged pseudo-tenant; raising its weight
// prioritizes untagged traffic in fair mode.
func (q *Queue) SetTenantWeight(tenant string, weight int) {
	if weight < 1 {
		weight = 1
	}
	q.tenMu.Lock()
	q.tenantLocked(tenant).weight = int64(weight)
	q.tenMu.Unlock()
	q.fairMode.Store(true)
	q.notifyTenant() // a collector parked on the FIFO select must re-check
}

// TenantStats snapshots every tenant's fair-batching state, in
// registration order. Empty until fair mode engages.
func (q *Queue) TenantStats() []TenantLoad {
	q.tenMu.Lock()
	defer q.tenMu.Unlock()
	out := make([]TenantLoad, 0, len(q.tenOrder))
	for _, t := range q.tenOrder {
		out = append(out, TenantLoad{
			Tenant:  t.name,
			Weight:  int(t.weight),
			Queued:  t.len(),
			Served:  t.served,
			Deficit: int(t.deficit),
		})
	}
	return out
}

// SubmitTenant is Submit tagged with a tenant ID for fair batching. An
// empty tenant takes the untagged FIFO path unchanged.
func (q *Queue) SubmitTenant(ctx context.Context, tenant string, x []float64) (container.Prediction, error) {
	if tenant == "" {
		return q.Submit(ctx, x)
	}
	req := reqPool.Get().(*request)
	req.x, req.enq = x, time.Now()
	req.state.Store(reqQueued)
	if err := q.submitTenant(ctx, tenant, req); err != nil {
		req.x = nil
		reqPool.Put(req)
		return container.Prediction{}, err
	}
	select {
	case res := <-req.done:
		req.x = nil
		reqPool.Put(req)
		return res.Pred, res.Err
	case <-ctx.Done():
		// Abandoned mid-queue: the dispatch side may still deliver into
		// req.done, so the request leaks to the GC rather than pooling
		// dirty (same contract as Submit).
		return container.Prediction{}, ctx.Err()
	}
}

// SubmitTicketTenant is SubmitTicket tagged with a tenant ID. An empty
// tenant takes the untagged path unchanged.
func (q *Queue) SubmitTicketTenant(ctx context.Context, tenant string, x []float64) (*Ticket, error) {
	if tenant == "" {
		return q.SubmitTicket(ctx, x)
	}
	req := &request{x: x, enq: time.Now(), done: make(chan Result, 1)}
	if err := q.submitTenant(ctx, tenant, req); err != nil {
		return nil, err
	}
	return &Ticket{req: req}, nil
}

// submitTenant is the fenced tenant-path enqueue. Sub-queues are
// unbounded slices rather than bounded channels: backpressure for
// tenant-tagged traffic is the admission gate's job (internal/core sheds
// against EstimateCost before submitting), and an unbounded append keeps
// the enqueue non-blocking under tenMu. The submitMu fence mirrors
// submit: Close acquires the write side after closing stop, so a
// committed enqueue is always visible to Close's final drain.
func (q *Queue) submitTenant(ctx context.Context, tenant string, req *request) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// Engage fair mode before the request becomes visible, so a collector
	// woken by notifyTenant below cannot observe the request while still
	// on the FIFO path.
	q.fairMode.Store(true)
	q.submitMu.RLock()
	defer q.submitMu.RUnlock()
	select {
	case <-q.stop:
		return ErrQueueClosed
	default:
	}
	// Count before the request becomes visible: the pop side decrements
	// only after seeing it, so the counters never dip negative.
	q.tenantPending.Add(1)
	q.load.queued.Add(1) // EstimateCost must see tenant backlog too
	q.tenMu.Lock()
	q.tenantLocked(tenant).push(req)
	q.tenMu.Unlock()
	q.notifyTenant()
	return nil
}

// notifyTenant wakes a collector that may be parked waiting for work.
// The channel is buffered(1): a pending token means "state changed,
// re-check", so concurrent submitters collapse into one wakeup and the
// send never blocks.
func (q *Queue) notifyTenant() {
	select {
	case q.tenantNotify <- struct{}{}:
	default:
	}
}

// routeUntagged moves an untagged request from the FIFO channel into the
// "" pseudo-tenant so fair collection arbitrates it too. load.queued stays
// up: it was counted at submit and is released at the DRR pop.
func (q *Queue) routeUntagged(r *request) {
	q.tenantPending.Add(1)
	q.tenMu.Lock()
	q.tenantLocked("").push(r)
	q.tenMu.Unlock()
}

// drainUntagged empties the FIFO channel into the pseudo-tenant without
// blocking.
func (q *Queue) drainUntagged() {
	for {
		select {
		case r := <-q.in:
			q.routeUntagged(r)
		default:
			return
		}
	}
}

// takeDRR appends up to max-len(*batch) claimable requests to batch,
// drawn from the tenant sub-queues by weighted deficit round-robin. It
// returns either because the batch is full (rotation position and
// mid-round credit persist, so the next batch resumes exactly where this
// one stopped) or because every sub-queue is empty.
func (q *Queue) takeDRR(batch *[]*request, max int) {
	q.tenMu.Lock()
	defer q.tenMu.Unlock()
	empties := 0 // consecutive backlog-free tenants visited
	for len(*batch) < max && empties < len(q.tenOrder) {
		if q.drrPos >= len(q.tenOrder) {
			q.drrPos = 0
		}
		t := q.tenOrder[q.drrPos]
		if t.len() == 0 {
			t.deficit = 0 // idle tenants forfeit credit
			q.drrPos++
			empties++
			continue
		}
		empties = 0
		if !q.drrMid {
			t.deficit += t.weight
		}
		q.drrMid = false
		for t.deficit > 0 && t.len() > 0 {
			if len(*batch) >= max {
				// Batch full mid-service: keep the unspent credit and
				// resume this tenant first next time, without re-crediting.
				q.drrMid = true
				return
			}
			r := t.pop()
			q.tenantPending.Add(-1)
			if q.take(r) {
				*batch = append(*batch, r)
				t.served++
				t.deficit--
			}
			// A cancelled request spends no credit: the tenant withdrew
			// it before service.
		}
		if t.len() == 0 {
			t.deficit = 0
		}
		q.drrPos++
	}
}

// firstFair blocks for the first request of the next batch under fair
// collection, returning nil when the queue is stopping. Untagged
// arrivals are folded into the pseudo-tenant so the DRR rotation decides
// who goes first even for the head of the batch.
func (q *Queue) firstFair() *request {
	for {
		q.drainUntagged()
		var one []*request
		q.takeDRR(&one, 1)
		if len(one) == 1 {
			return one[0]
		}
		select {
		case <-q.tenantNotify:
		case r := <-q.in:
			q.routeUntagged(r)
		case <-q.stop:
			return nil
		}
	}
}

// collectFair assembles a batch starting from first under fair
// collection, honoring the controller's cap and the optional
// delayed-batching timeout — the fair-mode counterpart of collect.
func (q *Queue) collectFair(first *request) []*request {
	max := q.ctrl.MaxBatch()
	if max < 1 {
		max = 1
	}
	batch := append(batchPool.Get().([]*request), first)
	var timerC <-chan time.Time
	if q.timeout > 0 {
		timer := time.NewTimer(q.timeout)
		defer timer.Stop()
		timerC = timer.C
	}
	for len(batch) < max {
		q.drainUntagged()
		q.takeDRR(&batch, max)
		if len(batch) >= max {
			break
		}
		// takeDRR only stops short of the cap when every sub-queue is
		// empty. Without delayed batching, dispatch as soon as no work is
		// buffered anywhere; with it, wait out the timer for more.
		if timerC == nil {
			if q.tenantPending.Load() > 0 || len(q.in) > 0 {
				continue
			}
			return batch
		}
		select {
		case r := <-q.in:
			q.routeUntagged(r)
		case <-q.tenantNotify:
		case <-timerC:
			return batch
		case <-q.stop:
			return batch
		}
	}
	return batch
}

// drainTenantsClosed fails every tenant-queued request at shutdown, the
// sub-queue counterpart of drainClosed. Cancelled ticket requests drop
// silently, and delivery happens outside tenMu.
func (q *Queue) drainTenantsClosed() {
	q.tenMu.Lock()
	var failed []*request
	for _, t := range q.tenOrder {
		for t.len() > 0 {
			r := t.pop()
			q.tenantPending.Add(-1)
			q.load.queued.Add(-1)
			if r.claim() {
				failed = append(failed, r)
			}
		}
		t.deficit = 0
	}
	q.tenMu.Unlock()
	for _, r := range failed {
		r.done <- Result{Err: ErrQueueClosed}
	}
}
