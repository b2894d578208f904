package batching

// The queue's one store: per-tenant FIFO sub-queues, arbitrated by
// weighted deficit round-robin so one chatty application cannot starve
// another that shares the replica. Applications that set no tenant share
// the "" default tenant; DRR over a single backlogged tenant is FIFO, so a
// queue nobody tags behaves as (and costs about as much as) a plain FIFO.
//
// DRR semantics: each round a tenant with backlog earns `weight` credits
// (its deficit); it dequeues one request per credit until the credits or
// the backlog run out, then the rotation moves on. Unspent credits carry
// only while backlog remains (an emptied or idle sub-queue forfeits its
// deficit), so a returning tenant cannot burst on hoarded credit. Over
// any interval where tenants stay backlogged, tenant i's share of
// dequeues converges to weight_i / Σ weights, within one batch.

// tenantQueue is one tenant's FIFO sub-queue — a ring that doubles up to
// queueDepth — plus its DRR state. All fields are guarded by Queue.mu.
type tenantQueue struct {
	name    string
	weight  int64
	buf     []*Request // len is zero or a power of two
	head, n int
	space   chan struct{} // non-nil while a submitter waits on a full ring
	deficit int64         // unspent DRR credits, bounded by weight
	served  int64         // requests dequeued into batches since queue start
}

// push appends r to t's sub-queue. Callers hold q.mu and have checked
// t.n < queueDepth.
func (q *Queue) push(t *tenantQueue, r *Request) {
	if t.n == 0 {
		q.backlogged++
	}
	if t.n == len(t.buf) {
		grown := make([]*Request, max(16, 2*t.n))
		k := copy(grown, t.buf[t.head:])
		copy(grown[k:], t.buf[:t.head])
		t.buf, t.head = grown, 0
	}
	t.buf[(t.head+t.n)&(len(t.buf)-1)] = r
	t.n++
}

// pop removes t's oldest request and lets submitters blocked on t's depth
// bound retry. Callers hold q.mu and have checked t.n > 0.
func (q *Queue) pop(t *tenantQueue) *Request {
	r := t.buf[t.head]
	t.buf[t.head] = nil // do not pin delivered requests
	t.head = (t.head + 1) & (len(t.buf) - 1)
	if t.n--; t.n == 0 {
		q.backlogged--
	}
	if t.space != nil {
		close(t.space)
		t.space = nil
	}
	return r
}

// TenantLoad is one tenant's fair-batching snapshot, exported alongside
// LoadStats for the scheduler and the admin /replicas surface.
type TenantLoad struct {
	// Tenant is the tenant ID ("" is the default tenant untagged
	// submissions share).
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

// tenantLocked returns (creating if needed, at weight 1) the sub-queue for
// name. Callers hold q.mu.
func (q *Queue) tenantLocked(name string) *tenantQueue {
	t := q.tenants[name]
	if t == nil {
		if len(q.tenOrder) == 1 {
			q.servedAlone = q.tenOrder[0].served // first named tenant: see TenantStats
		}
		t = &tenantQueue{name: name, weight: 1}
		q.tenants[name] = t
		q.tenOrder = append(q.tenOrder, t)
	}
	return t
}

// SetTenantWeight registers tenant with the given DRR weight (creating
// its sub-queue). Weights below 1 clamp to 1. Raising the "" tenant's
// weight prioritizes untagged traffic.
func (q *Queue) SetTenantWeight(tenant string, weight int) {
	q.mu.Lock()
	q.tenantLocked(tenant).weight = int64(max(weight, 1))
	q.mu.Unlock()
}

// TenantStats snapshots every tenant's fair-batching state, in
// registration order. It is empty while only the default tenant exists,
// and lists "" beside named tenants only once it has held a request in
// their company.
func (q *Queue) TenantStats() []TenantLoad {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]TenantLoad, 0, len(q.tenOrder)-1)
	for _, t := range q.tenOrder {
		if t.name == "" && (len(q.tenOrder) == 1 || t.served == q.servedAlone && t.n == 0) {
			continue
		}
		out = append(out, TenantLoad{
			Tenant:  t.name,
			Weight:  int(t.weight),
			Queued:  t.n,
			Served:  t.served,
			Deficit: int(t.deficit),
		})
	}
	return out
}

// takeDRR appends up to max-len(*batch) claimable requests to batch,
// drawn from the tenant sub-queues by weighted deficit round-robin. It
// returns either because the batch is full (rotation position and
// mid-round credit persist, so the next batch resumes exactly where this
// one stopped) or because every sub-queue is empty. Callers hold q.mu.
func (q *Queue) takeDRR(batch *[]*Request, max int) {
	empties := 0 // consecutive backlog-free tenants visited
	for len(*batch) < max && empties < len(q.tenOrder) {
		if q.drrPos >= len(q.tenOrder) {
			q.drrPos = 0
		}
		t := q.tenOrder[q.drrPos]
		if t.n == 0 {
			t.deficit = 0 // idle tenants forfeit credit
			q.drrPos++
			empties++
			continue
		}
		empties = 0
		if !q.drrMid {
			rounds := int64(1)
			if q.backlogged == 1 {
				// t is the only tenant with backlog, so no competitor can
				// earn service between its rounds: credit every round this
				// batch can use at once. The pop below is then FIFO in bulk,
				// and the credit left over is what round-by-round leaves.
				rounds = (int64(min(max-len(*batch), t.n)) + t.weight - 1) / t.weight
			}
			t.deficit += rounds * t.weight
		}
		q.drrMid = false
		for t.deficit > 0 && t.n > 0 {
			if len(*batch) >= max {
				// Batch full mid-service: keep the unspent credit and
				// resume this tenant first next time, without re-crediting.
				q.drrMid = true
				return
			}
			if r := q.pop(t); q.take(r) {
				*batch = append(*batch, r)
				t.served++
				t.deficit--
			}
			// A cancelled request spends no credit: the tenant withdrew
			// it before service.
		}
		if t.n == 0 {
			t.deficit = 0
		}
		q.drrPos++
	}
}
