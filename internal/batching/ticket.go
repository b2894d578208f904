package batching

import (
	"context"
	"time"
)

// Ticket is a removable submission handle: the hedged-dispatch path in
// internal/core uses it to race one query across two replicas and
// withdraw the loser. A ticket's request receives exactly one Result on
// Done — unless Cancel wins the race to withdraw it first, in which case
// it receives none.
type Ticket struct {
	req *request
}

// SubmitTicket enqueues x on tenant's sub-queue ("" is the default tenant)
// and returns a Ticket for the pending result. Unlike SubmitTenant it
// never blocks on the outcome, and the submission can be withdrawn with
// Cancel until a batch collects it.
func (q *Queue) SubmitTicket(ctx context.Context, tenant string, x []float64) (*Ticket, error) {
	// Not pooled: the caller keeps the done channel past delivery, so the
	// request is never provably ours again.
	req := &request{x: x, enq: time.Now(), done: make(chan Result, 1)}
	if err := q.enqueue(ctx, tenant, req); err != nil {
		return nil, err
	}
	return &Ticket{req: req}, nil
}

// Done returns the channel that receives the ticket's one Result. After
// a successful Cancel the channel never receives.
func (t *Ticket) Done() <-chan Result { return t.req.done }

// Cancel withdraws the submission. It returns true when the request was
// still queued: it will never be dispatched and Done never receives.
// False means a batch already collected it — the request runs to
// completion and Done still receives exactly one Result (which the
// caller should drain or ignore).
func (t *Ticket) Cancel() bool { return t.req.cancel() }
