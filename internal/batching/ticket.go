package batching

import (
	"context"
	"sync"
)

// Ticket is a submission whose one Result arrives on a channel: what
// SubmitTenant parks on (pooled, so a blocking submit allocates nothing in
// steady state), and what the hedged-dispatch path in internal/core races
// across two replicas, withdrawing the loser.
type Ticket struct {
	req  Request
	ch   chan Result
	done func(Result) // bound once: sends to ch, which is buffered
}

func newTicket() *Ticket {
	t := &Ticket{ch: make(chan Result, 1)}
	t.done = func(r Result) { t.ch <- r }
	return t
}

var ticketPool = sync.Pool{New: func() any { return newTicket() }}

// SubmitTicket is Start with the Result sent to a fresh ticket's channel ("" is
// the default tenant). Unlike SubmitTenant it never blocks on the outcome;
// like it, it waits for room in a full sub-queue.
func (q *Queue) SubmitTicket(ctx context.Context, tenant string, x []float64) (*Ticket, error) {
	t := newTicket()
	if err := q.start(ctx, tenant, &t.req, x, t.done, true); err != nil {
		return nil, err
	}
	return t, nil
}

// Done returns the channel that receives the ticket's one Result. After
// a successful Cancel the channel never receives.
func (t *Ticket) Done() <-chan Result { return t.ch }

// Cancel withdraws the submission; see Request.Cancel. A Result already owed
// still arrives on Done, for the caller to drain or ignore.
func (t *Ticket) Cancel() bool { return t.req.Cancel() }
