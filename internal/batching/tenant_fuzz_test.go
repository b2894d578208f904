package batching

import (
	"context"
	"errors"
	"testing"
	"time"
)

// submitLedger is the exactly-one-outcome contract, stated once for the
// tests: every submit ends in exactly one of {one Result, withdrawn by its
// caller, enqueue error}, and once traffic quiesces the load model holds
// nothing. Tickets are filed as they are issued; settle checks the lot.
type submitLedger struct {
	live, withdrawn []*Ticket
	closed          bool // Close has been called: ErrQueueClosed is now a legal outcome
}

// ticket files the outcome of one SubmitTicket (cancelNow: race an
// immediate Cancel against the collector).
func (l *submitLedger) ticket(t *testing.T, tk *Ticket, err error, cancelNow bool) {
	t.Helper()
	switch {
	case err != nil:
		l.enqueueErr(t, err)
	case cancelNow && tk.Cancel():
		l.withdrawn = append(l.withdrawn, tk)
	default:
		l.live = append(l.live, tk) // queued, or a batch won: owed one Result
	}
}

// enqueueErr checks a refused submit: only a closed queue or the caller's
// own context may refuse.
func (l *submitLedger) enqueueErr(t *testing.T, err error) {
	t.Helper()
	if !(l.closed && errors.Is(err, ErrQueueClosed)) && !errors.Is(err, context.Canceled) {
		t.Fatalf("submit refused with %v (closed=%v)", err, l.closed)
	}
}

// settle waits for every live ticket's one Result, closes the queue, and
// checks nothing was delivered twice, nothing withdrawn was delivered, and
// the queue's occupancy is back to zero.
func (l *submitLedger) settle(t *testing.T, q *Queue) {
	t.Helper()
	for i, tk := range l.live {
		select {
		case res := <-tk.Done():
			if res.Err != nil && !(l.closed && res.Err == ErrQueueClosed) {
				t.Fatalf("ticket %d failed: %v", i, res.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("ticket %d never delivered: collector deadlocked", i)
		}
	}
	q.Close() // waits out all in-flight batches, drains tombstones
	for i, tk := range l.live {
		select {
		case res := <-tk.Done():
			t.Fatalf("ticket %d delivered twice: %+v", i, res)
		default:
		}
	}
	for i, tk := range l.withdrawn {
		select {
		case res := <-tk.Done():
			t.Fatalf("withdrawn ticket %d delivered %+v", i, res)
		default:
		}
	}
	if ls := q.LoadStats(); ls.Queued+ls.InFlightQueries != 0 {
		t.Fatalf("quiesced queue still holds load: %+v", ls)
	}
}

// FuzzSubmitTenant drives random interleavings of submits (ticket and
// blocking, on the default tenant and named ones), weight changes,
// cancellations — by ticket and by context — and a Close at a random
// point through one queue, and holds the result against submitLedger.
// Each input byte is one operation: the low three bits pick the op, the
// next two the tenant, the rest parameterize it.
func FuzzSubmitTenant(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03})
	f.Add([]byte{0x06, 0x04, 0x05, 0xff, 0x42, 0x81, 0x13})
	f.Add([]byte{0x02, 0x12, 0x22, 0x32, 0x00, 0x10, 0x20, 0x30, 0x01, 0x11})
	f.Add([]byte{0x0d, 0x05, 0x15, 0x0a, 0xe7, 0x00, 0x04, 0x05, 0x0a})

	tenants := []string{"", "a", "b", "c"}
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newGateModel()
		close(m.release) // free-running model: batches never park
		q := NewQueue(m, QueueConfig{Controller: NewFixed(4), InFlight: 2})
		primeHold(q) // the collector holds the second slot whenever it can

		bg := context.Background()
		var l submitLedger
		for _, b := range ops {
			tenant := tenants[int(b>>3)%len(tenants)]
			x := []float64{float64(b)}
			switch op := b % 8; {
			case op == 7 && b >= 0xe0: // close mid-stream; later submits must be refused
				l.closed = true
				q.Close()
			case op <= 1: // submit and keep
				tk, err := q.SubmitTicket(bg, tenant, x)
				l.ticket(t, tk, err, false)
			case op == 2 || op == 7: // submit and race an immediate cancel
				tk, err := q.SubmitTicket(bg, tenant, x)
				l.ticket(t, tk, err, true)
			case op == 3: // reweight (0 clamps to 1)
				q.SetTenantWeight(tenant, int(b>>5))
			case op == 4: // blocking submit end to end
				if _, err := q.SubmitTenant(bg, tenant, x); err != nil {
					l.enqueueErr(t, err)
				}
			default: // blocking submit racing its own context's cancellation
				ctx, cancel := context.WithCancel(bg)
				go cancel()
				if _, err := q.SubmitTenant(ctx, tenant, x); err != nil {
					l.enqueueErr(t, err) // refused at the door, or withdrawn while queued
				}
			}
		}
		l.settle(t, q)
	})
}
