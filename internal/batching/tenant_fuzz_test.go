package batching

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// ledgerEntry is one Start on the ledger: its Request, how many times its
// done has fired, and the first Result it was handed (res, once settled).
type ledgerEntry struct {
	req   Request
	fired atomic.Int32
	first chan Result // buffered(1), so done never blocks however often it fires
	res   Result
}

func (e *ledgerEntry) done(r Result) {
	if e.fired.Add(1) == 1 {
		e.first <- r
	}
}

// submitLedger is the exactly-one-outcome contract, stated once for the
// tests: every Start ends in exactly one of {done fired once, withdrawn by
// its caller, refused with an error} — done never fires for the last two,
// and never twice — and once traffic quiesces the load model holds nothing.
// Starts are filed as they are issued; settle checks the lot.
type submitLedger struct {
	live, withdrawn, refused []*ledgerEntry
	closed                   bool // Close has been called: errQueueClosed is now a legal outcome
}

// start issues and files one Start (cancelNow: race an immediate Cancel
// against the collector). A refusal is filed and returned for the caller to
// judge (enqueueErr).
func (l *submitLedger) start(ctx context.Context, q *Queue, tenant string, x []float64, cancelNow bool) error {
	e := &ledgerEntry{first: make(chan Result, 1)}
	switch err := q.Start(ctx, tenant, &e.req, x, e.done); {
	case err != nil:
		l.refused = append(l.refused, e)
		return err
	case cancelNow && e.req.Cancel():
		l.withdrawn = append(l.withdrawn, e)
	default:
		l.live = append(l.live, e) // queued, or a batch won: owed one done
	}
	return nil
}

// enqueueErr checks a refused submit: only a closed queue or the caller's
// own context may refuse.
func (l *submitLedger) enqueueErr(t *testing.T, err error) {
	t.Helper()
	if !(l.closed && errors.Is(err, errQueueClosed)) && !errors.Is(err, context.Canceled) {
		t.Fatalf("submit refused with %v (closed=%v)", err, l.closed)
	}
}

// settle waits for every live entry's done, closes the queue, and checks
// each fired exactly once — with a prediction, a batch error the test caused
// (batchErr, may be nil) or, after Close, errQueueClosed — that nothing
// withdrawn or refused fired at all, and that the queue's occupancy is back
// to zero.
func (l *submitLedger) settle(t *testing.T, q *Queue, batchErr error) {
	t.Helper()
	for i, e := range l.live {
		select {
		case res := <-e.first:
			e.res = res
			if res.Err != nil && !(l.closed && res.Err == errQueueClosed) && !(batchErr != nil && errors.Is(res.Err, batchErr)) {
				t.Fatalf("start %d failed: %v", i, res.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("start %d never completed: collector deadlocked", i)
		}
	}
	q.Close() // waits out all in-flight batches, drains tombstones
	for i, e := range l.live {
		if n := e.fired.Load(); n != 1 {
			t.Fatalf("start %d: done fired %d times", i, n)
		}
	}
	for i, e := range append(l.withdrawn, l.refused...) {
		if n := e.fired.Load(); n != 0 {
			t.Fatalf("withdrawn or refused start %d: done fired %d times", i, n)
		}
		if e.req.Cancel() {
			t.Fatalf("withdrawn or refused start %d could be cancelled again", i)
		}
	}
	if ls := q.LoadStats(); ls.Queued+ls.InFlightQueries != 0 {
		t.Fatalf("quiesced queue still holds load: %+v", ls)
	}
}

// FuzzSubmitTenant drives random interleavings of submits (Start on the
// default tenant and named ones, and the blocking Submit), weight changes,
// cancellations — by handle and by context — and a Close at a random
// point through one queue — once with the serial window, whose collector
// delivers inline, and once with two slots — and holds the result against
// submitLedger.
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
		fuzzSubmitTenant(t, ops, tenants, 1)
		fuzzSubmitTenant(t, ops, tenants, 2)
	})
}

func fuzzSubmitTenant(t *testing.T, ops []byte, tenants []string, inFlight int) {
	m := newGateModel()
	close(m.release) // free-running model: batches never park
	q := NewQueue(m, QueueConfig{Controller: NewFixed(4), InFlight: inFlight})
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
		case op <= 1 || op == 2 || op == 7: // start and keep, or race an immediate cancel
			if err := l.start(bg, q, tenant, x, op > 1); err != nil {
				l.enqueueErr(t, err)
			}
		case op == 3: // reweight (0 clamps to 1)
			q.SetTenantWeight(tenant, int(b>>5))
		case op == 4: // blocking Submit end to end
			if _, err := q.Submit(bg, x); err != nil {
				l.enqueueErr(t, err)
			}
		default: // blocking Submit racing its own context's cancellation
			ctx, cancel := context.WithCancel(bg)
			go cancel()
			if _, err := q.Submit(ctx, x); err != nil {
				l.enqueueErr(t, err) // refused at the door, or withdrawn while queued
			}
		}
	}
	l.settle(t, q, nil)
}
