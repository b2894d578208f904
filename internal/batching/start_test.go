package batching

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clipper/internal/container"
)

// gateModel blocks PredictBatch until released, so tests can pin requests
// in the queue (behind an in-flight batch) or in the container at will.
type gateModel struct {
	release chan struct{} // each receive releases one batch
	failing atomic.Bool   // a batch released while set fails with errGate
	failed  atomic.Int64  // batches that failed
	calls   atomic.Int64
	queries atomic.Int64
	free    sync.Once
}

var errGate = errors.New("gate model told to fail")

// freeRun opens the gate for good; safe to call more than once, so a test
// can both free-run mid-way and defer it ahead of Close.
func (m *gateModel) freeRun() { m.free.Do(func() { close(m.release) }) }

func newGateModel() *gateModel {
	return &gateModel{release: make(chan struct{}, 1024)}
}

func (m *gateModel) Info() container.Info {
	return container.Info{Name: "gate", Version: 1}
}

func (m *gateModel) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	m.calls.Add(1)
	m.queries.Add(int64(len(xs)))
	<-m.release
	if m.failing.Load() {
		m.failed.Add(1)
		return nil, errGate
	}
	out := make([]container.Prediction, len(xs))
	for i, x := range xs {
		out[i] = container.Prediction{Label: int(x[0])}
	}
	return out, nil
}

// ticket is a Start whose one Result arrives on a buffered channel, so a test
// can wait on, select over or withdraw one submission.
type ticket struct {
	req Request
	ch  chan Result
}

// startTicket Starts x on tenant's sub-queue of q with a fresh ticket.
func startTicket(ctx context.Context, q *Queue, tenant string, x []float64) (*ticket, error) {
	tk := &ticket{ch: make(chan Result, 1)}
	if err := q.Start(ctx, tenant, &tk.req, x, func(r Result) { tk.ch <- r }); err != nil {
		return nil, err
	}
	return tk, nil
}

// Done returns the channel that receives the ticket's one Result; after a
// successful Cancel it never receives.
func (tk *ticket) Done() <-chan Result { return tk.ch }

// Cancel withdraws the submission; see Request.Cancel.
func (tk *ticket) Cancel() bool { return tk.req.Cancel() }

// TestStartCompletionLedger walks one queue through every way a Start can
// end — a delivered row, a failed batch, Cancel, a context that has already
// expired, the shutdown drain and a refusal after Close — with the serial
// window, whose collector runs batches and fires their completions itself,
// and with two slots; submitLedger holds each Start to its one outcome.
func TestStartCompletionLedger(t *testing.T) {
	for _, inFlight := range []int{1, 2} {
		m := newGateModel()
		q := NewQueue(m, QueueConfig{Controller: NewFixed(1), InFlight: inFlight})
		bg := context.Background()
		var l submitLedger
		start := func(ctx context.Context, cancelNow bool) {
			t.Helper()
			if err := l.start(ctx, q, "", []float64{1}, cancelNow); err != nil {
				l.enqueueErr(t, err)
			}
		}
		parked := func(batches int) {
			t.Helper()
			await(t, "batches parked in the model", func() bool { return m.calls.Load() >= int64(batches) })
		}
		// The gate is shut: one-row batches park in the model (how many is
		// the hold rule's business), the rest of the eight stay queued.
		for i := 0; i < 8; i++ {
			start(bg, false)
		}
		parked(1)
		start(bg, true) // queued behind a parked batch: Cancel wins
		expired, cancel := context.WithCancel(bg)
		cancel()
		start(expired, false)
		if len(l.withdrawn) != 1 || len(l.refused) != 1 {
			t.Fatalf("window %d: %d withdrawn, %d refused, want 1 and 1", inFlight, len(l.withdrawn), len(l.refused))
		}
		// Each token releases one batch, and a batch released now fails.
		m.failing.Store(true)
		for i := 0; i < inFlight; i++ {
			m.release <- struct{}{}
		}
		await(t, "the released batches failed", func() bool { return m.failed.Load() == int64(inFlight) })
		m.failing.Store(false)
		parked(inFlight + 1)
		// Close with batches in the model and requests still queued: the
		// former deliver, the drain fails the latter, later Starts are refused.
		l.closed = true
		closed := make(chan struct{})
		go func() { q.Close(); close(closed) }()
		// The window closes after the queue does: from then on the collector
		// takes no further batch, so what is queued now is what the drain fails.
		await(t, "Close shut the window", func() bool { q.win.mu.Lock(); defer q.win.mu.Unlock(); return q.win.closed })
		start(bg, false)
		if len(l.refused) != 2 {
			t.Fatalf("window %d: a Start after Close was not refused", inFlight)
		}
		m.freeRun()
		<-closed
		l.settle(t, q, errGate)
		var delivered, failed, drained int
		for _, e := range l.live {
			switch res := e.res; {
			case res.Err == nil:
				delivered++
			case errors.Is(res.Err, errGate):
				failed++
			default:
				drained++
			}
		}
		if failed != inFlight || delivered < 1 || drained < 1 || failed+delivered+drained != 8 {
			t.Errorf("window %d: %d failed, %d delivered, %d drained; want %d, some and some of 8",
				inFlight, failed, delivered, drained, inFlight)
		}
	}
}

func TestSubmitTicketDelivers(t *testing.T) {
	m := newGateModel()
	q := NewQueue(m, QueueConfig{Controller: NewFixed(4), InFlight: 1})
	defer q.Close()

	tk, err := startTicket(context.Background(), q, "", []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	m.release <- struct{}{}
	select {
	case res := <-tk.Done():
		if res.Err != nil || res.Pred.Label != 7 {
			t.Fatalf("result = %+v", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ticket never delivered")
	}
	// The batch collected it first: Cancel must report that.
	if tk.Cancel() {
		t.Fatal("Cancel after delivery returned true")
	}
}

func TestTicketCancelBeforeDispatch(t *testing.T) {
	m := newGateModel()
	q := NewQueue(m, QueueConfig{Controller: NewFixed(1), InFlight: 1})
	defer q.Close()

	// Occupy the single pipeline slot so further submissions stay queued.
	blocker, err := startTicket(context.Background(), q, "", []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	for m.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	tk, err := startTicket(context.Background(), q, "", []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if got := q.LoadStats().Queued; got != 1 {
		t.Fatalf("Queued = %d, want 1", got)
	}
	if !tk.Cancel() {
		t.Fatal("Cancel of a queued request returned false")
	}
	// Double cancel is idempotent-false.
	if tk.Cancel() {
		t.Fatal("second Cancel returned true")
	}

	// Release everything; the cancelled request must never reach the model.
	m.release <- struct{}{}
	m.release <- struct{}{}
	<-blocker.Done()
	deadline := time.Now().Add(2 * time.Second)
	for q.LoadStats().Queued != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case res := <-tk.Done():
		t.Fatalf("cancelled ticket delivered %+v", res)
	case <-time.After(50 * time.Millisecond):
	}
	if got := m.queries.Load(); got != 1 {
		t.Fatalf("model saw %d queries, want 1 (cancelled request dispatched)", got)
	}
}

// TestTicketCancelRace hammers the claim/cancel CAS from both sides: for
// every ticket exactly one of {successful Cancel, delivered Result} must
// happen — never both, never neither. Run with -race.
func TestTicketCancelRace(t *testing.T) {
	m := newGateModel()
	close(m.release) // free-running model
	q := NewQueue(m, QueueConfig{Controller: NewFixed(8), InFlight: 2})
	defer q.Close()

	const n = 400
	var wg sync.WaitGroup
	var delivered, cancelled atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := startTicket(context.Background(), q, "", []float64{float64(i)})
			if err != nil {
				t.Errorf("Start: %v", err)
				return
			}
			if i%2 == 0 {
				// Race a cancel against collection.
				if tk.Cancel() {
					cancelled.Add(1)
					// Must never deliver now.
					select {
					case res := <-tk.Done():
						t.Errorf("cancelled ticket %d delivered %+v", i, res)
					case <-time.After(10 * time.Millisecond):
					}
					return
				}
			}
			// Not cancelled (or cancel lost the race): exactly one Result.
			select {
			case res := <-tk.Done():
				if res.Err != nil {
					t.Errorf("ticket %d error: %v", i, res.Err)
				}
				delivered.Add(1)
			case <-time.After(5 * time.Second):
				t.Errorf("ticket %d never delivered", i)
			}
			select {
			case res := <-tk.Done():
				t.Errorf("ticket %d delivered twice: %+v", i, res)
			default:
			}
		}(i)
	}
	wg.Wait()
	if delivered.Load()+cancelled.Load() != n {
		t.Fatalf("delivered %d + cancelled %d != %d", delivered.Load(), cancelled.Load(), n)
	}
	if int(m.queries.Load()) != int(delivered.Load()) {
		t.Fatalf("model saw %d queries, delivered %d", m.queries.Load(), delivered.Load())
	}
}

func TestTicketQueueCloseFailsPending(t *testing.T) {
	m := newGateModel()
	q := NewQueue(m, QueueConfig{Controller: NewFixed(1), InFlight: 1})

	blocker, err := startTicket(context.Background(), q, "", []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	for m.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	pending, err := startTicket(context.Background(), q, "", []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	gone, err := startTicket(context.Background(), q, "", []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if !gone.Cancel() {
		t.Fatal("cancel failed")
	}

	go q.Close()
	close(m.release) // free-run the model so Close can drain in-flight work
	if res := <-blocker.Done(); res.Err != nil {
		t.Fatalf("in-flight ticket failed: %v", res.Err)
	}
	// The pending ticket races Close's drain against the dispatcher's last
	// collect: it must get exactly one Result either way — a prediction if
	// the dispatcher won, errQueueClosed if the drain did.
	select {
	case res := <-pending.Done():
		if res.Err != nil && res.Err != errQueueClosed {
			t.Fatalf("pending ticket err = %v, want nil or errQueueClosed", res.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending ticket never resolved on close")
	}
	select {
	case res := <-pending.Done():
		t.Fatalf("pending ticket delivered twice: %+v", res)
	default:
	}
	select {
	case res := <-gone.Done():
		t.Fatalf("cancelled ticket delivered %+v at close", res)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestLoadStatsLifecycle(t *testing.T) {
	m := newGateModel()
	q := NewQueue(m, QueueConfig{Controller: NewFixed(2), InFlight: 1})
	defer q.Close()

	if ls := q.LoadStats(); ls != (LoadStats{}) {
		t.Fatalf("fresh queue load = %+v, want zero", ls)
	}
	if _, ok := q.EstimateCost(); ok {
		t.Fatal("cold queue reported a warm cost estimate")
	}

	// One batch in flight, one request queued behind it.
	first, err := startTicket(context.Background(), q, "", []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	for m.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	second, err := startTicket(context.Background(), q, "", []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	ls := q.LoadStats()
	if ls.InFlightBatches != 1 || ls.InFlightQueries != 1 || ls.Queued != 1 {
		t.Fatalf("mid-flight load = %+v", ls)
	}

	m.release <- struct{}{}
	m.release <- struct{}{}
	<-first.Done()
	<-second.Done()
	deadline := time.Now().Add(2 * time.Second)
	for {
		ls = q.LoadStats()
		if ls.Queued == 0 && ls.InFlightBatches == 0 && ls.InFlightQueries == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("load never drained: %+v", ls)
		}
		time.Sleep(time.Millisecond)
	}
	if ls.Completed != 2 {
		t.Fatalf("Completed = %d, want 2", ls.Completed)
	}
	if ls.PerQueryService <= 0 {
		t.Fatalf("PerQueryService = %v, want > 0", ls.PerQueryService)
	}
	cost, ok := q.EstimateCost()
	if !ok || cost <= 0 {
		t.Fatalf("EstimateCost = %v, %v; want warm positive", cost, ok)
	}
}

// TestSubmitCtxExpiryWithdraws: a blocking submitter whose context expires
// while its request is still queued withdraws it, so the container never
// computes a row nobody will read and the load model stops counting it.
func TestSubmitCtxExpiryWithdraws(t *testing.T) {
	m := newGateModel()
	q := NewQueue(m, QueueConfig{Controller: NewFixed(64), InFlight: 1})
	defer q.Close()
	defer m.freeRun()        // first, so a failed assertion cannot hang Close
	fairHarness(t, m, q, "") // the one pipeline slot is held inside the model

	const abandoned = 32
	var wg sync.WaitGroup
	for i := 0; i < abandoned; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			if _, err := q.Submit(ctx, []float64{float64(100 + i)}); err != context.DeadlineExceeded {
				t.Errorf("submit %d: err = %v, want DeadlineExceeded", i, err)
			}
		}(i)
	}
	wg.Wait()

	m.freeRun() // anything still claimable gets computed
	deadline := time.Now().Add(2 * time.Second)
	for q.LoadStats().Queued != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Queued = %d long after every submitter gave up", q.LoadStats().Queued)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a batch of abandoned rows would have reached the model by now
	if got := m.queries.Load(); got != 1 {
		t.Fatalf("model computed %d rows, want only the primer: %d abandoned rows were dead work", got, got-1)
	}
}
