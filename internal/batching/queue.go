package batching

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clipper/internal/container"
	"clipper/internal/metrics"
)

// Result is the outcome of one batched prediction.
type Result struct {
	Pred container.Prediction
	Err  error
}

// Request is one submission: the caller's storage for a query while the queue
// holds it (a fan-out allocates its requests in one slice) and the handle that
// withdraws it. Its state word is the queue's one state machine, and the whole
// of the exactly-one-outcome contract:
//
//	           Start            take / drainClosed (claim)
//	(caller) ────────▶ queued ────────────────────────────▶ claimed ──▶ done fires once
//	    │                 │
//	    │ Start error     │ Cancel
//	    ▼                 ▼
//	 never visible     cancelled ──▶ done never fires
//
// Every Start ends in exactly one of those three: an error means the request
// never reached a sub-queue; otherwise claim and Cancel race with a CAS on one
// word, so exactly one wins. A cancelled request stays in its sub-queue as a
// tombstone until the collector pops and drops it.
//
// The completion rule, stated here and nowhere else: whoever claims a request
// owes its done exactly one call — runBatch with the row's prediction or the
// batch's error, drainClosed with errQueueClosed — on the goroutine that
// completed it: a batch's worker, or the collector itself while the window is
// 1 and at shutdown. done must not block: that goroutine delivers the rest of
// its batch, and at window 1 every later batch, only after it returns. Nothing
// else delivers. A Request may be reused once its done has fired.
type Request struct {
	x     []float64
	enq   time.Time // submit time, for per-request queue-delay telemetry
	done  func(Result)
	state atomic.Int32
}

// Request.state values. The zero Request is idle, so Cancel on one that was
// never started (or whose Start failed) withdraws nothing.
const (
	reqIdle      int32 = iota // not in a queue
	reqQueued                 // in a sub-queue, cancellable
	reqClaimed                // popped by the collector or the shutdown drain
	reqCancelled              // withdrawn by its submitter before being popped
)

func (r *Request) claim() bool { return r.state.CompareAndSwap(reqQueued, reqClaimed) }

// Cancel withdraws the submission. True means it was still queued: it will
// never be dispatched and done never fires. False means it was never started
// or a batch already claimed it — then it runs to completion and done still
// fires exactly once.
func (r *Request) Cancel() bool { return r.state.CompareAndSwap(reqQueued, reqCancelled) }

// batchPool recycles the per-batch []*Request slices the collector
// assembles; entries are cleared before pooling so a parked slice does
// not pin delivered requests.
var batchPool = sync.Pool{
	New: func() any { return []*Request(nil) },
}

const maxPooledBatchCap = 4096

func putBatch(batch []*Request) {
	if cap(batch) > maxPooledBatchCap {
		return
	}
	for i := range batch {
		batch[i] = nil
	}
	batchPool.Put(batch[:0])
}

// errQueueClosed is returned for submissions to a closed queue.
var errQueueClosed = errors.New("batching: queue closed")

// ErrQueueFull is Start's refusal of a submission to a full sub-queue.
var ErrQueueFull = errors.New("batching: tenant sub-queue full")

// queueDepth bounds each tenant's sub-queue; Start to a full one is refused
// with ErrQueueFull. Per tenant, so a flooding tenant cannot shut a quiet one
// out at the door.
const queueDepth = 8192

// QueueConfig parameterizes a per-replica batching queue.
type QueueConfig struct {
	// Controller chooses the max batch size. Required.
	Controller Controller
	// BatchTimeout, when positive, enables delayed batching: a non-full
	// batch waits up to this long (from dispatch readiness) for more
	// queries (paper §4.3.2). Zero dispatches immediately with whatever
	// is queued.
	BatchTimeout time.Duration
	// InFlight is the dispatch pipeline window: the maximum number of
	// batches concurrently in flight to the replica. While one batch is
	// inside the container RPC the collector keeps assembling and
	// dispatching more, overlapping serialization, network, and compute
	// (each rpc connection already multiplexes requests).
	// Zero means measured: the window starts at 4 and its controller
	// moves it, up to the replica's lanes or the load's demand, by what more
	// batches in flight do to batch latency on this replica (adaptive.go).
	// A positive value pins it; 1 is the paper's serial
	// one-batch-at-a-time dispatcher.
	//
	// InFlight composes with the replica's RPC connection count
	// (container.DialConns / rpc.PoolConfig.Conns): the window says how
	// many batches may be outstanding, Conns says how many can be *on the
	// wire* at once. Over one connection, concurrent batch frames
	// serialize behind each other's writes, so on transfer-bound links
	// throughput scales with min(InFlight, Conns); see the RPC section of
	// docs/ARCHITECTURE.md.
	InFlight int
}

// viewCaller is the one call the queue makes on a replica: take a
// flat-collected batch, scatter one Prediction per row via deliver
// (exactly once per row, in row order, iff the call returns nil).
// container.Remote implements it across the wire; an in-process predictor
// of either shape is given it by container.NewLocal.
type viewCaller interface {
	PredictViewContext(ctx context.Context, v *container.BatchView, deliver func(i int, p container.Prediction)) error
}

// Queue is the adaptive batching queue for one model-container replica
// (paper §4.3). Queries wait in per-tenant FIFO sub-queues (tenant.go) —
// every application that sets no tenant shares the "" default tenant, so a
// queue nobody tags is one FIFO — and a dispatch pipeline drains them: a
// collector goroutine assembles controller-sized batches by weighted
// deficit round-robin and hands each to a worker goroutine, keeping up to
// InFlight batches in the container at once so the replica stays saturated
// instead of idling for one round trip per batch. Every dispatched batch
// feeds its (size, latency) observation back to the controller.
//
// Each batch is accumulated straight into a pooled flat tensor
// (container.BatchView) and results scatter from the response view into
// each submitter's Result slot — no per-query rows, no per-batch
// [][]float64 — whatever the predictor's shape: the only thing that
// differs is the viewCaller NewQueue binds.
type Queue struct {
	call    viewCaller
	ctrl    Controller
	timeout time.Duration

	stop  chan struct{} // closed by Close, after closed is set
	done  chan struct{} // closed when the collector has drained and exited
	wake  chan struct{} // buffered(1): "a request arrived" for a parked collector
	win   *winSem       // pipeline window; only adapt ever resizes it
	adapt *adaptive     // nil when the window is pinned
	wg    sync.WaitGroup

	// mu guards the one place requests wait and everything that orders
	// them: the sub-queues, the DRR rotation, and the closed flag. Because
	// closed lives under the same lock as the sub-queues, a Start either
	// sees it and fails or is visible to the collector's final drain.
	mu          sync.Mutex
	closed      bool
	parked      bool // the collector found nothing and is waiting on wake
	tenants     map[string]*tenantQueue
	tenOrder    []*tenantQueue // registration order = DRR rotation order; [0] is ""
	servedAlone int64          // what "" had served when the first named tenant registered
	backlogged  int            // sub-queues holding at least one request
	drrPos      int            // rotation position into tenOrder
	drrMid      bool           // resuming a tenant mid-round: skip re-credit

	// load is the replica's one load model (load.go): occupancy moved at
	// every queue transition, speed estimates written once per batch.
	load loadModel

	// Latency and batch-size telemetry for the experiments and the
	// benchmark. No controller reads these.
	BatchLatency *metrics.Histogram
	BatchSizes   *metrics.Histogram
	QueueDelay   *metrics.Histogram
}

// NewQueue starts a batching queue in front of pred.
func NewQueue(pred container.Predictor, cfg QueueConfig) *Queue {
	if cfg.Controller == nil {
		panic("batching: QueueConfig.Controller is required")
	}
	// A predictor that already serves the flat call (container.Remote, or
	// anything embedding it) is called through its own method; an
	// in-process predictor is wrapped, here and nowhere else.
	call, ok := pred.(viewCaller)
	if !ok {
		call = container.NewLocal(pred)
	}
	q := &Queue{
		call:         call,
		ctrl:         cfg.Controller,
		timeout:      cfg.BatchTimeout,
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		wake:         make(chan struct{}, 1),
		tenants:      make(map[string]*tenantQueue),
		BatchLatency: metrics.NewHistogram(),
		BatchSizes:   metrics.NewHistogram(),
		QueueDelay:   metrics.NewHistogram(),
	}
	q.tenantLocked("") // the default tenant, weight 1, first in the rotation
	if cfg.InFlight > 0 {
		q.win = newWinSem(cfg.InFlight)
	} else {
		q.win = newWinSem(startWindow)
		q.adapt = newAdaptive(q.win, &q.load)
	}
	go q.dispatchLoop()
	return q
}

// Controller returns the queue's batch-size controller.
func (q *Queue) Controller() Controller { return q.ctrl }

// InFlight returns the queue's dispatch pipeline window — the pinned
// configuration, or where the window controller has it now.
func (q *Queue) InFlight() int { return q.win.curLimit() }

// Window reports the measured window's operating point; ok is false when
// the window is pinned.
func (q *Queue) Window() (snap AdaptiveSnapshot, ok bool) {
	if q.adapt == nil {
		return snap, false
	}
	return q.adapt.snapshot(), true
}

// Submit is Start on the default tenant plus a wait for its one Result. If
// ctx ends first the request is withdrawn while still queued; one a batch
// already claimed runs to completion and its Result goes unread.
func (q *Queue) Submit(ctx context.Context, x []float64) (container.Prediction, error) {
	var r Request
	ch := make(chan Result, 1)
	if err := q.Start(ctx, "", &r, x, func(res Result) { ch <- res }); err != nil {
		return container.Prediction{}, err
	}
	select {
	case res := <-ch:
		return res.Pred, res.Err
	case <-ctx.Done():
		r.Cancel()
		return container.Prediction{}, ctx.Err()
	}
}

// Start is the one way into the queue: it enqueues x on tenant's sub-queue
// in r and returns without waiting. done receives the outcome under the
// completion rule on Request; on an error (ctx already over, the queue
// closed, or the tenant's sub-queue full) r never reached the queue and done
// never fires. Start never blocks: it takes q.mu for one critical section
// that leaves r visible to the collector, then wakes the collector when —
// and only when — it is parked.
func (q *Queue) Start(ctx context.Context, tenant string, r *Request, x []float64, done func(Result)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	now := time.Now()
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return errQueueClosed
	}
	t := q.tenantLocked(tenant)
	if t.n >= queueDepth {
		q.mu.Unlock()
		return ErrQueueFull
	}
	r.x, r.enq, r.done = x, now, done
	r.state.Store(reqQueued)
	q.load.queued.Add(1)
	q.load.arrivals.Add(1)
	q.push(t, r)
	wake := q.parked
	q.parked = false
	q.mu.Unlock()
	if wake {
		select {
		case q.wake <- struct{}{}:
		default: // a token is already pending; the collector re-checks on it
		}
	}
	return nil
}

// Close stops the dispatcher, waits for in-flight batches to deliver, and
// fails queued requests with errQueueClosed.
func (q *Queue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.stop)
	}
	q.mu.Unlock()
	q.win.close() // unblock a collector waiting on the window
	<-q.done      // the collector's last act is drainClosed
}

// dispatchLoop is the pipeline's collector stage: it assembles batches and
// hands each to its own worker goroutine, bounded by the in-flight window.
func (q *Queue) dispatchLoop() {
	defer close(q.done)
	for {
		// Reserve a pipeline slot before collecting: while the window is
		// full, requests keep buffering (and the eventual batch keeps
		// growing toward the controller's cap) instead of being frozen
		// into an early, undersized batch. Workers always release their
		// slot, so this unblocks as soon as the oldest in-flight batch
		// completes. At InFlight=1 this is exactly the serial dispatcher:
		// collection for batch n+1 cannot begin until batch n returns.
		var batch []*Request
		if q.win.acquire() {
			if batch = q.collect(); batch == nil {
				q.win.release(time.Time{})
			}
		}
		if batch == nil { // the queue is stopping
			q.drainClosed()
			q.wg.Wait() // in-flight batches still deliver their results
			return
		}
		if q.win.curLimit() == 1 {
			// Serial window: the collector holds the only slot, so run the
			// batch inline instead of paying a goroutine spawn per batch —
			// this is exactly the paper's one-batch-at-a-time dispatcher. A
			// measured window that has converged to 1 is serial too; if the
			// limit grows mid-batch, parallelism resumes with the next batch.
			q.runBatch(batch, true)
			putBatch(batch)
			q.win.release(time.Time{})
			continue
		}
		at := time.Now()
		last := q.win.launch(at)
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			defer q.win.release(at)
			q.runBatch(batch, last)
			putBatch(batch)
		}()
	}
}

// holdLast is the collector's decision on a freshly reserved slot: true
// means keep it back rather than spend it on what is queued now. Only the
// window's last free slot is held (while another is free no arrival can find
// the pipeline shut), and only while rate·next — the arrivals expected before
// the next in-flight batch should complete — is at least queued+2.
//
// Derivation: holding for h makes the queued requests wait h longer, cost
// queued·h; the rate·h that arrive meanwhile leave with them instead of
// finding the pipeline shut until next, saving rate·h·(next − h). The gain
// peaks at h* = (next − queued/rate)/2, and a hold is worth starting only
// if one arrival is expected inside it, rate·h* ≥ 1: rate·next ≥ queued+2.
// No timer ends a hold at h*: an idle runtime fires a sub-millisecond
// timer up to 1 ms late (frameworks' sleepUntil says why), half a round
// trip. Events end it instead: an arrival, a completion, a window resize.
func holdLast(queued int, rate float64, next time.Duration, held, limit int) bool {
	return limit > 1 && held == limit && queued > 0 && next > 0 &&
		rate*next.Seconds() >= float64(queued+2)
}

// collect is the one collector: it blocks for the first request of the
// next batch (returning nil when the queue stops first), then fills the
// batch by takeDRR up to the controller's cap. Until it has taken anything
// it may hold the slot instead (holdLast), deciding again on every arrival
// and every change of the window: a batch completing always ends a hold.
// Without a BatchTimeout it then dispatches the moment nothing is buffered;
// with one (paper §4.3.2) a non-full batch waits that long, from its first
// request, for more.
func (q *Queue) collect() []*Request {
	batch := batchPool.Get().([]*Request)
	q.load.sampleArrivals(time.Now())
	var timeout <-chan time.Time
	var heldSince time.Time // non-zero while holding
	for {
		max := q.ctrl.MaxBatch()
		if max < 1 {
			max = 1
		}
		held, limit, oldest := q.win.state()
		next := time.Until(oldest.Add(seconds(q.load.robustLat.Value())))
		q.mu.Lock() // decided under mu: no enqueue slips in before the collector parks on it
		hold := len(batch) == 0 && holdLast(int(q.load.queued.Load()), q.load.arrivalRate(), next, held, limit)
		if !hold {
			q.takeDRR(&batch, max)
		}
		// takeDRR stops short of max only when every sub-queue is empty.
		park := hold || len(batch) < max && (len(batch) == 0 || q.timeout > 0)
		q.parked = park
		q.mu.Unlock()
		var changed <-chan struct{} // a hold also ends on the window changing
		switch {
		case hold:
			changed = q.win.changed
			if heldSince.IsZero() {
				heldSince = time.Now()
				q.load.holds.Add(1)
			}
		case !heldSince.IsZero():
			q.load.holdNanos.Add(int64(time.Since(heldSince)))
			heldSince = time.Time{}
		}
		if !park {
			return batch
		}
		if len(batch) > 0 && timeout == nil {
			timer := time.NewTimer(q.timeout)
			defer timer.Stop()
			timeout = timer.C
		}
		select {
		case <-q.wake:
		case <-changed:
		case <-timeout:
			return batch
		case <-q.stop:
			if len(batch) > 0 {
				return batch // already claimed: they run
			}
			putBatch(batch)
			return nil
		}
	}
}

// runBatch is one pipeline stage execution: it gathers the batch into a
// pooled flat tensor, invokes the container, feeds the load model and the
// controllers, and delivers exactly one Result per request — predictions
// scatter into each submitter's slot as the call produces them, and on
// error every row not yet delivered gets the error (none has been, under
// PredictViewContext's all-or-nothing contract; the prefix tracking is
// defense in depth against a deliver panic mid-scatter). last says the batch
// took the window's last free slot, which is what the window loop learns from.
func (q *Queue) runBatch(batch []*Request, last bool) {
	n := len(batch)
	// The batch's requests have been in flight since take claimed them.
	q.load.inflightBatches.Add(1)
	defer func() {
		q.load.inflightBatches.Add(-1)
		q.load.inflightReqs.Add(-int64(n))
	}()
	dispatch := time.Now()
	v := container.GetBatchView()
	var oldestWait time.Duration
	for _, r := range batch {
		v.AppendRow(r.x)
		// Time-in-queue per request: submit to dispatch. (Not batch-collect
		// time — a request that waited buffered behind earlier batches has
		// been queued far longer than the collect window.)
		wait := dispatch.Sub(r.enq)
		q.QueueDelay.ObserveDuration(wait)
		if wait > oldestWait {
			oldestWait = wait
		}
	}
	start := time.Now()
	next := 0 // rows [0, next) have received their Result
	err := q.predict(v, func(i int, p container.Prediction) {
		next = i + 1
		batch[i].done(Result{Pred: p})
	})
	lat := time.Since(start)
	container.PutBatchView(v)
	q.load.observe(n, lat, oldestWait)
	q.ctrl.Observe(n, lat)
	if q.adapt != nil {
		// Reads the model just written; resizes the bound window
		// semaphore itself, inside its own critical section.
		q.adapt.tick(n, lat, last)
	}
	q.BatchLatency.ObserveDuration(lat)
	q.BatchSizes.Observe(float64(n))
	if err != nil {
		for _, r := range batch[next:] {
			r.done(Result{Err: err})
		}
	}
}

// predict invokes the container, converting panics into errors: a
// misbehaving model must fail its batch, not kill its pipeline worker and
// hang every caller in the batch (the isolation §4.4 promises).
func (q *Queue) predict(v *container.BatchView, deliver func(i int, p container.Prediction)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("batching: container panicked: %v", r)
		}
	}()
	return q.call.PredictViewContext(context.Background(), v, deliver)
}

// drainClosed is the one drain: it fails every request still queued at
// shutdown. Cancelled requests drop silently — their submitters already
// know no Result is coming.
func (q *Queue) drainClosed() {
	var failed []*Request
	q.mu.Lock()
	for _, t := range q.tenOrder {
		for t.n > 0 {
			r := q.pop(t)
			q.load.queued.Add(-1)
			if r.claim() {
				failed = append(failed, r)
			}
		}
		t.deficit = 0
	}
	q.mu.Unlock()
	for _, r := range failed {
		r.done(Result{Err: errQueueClosed})
	}
}
