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

// request is one enqueued query awaiting batch dispatch.
type request struct {
	x    []float64
	enq  time.Time // submit time, for per-request queue-delay telemetry
	done chan Result
	// state is the removable-submit state machine: queued requests can be
	// cancelled (hedged dispatch discards its loser) until the collector
	// claims them into a batch. Exactly one of the two transitions wins,
	// so a request is either never delivered (cancelled) or delivered
	// exactly once (claimed) — never both.
	state atomic.Int32
}

// request.state values.
const (
	reqQueued    int32 = iota // submitted, cancellable
	reqClaimed                // collected into a batch; exactly one Result will be delivered
	reqCancelled              // withdrawn before collection; never delivered
)

// claim moves a request from queued to claimed, reporting false when a
// racing Cancel got there first (the collector then drops the request).
func (r *request) claim() bool {
	return r.state.CompareAndSwap(reqQueued, reqClaimed)
}

// reqPool recycles requests submitted through Submit, which receives the
// one Result its request will ever be sent and so uniquely owns the
// request afterward — the dispatch side never touches a request again
// after delivering to it. Requests abandoned on ctx cancellation (their
// Result may still be in flight) and SubmitAsync requests (the caller
// keeps the channel) are left to the GC.
var reqPool = sync.Pool{
	New: func() any { return &request{done: make(chan Result, 1)} },
}

// batchPool recycles the per-batch []*request slices the collector
// assembles; entries are cleared before pooling so a parked slice does
// not pin delivered requests.
var batchPool = sync.Pool{
	New: func() any { return []*request(nil) },
}

const maxPooledBatchCap = 4096

func putBatch(batch []*request) {
	if cap(batch) > maxPooledBatchCap {
		return
	}
	for i := range batch {
		batch[i] = nil
	}
	batchPool.Put(batch[:0])
}

// ErrQueueClosed is returned for submissions to a closed queue.
var ErrQueueClosed = errors.New("batching: queue closed")

// DefaultInFlight is the dispatch pipeline window selected by
// QueueConfig.InFlight = 0.
const DefaultInFlight = 4

// QueueConfig parameterizes a per-replica batching queue.
type QueueConfig struct {
	// Controller chooses the max batch size. Required.
	Controller Controller
	// BatchTimeout, when positive, enables delayed batching: a non-full
	// batch waits up to this long (from dispatch readiness) for more
	// queries (paper §4.3.2). Zero dispatches immediately with whatever
	// is queued.
	BatchTimeout time.Duration
	// Depth is the queue's buffered capacity; submissions beyond it
	// block. Zero selects 8192.
	Depth int
	// InFlight is the dispatch pipeline window: the maximum number of
	// batches concurrently in flight to the replica. While one batch is
	// inside the container RPC the collector keeps assembling and
	// dispatching more, overlapping serialization, network, and compute
	// (the rpc.Client already multiplexes requests over one connection).
	// Zero selects DefaultInFlight; 1 reproduces the serial
	// one-batch-at-a-time dispatcher.
	//
	// InFlight composes with the replica's RPC connection pool size
	// (container.DialConns / rpc.PoolConfig.Conns): the window says how
	// many batches may be outstanding, Conns says how many can be *on the
	// wire* at once. Over one connection, concurrent batch frames
	// serialize behind each other's writes, so on transfer-bound links
	// throughput scales with min(InFlight, Conns); see
	// docs/ARCHITECTURE.md.
	InFlight int
	// Adaptive, when non-nil, sizes the pipeline window (and, once
	// attached to the replica's pool, the connection target) at runtime
	// from the queue's load model and pool telemetry;
	// InFlight is then ignored in favor of the controller's bounds. Nil
	// keeps the static window above — the paper-figure configuration.
	// One Adaptive belongs to exactly one queue.
	Adaptive *Adaptive
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
// (paper §4.3). Queries accumulate here and a dispatch pipeline drains
// them: a collector goroutine assembles controller-sized batches and hands
// each to a worker goroutine, keeping up to InFlight batches in the
// container at once so the replica stays saturated instead of idling for
// one round trip per batch. Every dispatched batch feeds its (size,
// latency) observation back to the controller.
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

	in    chan *request
	stop  chan struct{}
	done  chan struct{}
	win   *winSem   // pipeline window; only an Adaptive ever resizes it
	adapt *Adaptive // nil when the window is static
	wg    sync.WaitGroup

	// submitMu fences submission against Close: submitters hold it (read
	// side) across the send into q.in, and Close acquires it exclusively
	// after closing stop, so by the time Close's final drain runs, every
	// racing send has either committed (and will be drained) or observed
	// stop and failed. Without the fence a send can commit after the
	// dispatcher's own drain, leaving that caller waiting forever.
	submitMu sync.RWMutex
	stopOnce sync.Once

	// Multi-tenant fair batching (tenant.go). fairMode is the sticky
	// switch from FIFO to weighted deficit-round-robin collection; the
	// remaining fields are the per-tenant sub-queues and DRR rotation
	// state. Queues that never see a tenant keep fairMode false and never
	// touch any of this — the untagged path is byte-for-byte the
	// single-tenant dispatcher.
	fairMode      atomic.Bool
	tenMu         sync.Mutex
	tenants       map[string]*tenantQueue
	tenOrder      []*tenantQueue // registration order = DRR rotation order
	drrPos        int            // rotation position into tenOrder
	drrMid        bool           // resuming a tenant mid-round: skip re-credit
	tenantPending atomic.Int64   // requests across all sub-queues
	tenantNotify  chan struct{}  // buffered(1) "state changed" wakeup

	// load is the replica's one load model (load.go): occupancy moved at
	// every queue transition, speed estimates written once per batch.
	load LoadModel

	// Latency and batch-size telemetry for the experiments and the
	// benchmark. No controller reads these.
	BatchLatency *metrics.Histogram
	BatchSizes   *metrics.Histogram
	QueueDelay   *metrics.Histogram
	Throughput   *metrics.Meter
}

// NewQueue starts a batching queue in front of pred.
func NewQueue(pred container.Predictor, cfg QueueConfig) *Queue {
	if cfg.Controller == nil {
		panic("batching: QueueConfig.Controller is required")
	}
	depth := cfg.Depth
	if depth <= 0 {
		depth = 8192
	}
	window := cfg.InFlight
	if window <= 0 {
		window = DefaultInFlight
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
		in:           make(chan *request, depth),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		tenantNotify: make(chan struct{}, 1),
		adapt:        cfg.Adaptive,
		BatchLatency: metrics.NewHistogram(),
		BatchSizes:   metrics.NewHistogram(),
		QueueDelay:   metrics.NewHistogram(),
		Throughput:   metrics.NewMeter(),
	}
	if cfg.Adaptive != nil {
		window = cfg.Adaptive.Window()
	}
	q.win = newWinSem(window)
	if cfg.Adaptive != nil {
		cfg.Adaptive.bind(q.win, &q.load)
	}
	go q.dispatchLoop()
	return q
}

// Controller returns the queue's batch-size controller.
func (q *Queue) Controller() Controller { return q.ctrl }

// InFlight returns the queue's dispatch pipeline window — the static
// configuration, or the adaptive controller's current target.
func (q *Queue) InFlight() int { return q.win.curLimit() }

// Adaptive returns the queue's window/pool controller (nil when the
// window is static).
func (q *Queue) Adaptive() *Adaptive { return q.adapt }

// Submit enqueues x and blocks until its prediction is rendered, the
// context is cancelled, or the queue closes.
func (q *Queue) Submit(ctx context.Context, x []float64) (container.Prediction, error) {
	req := reqPool.Get().(*request)
	req.x, req.enq = x, time.Now()
	req.state.Store(reqQueued) // recycled requests come back claimed

	if err := q.submit(ctx, req); err != nil {
		req.x = nil
		reqPool.Put(req) // never enqueued, still exclusively ours
		return container.Prediction{}, err
	}
	select {
	case res := <-req.done:
		// The request's one Result has been sent and received: nothing
		// else holds the request, so recycle it.
		req.x = nil
		reqPool.Put(req)
		return res.Pred, res.Err
	case <-ctx.Done():
		// Abandoned: the dispatch side may still deliver into req.done.
		// The request leaks to the GC rather than being pooled dirty.
		return container.Prediction{}, ctx.Err()
	}
}

// SubmitAsync enqueues x and returns a channel that will receive exactly
// one Result (or be closed if the queue shuts down first).
func (q *Queue) SubmitAsync(ctx context.Context, x []float64) (<-chan Result, error) {
	// Not pooled: the caller keeps the channel, so the request is never
	// provably ours again.
	req := &request{x: x, enq: time.Now(), done: make(chan Result, 1)}
	if err := q.submit(ctx, req); err != nil {
		return nil, err
	}
	return req.done, nil
}

// submit performs the fenced send into the queue.
func (q *Queue) submit(ctx context.Context, req *request) error {
	q.submitMu.RLock()
	defer q.submitMu.RUnlock()
	select {
	case <-q.stop:
		return ErrQueueClosed
	default:
	}
	select {
	case q.in <- req:
		q.load.queued.Add(1)
		return nil
	case <-q.stop:
		return ErrQueueClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the dispatcher, waits for in-flight batches to deliver, and
// fails queued requests with ErrQueueClosed.
func (q *Queue) Close() {
	q.stopOnce.Do(func() {
		close(q.stop)
		q.win.close() // unblock a collector waiting on the window
	})
	// Wait out submitters racing the close: stop is closed, so blocked
	// senders exit promptly, and any send that already committed is in
	// q.in by the time we hold the write lock.
	q.submitMu.Lock()
	q.submitMu.Unlock() // the empty critical section is the fence
	<-q.done
	// The dispatcher drained what it saw before exiting; catch requests
	// whose send committed after that drain.
	q.drainClosed()
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
		if !q.win.acquire() { // false: the queue is stopping
			q.drainClosed()
			q.wg.Wait() // in-flight batches still deliver their results
			return
		}

		// Block for the first query of the next batch, skipping requests
		// whose ticket was cancelled while they waited.
		var first *request
		for first == nil {
			if q.fairEngaged() {
				if first = q.firstFair(); first == nil {
					q.win.release()
					q.drainClosed()
					q.wg.Wait() // in-flight batches still deliver their results
					return
				}
				break
			}
			select {
			case r := <-q.in:
				if q.take(r) {
					first = r
				}
			case <-q.tenantNotify:
				// First tenant just registered: loop back and re-check
				// fairEngaged, taking the fair path for this batch.
			case <-q.stop:
				q.win.release()
				q.drainClosed()
				q.wg.Wait() // in-flight batches still deliver their results
				return
			}
		}
		var batch []*request
		if q.fairEngaged() {
			batch = q.collectFair(first)
		} else {
			batch = q.collect(first)
		}
		if q.win.curLimit() == 1 {
			// Serial window: the collector holds the only slot, so run the
			// batch inline instead of paying a goroutine spawn per batch —
			// this is exactly the paper's one-batch-at-a-time dispatcher. An
			// adaptive window that has converged to 1 is serial too; if the
			// limit grows mid-batch, parallelism resumes with the next batch.
			q.runBatch(batch)
			putBatch(batch)
			q.win.release()
			continue
		}
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			defer q.win.release()
			q.runBatch(batch)
			putBatch(batch)
		}()
	}
}

// runBatch is one pipeline stage execution: it gathers the batch into a
// pooled flat tensor, invokes the container, feeds the load model and the
// controllers, and delivers exactly one Result per request — predictions
// scatter into each submitter's slot as the call produces them, and on
// error every row not yet delivered gets the error (none has been, under
// PredictViewContext's all-or-nothing contract; the prefix tracking is
// defense in depth against a deliver panic mid-scatter).
func (q *Queue) runBatch(batch []*request) {
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
		batch[i].done <- Result{Pred: p}
		next = i + 1
	})
	lat := time.Since(start)
	container.PutBatchView(v)
	q.load.observe(n, lat, oldestWait)
	q.ctrl.Observe(n, lat)
	if q.adapt != nil {
		// Reads the model just written; resizes the bound window
		// semaphore itself, inside its own critical section.
		q.adapt.tick()
	}
	q.BatchLatency.ObserveDuration(lat)
	q.BatchSizes.Observe(float64(n))
	q.Throughput.Mark(int64(n))
	if err != nil {
		for _, r := range batch[next:] {
			r.done <- Result{Err: err}
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

// collect assembles a batch starting from first, honoring the controller's
// cap and the optional delayed-batching timeout.
func (q *Queue) collect(first *request) []*request {
	max := q.ctrl.MaxBatch()
	if max < 1 {
		max = 1
	}
	batch := append(batchPool.Get().([]*request), first)
	if q.timeout > 0 {
		timer := time.NewTimer(q.timeout)
		defer timer.Stop()
		for len(batch) < max {
			select {
			case r := <-q.in:
				if q.take(r) {
					batch = append(batch, r)
				}
			case <-timer.C:
				return batch
			case <-q.stop:
				return batch
			}
		}
		return batch
	}
	for len(batch) < max {
		select {
		case r := <-q.in:
			if q.take(r) {
				batch = append(batch, r)
			}
		default:
			return batch
		}
	}
	return batch
}

// drainClosed fails any requests still queued at shutdown. Cancelled
// ticket requests are dropped silently — their callers were already told
// the request would never be delivered.
func (q *Queue) drainClosed() {
	q.drainTenantsClosed()
	for {
		select {
		case r := <-q.in:
			q.load.queued.Add(-1)
			if r.claim() {
				r.done <- Result{Err: ErrQueueClosed}
			}
		default:
			return
		}
	}
}
