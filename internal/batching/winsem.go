package batching

import (
	"sync"
	"sync/atomic"
	"time"
)

// winSem is the counting semaphore behind every queue's pipeline window.
// It is resizable because an Adaptive controller moves its limit at
// runtime; a pinned window is a winSem nobody resizes.
//
// Only the queue's collector acquires; workers release from their own
// goroutines, and the controller resizes the limit from whichever worker
// observed the period boundary. Shrinking below the currently held count
// never interrupts in-flight batches — acquisition just stays blocked
// until enough of them release.
//
// Every release, resize and close leaves a token in changed, which is what
// the collector waits on: blocked in acquire, or holding the last slot in
// collect. A token may be stale, so its receiver re-reads the state.
type winSem struct {
	mu      sync.Mutex
	limit   atomic.Int64 // atomic so that curLimit needs no lock
	held    int
	closed  bool
	flights []time.Time   // launch instants of the batches in flight, oldest first
	changed chan struct{} // buffered(1)
}

func newWinSem(limit int) *winSem {
	if limit < 1 {
		limit = 1
	}
	w := &winSem{changed: make(chan struct{}, 1)}
	w.limit.Store(int64(limit))
	return w
}

func (w *winSem) notify() {
	select {
	case w.changed <- struct{}{}:
	default: // a token is already pending
	}
}

// acquire blocks until a slot is free or the semaphore closes; it reports
// whether a slot was acquired.
func (w *winSem) acquire() bool {
	for {
		w.mu.Lock()
		free, closed := w.held < int(w.limit.Load()), w.closed
		if free && !closed {
			w.held++
		}
		w.mu.Unlock()
		if free || closed {
			return !closed
		}
		<-w.changed
	}
}

// launch records that the collector's reserved slot left with a batch at t,
// and reports whether it was the window's last free one.
func (w *winSem) launch(t time.Time) (last bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flights = append(w.flights, t)
	return w.held >= int(w.limit.Load())
}

// release returns a slot — the one whose batch launched at t, or with the
// zero time a reserved slot that never launched — and wakes the collector.
func (w *winSem) release(t time.Time) {
	w.mu.Lock()
	w.held--
	for i, f := range w.flights {
		if f.Equal(t) {
			w.flights = append(w.flights[:i], w.flights[i+1:]...)
			break
		}
	}
	w.mu.Unlock()
	w.notify()
}

// state returns the slots held (the collector's reserved one included), the
// limit, and the earliest launch among the batches in flight (zero if none).
func (w *winSem) state() (held, limit int, oldest time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.flights) > 0 {
		oldest = w.flights[0]
	}
	return w.held, int(w.limit.Load()), oldest
}

// setLimit resizes the window (min 1). Growing wakes a blocked collector
// immediately; shrinking takes effect as in-flight batches drain. An
// unchanged limit is a no-op — no spurious collector wakeups.
func (w *winSem) setLimit(n int) {
	if n < 1 {
		n = 1
	}
	if w.limit.Swap(int64(n)) != int64(n) {
		w.notify()
	}
}

// curLimit returns the current window limit. Lock-free: JSQ prices every
// query with it (LoadModel.Cost).
func (w *winSem) curLimit() int { return int(w.limit.Load()) }

// close fails current and future acquires. Held slots may still release.
func (w *winSem) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.notify()
}
