package batching

import "sync"

// winSem is the counting semaphore behind every queue's pipeline window.
// It is resizable because an Adaptive controller moves its limit at
// runtime; a static window is a winSem nobody resizes.
//
// Only the queue's collector acquires; workers release from their own
// goroutines, and the controller resizes the limit from whichever worker
// observed the period boundary. Shrinking below the currently held count
// never interrupts in-flight batches — acquisition just stays blocked
// until enough of them release.
type winSem struct {
	mu     sync.Mutex
	cond   *sync.Cond
	limit  int
	held   int
	closed bool
}

func newWinSem(limit int) *winSem {
	if limit < 1 {
		limit = 1
	}
	w := &winSem{limit: limit}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// acquire blocks until a slot is free or the semaphore closes; it reports
// whether a slot was acquired.
func (w *winSem) acquire() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.held >= w.limit && !w.closed {
		w.cond.Wait()
	}
	if w.closed {
		return false
	}
	w.held++
	return true
}

// release returns a slot and wakes the collector.
func (w *winSem) release() {
	w.mu.Lock()
	w.held--
	w.mu.Unlock()
	w.cond.Broadcast()
}

// setLimit resizes the window (min 1). Growing wakes a blocked collector
// immediately; shrinking takes effect as in-flight batches drain. An
// unchanged limit is a no-op — no spurious collector wakeups.
func (w *winSem) setLimit(n int) {
	if n < 1 {
		n = 1
	}
	w.mu.Lock()
	if n == w.limit {
		w.mu.Unlock()
		return
	}
	w.limit = n
	w.mu.Unlock()
	w.cond.Broadcast()
}

// curLimit returns the current window limit.
func (w *winSem) curLimit() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.limit
}

// close fails current and future acquires. Held slots may still release.
func (w *winSem) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.cond.Broadcast()
}
