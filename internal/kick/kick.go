// Package kick makes the node's timers fire when they are due. An idle
// runtime waits for its next timer in netpoll, whose epoll_wait timeout is
// whole milliseconds (runtime/netpoll_epoll.go), so a 300 µs timer fires
// about 0.8 ms late. On Linux each wait here also arms a pooled timerfd,
// registered edge-triggered with the netpoller, whose expiry ends that
// epoll_wait. It expires no earlier than its timer is due (an earlier fire
// costs another 1 ms wait). Off Linux, or without an fd, each wait is the
// plain time call.
package kick

import "time"

// SleepUntil blocks until deadline.
func SleepUntil(deadline time.Time) {
	if d := time.Until(deadline); d > 0 {
		w := arm(nil, d)
		time.Sleep(time.Until(deadline))
		give(w)
	}
}

// Timer is a time.Timer holding a wake fd armed for its expiry. A value, so
// making one allocates only the time.Timer: its owner keeps one copy, calls
// Reset and Stop on it, and calls Stop when done, also after a fire.
type Timer struct {
	C <-chan time.Time // nil for AfterFunc's
	t *time.Timer
	w *wakeFd
}

// NewTimer is time.NewTimer, kicked.
func NewTimer(d time.Duration) Timer {
	t := time.NewTimer(d)
	return Timer{C: t.C, t: t, w: arm(nil, d)}
}

// AfterFunc is time.AfterFunc, kicked.
func AfterFunc(d time.Duration, f func()) Timer {
	return Timer{t: time.AfterFunc(d, f), w: arm(nil, d)}
}

// Reset is time.Timer.Reset; it re-arms the wake fd.
func (k *Timer) Reset(d time.Duration) {
	k.t.Reset(d)
	k.w = arm(k.w, d)
}

// Stop is time.Timer.Stop; it disarms the wake fd and returns it to the pool.
func (k *Timer) Stop() {
	k.t.Stop()
	if k.w != nil {
		give(arm(k.w, 0)) // arming for 0 disarms: a pooled fd wakes nobody
		k.w = nil
	}
}
