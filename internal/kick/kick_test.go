package kick

import (
	"net"
	"slices"
	"testing"
	"time"
)

func TestSleepPrecision(t *testing.T) {
	for _, d := range []time.Duration{200 * time.Microsecond, 2 * time.Millisecond} {
		start := time.Now()
		SleepUntil(start.Add(d))
		got := time.Since(start)
		if got < d {
			t.Fatalf("SleepUntil(+%v) returned early after %v", d, got)
		}
		if got > d+5*time.Millisecond {
			t.Fatalf("SleepUntil(+%v) overslept: %v", d, got)
		}
	}
}

// idleWait is the sub-millisecond wait the lateness tests time.
const idleWait = 300 * time.Microsecond

// requireExactOnIdleRuntime runs 40 waits of idleWait, one at a time, on an
// otherwise idle process and bounds their median overshoot below 250 µs,
// well under netpoll's 1 ms epoll_wait floor. wait returns when the timer
// under test has fired. The listener stands in for the node's sockets, so
// netpoll is live as it is in a serving process. Only the median is
// bounded: the tail follows the machine's load.
func requireExactOnIdleRuntime(t *testing.T, what string, wait func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	over := make([]time.Duration, 40)
	for i := range over {
		start := time.Now()
		wait()
		over[i] = time.Since(start) - idleWait
	}
	slices.Sort(over)
	med := over[len(over)/2]
	if med >= 250*time.Microsecond {
		t.Fatalf("median overshoot of %s = %v, want < 250µs (all: %v)", what, med, over)
	}
	t.Logf("median overshoot of %s: %v", what, med)
}

// TestSleepExactOnIdleRuntime: a sub-millisecond SleepUntil wakes near its
// deadline, not at netpoll's 1 ms epoll_wait floor.
func TestSleepExactOnIdleRuntime(t *testing.T) {
	requireExactOnIdleRuntime(t, "SleepUntil", func() { SleepUntil(time.Now().Add(idleWait)) })
}

// TestAfterFuncExactOnIdleRuntime: a kicked AfterFunc runs its function near
// its deadline, and a Reset timer sends near its deadline, while the owner
// is parked on something else.
func TestAfterFuncExactOnIdleRuntime(t *testing.T) {
	fired := make(chan struct{})
	requireExactOnIdleRuntime(t, "AfterFunc", func() {
		k := AfterFunc(idleWait, func() { fired <- struct{}{} })
		<-fired
		k.Stop()
	})
	k := NewTimer(time.Hour)
	k.Stop()
	requireExactOnIdleRuntime(t, "Timer.Reset", func() {
		k.Reset(idleWait)
		<-k.C
		k.Stop()
	})
}

// BenchmarkTimerResetStop prices what a kicked timer adds to a timer that is
// stopped before it fires, the gather's usual case: arming and disarming
// its wake fd, and the pool's take and give.
func BenchmarkTimerResetStop(b *testing.B) {
	b.Run("plain", func(b *testing.B) {
		t := time.NewTimer(time.Hour)
		for b.Loop() {
			t.Reset(time.Hour)
			t.Stop()
		}
	})
	b.Run("kicked", func(b *testing.B) {
		k := NewTimer(time.Hour)
		for b.Loop() {
			k.Reset(time.Hour)
			k.Stop()
		}
	})
}
