package kick

import (
	"os"
	"sync"
	"testing"
	"time"
)

// TestSleepReusesTimerfds: waits and timers share a bounded list of
// timerfds, so many concurrent waits leave at most cap(wakeFds) open fds
// behind.
func TestSleepReusesTimerfds(t *testing.T) {
	openFds := func() int {
		es, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(es)
	}
	before := openFds()
	waiters, waits := 2*cap(wakeFds), 20
	var wg sync.WaitGroup
	for range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range waits {
				SleepUntil(time.Now().Add(50 * time.Microsecond))
				k := NewTimer(50 * time.Microsecond)
				<-k.C
				k.Stop()
			}
		}()
	}
	wg.Wait()
	if after := openFds(); after > before+cap(wakeFds) {
		t.Fatalf("open fds %d → %d after %d×%d waits, want at most %d more", before, after, waiters, waits, cap(wakeFds))
	}
}
