package simnet

import (
	"io"
	"sync"
	"testing"
	"time"
)

func TestGbps(t *testing.T) {
	if Gbps(1) != 125e6 {
		t.Fatalf("Gbps(1) = %v", Gbps(1))
	}
	if Gbps(10) != 1.25e9 {
		t.Fatalf("Gbps(10) = %v", Gbps(10))
	}
}

func TestLimiterUnlimited(t *testing.T) {
	var nilLimiter *limiter
	if nilLimiter.Reserve(1000) != 0 {
		t.Fatal("nil limiter should never wait")
	}
	l := newLimiter(0)
	if l.Reserve(1<<30) != 0 {
		t.Fatal("unlimited limiter should never wait")
	}
}

func TestLimiterPacing(t *testing.T) {
	l := newLimiter(1e6) // 1 MB/s
	// First reservation of 100KB should cost ~100ms.
	w1 := l.Reserve(100_000)
	if w1 < 80*time.Millisecond || w1 > 150*time.Millisecond {
		t.Fatalf("first wait = %v, want ~100ms", w1)
	}
	// Immediately reserving again queues behind the first.
	w2 := l.Reserve(100_000)
	if w2 < w1 {
		t.Fatalf("second wait %v should exceed first %v", w2, w1)
	}
}

func TestLimiterSharedAcrossCallers(t *testing.T) {
	l := newLimiter(10e6) // 10 MB/s
	var wg sync.WaitGroup
	var mu sync.Mutex
	maxWait := time.Duration(0)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := l.Reserve(1_000_000) // 100ms each at 10MB/s
			mu.Lock()
			if w > maxWait {
				maxWait = w
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	// Four 100ms transfers serialized: the last waits ~400ms.
	if maxWait < 300*time.Millisecond {
		t.Fatalf("shared limiter did not serialize: max wait %v", maxWait)
	}
}

func TestLinkTransfersBytesIntact(t *testing.T) {
	f := NewFabric(Gbps(10), 0)
	node, cont := f.NewLink()
	defer node.Close()
	defer cont.Close()

	msg := make([]byte, 1024)
	for i := range msg {
		msg[i] = byte(i)
	}
	go func() {
		node.Write(msg)
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(cont, got); err != nil {
		t.Fatal(err)
	}
	for i := range msg {
		if got[i] != msg[i] {
			t.Fatalf("byte %d corrupted", i)
		}
	}
}

func TestLinkBandwidthLimitsThroughput(t *testing.T) {
	// Transfer 2MB over a 20MB/s fabric: must take >= ~100ms. Over an
	// effectively unlimited fabric it should be much faster.
	transfer := func(bytesPerSec float64) time.Duration {
		f := NewFabric(bytesPerSec, 0)
		node, cont := f.NewLink()
		defer node.Close()
		defer cont.Close()
		const total = 2 << 20
		done := make(chan struct{})
		go func() {
			defer close(done)
			buf := make([]byte, 32<<10)
			read := 0
			for read < total {
				n, err := cont.Read(buf)
				if err != nil {
					return
				}
				read += n
			}
		}()
		start := time.Now()
		buf := make([]byte, 32<<10)
		written := 0
		for written < total {
			n, err := node.Write(buf)
			if err != nil {
				t.Fatal(err)
			}
			written += n
		}
		<-done
		return time.Since(start)
	}
	slow := transfer(20e6)
	fast := transfer(0)
	if slow < 80*time.Millisecond {
		t.Fatalf("limited transfer took %v, want >= ~100ms", slow)
	}
	if fast > slow/2 {
		t.Fatalf("unlimited (%v) not clearly faster than limited (%v)", fast, slow)
	}
}

func TestLinkLatency(t *testing.T) {
	f := NewFabric(0, 20*time.Millisecond)
	node, cont := f.NewLink()
	defer node.Close()
	defer cont.Close()
	go node.Write([]byte("x"))
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := io.ReadFull(cont, buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 18*time.Millisecond {
		t.Fatalf("latency not applied: %v", d)
	}
}

func TestFabricDirectionsIndependent(t *testing.T) {
	// Saturating the uplink must not slow the downlink.
	f := NewFabric(1e6, 0) // 1MB/s per direction
	node, cont := f.NewLink()
	defer node.Close()
	defer cont.Close()

	// Consume ~500ms of uplink budget.
	go func() {
		buf := make([]byte, 16<<10)
		for {
			if _, err := cont.Read(buf); err != nil {
				return
			}
		}
	}()
	node.Write(make([]byte, 500_000))

	// Downlink write should not queue behind it.
	go func() {
		buf := make([]byte, 16<<10)
		for {
			if _, err := node.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	cont.Write(make([]byte, 1000)) // 1ms at 1MB/s
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("downlink write queued behind uplink: %v", d)
	}
}
