package rpc

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// The leased-payload contract: every frame ReadFrame hands out is
// released exactly once — by the caller at its documented release point,
// by the read loop for responses nobody is waiting for, or by the
// cancelled caller's drain when the response raced its cancellation. The
// tests below assert the lease count always drains back to its baseline
// (absolute zero would be fragile: earlier tests may legitimately leak
// frames they never release, e.g. the random-bytes fuzz probes).

// waitLeasesSettle waits until the active lease count returns to base.
func waitLeasesSettle(t *testing.T, base int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := activeLeases.Load(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leases never drained: %d active, baseline %d", activeLeases.Load(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCallReleaseDrainsLease(t *testing.T) {
	base := activeLeases.Load()
	addr, stop := startServer(t, echoHandler)
	defer stop()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		resp, err := c.Call(context.Background(), MethodPredict, []byte("abc"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	waitLeasesSettle(t, base)
}

// TestErrorAndPingResponsesReleased: Call releases msgError frames
// internally, and Ping releases its pong — neither hands a lease to the
// caller.
func TestErrorAndPingResponsesReleased(t *testing.T) {
	base := activeLeases.Load()
	addr, stop := startServer(t, echoHandler) // MethodInfo → error reply
	defer stop()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		if _, err := c.Call(context.Background(), MethodInfo, nil); err == nil {
			t.Fatal("expected remote error")
		}
		if err := c.Ping(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	waitLeasesSettle(t, base)
}

// TestCancelledCallLateResponseReleased is the lease-path regression the
// pooling demands: a Call abandoned by ctx cancellation whose response
// arrives afterwards must still release the frame body — via the read
// loop (no pending entry) or the caller's drain (response raced the
// cancellation under mu) — or the body pool is corrupted/leaked.
func TestCancelledCallLateResponseReleased(t *testing.T) {
	base := activeLeases.Load()
	release := make(chan struct{})
	addr, stop := startServer(t, func(m Method, p, scratch []byte) ([]byte, error) {
		<-release
		return bytes.Repeat([]byte("r"), 1024), nil
	})
	defer stop()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const calls = 8
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			if _, err := c.Call(ctx, MethodPredict, []byte("x")); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("err = %v, want deadline exceeded", err)
			}
		}()
	}
	wg.Wait()      // every call abandoned
	close(release) // now let the server answer all of them
	waitLeasesSettle(t, base)
}

// TestLeaseStressCancellationRace hammers the cancel-vs-response race
// under the race detector: concurrent callers with tiny random deadlines
// against a jittery echo server. Pool corruption (a double-released body
// handed to two readers) shows up as a data race on the shared body
// buffer; leaks show up as a lease count that never settles.
func TestLeaseStressCancellationRace(t *testing.T) {
	base := activeLeases.Load()
	addr, stop := startServer(t, func(m Method, p, scratch []byte) ([]byte, error) {
		if len(p) > 0 && p[0]&1 == 0 {
			time.Sleep(time.Duration(p[0]%8) * 100 * time.Microsecond)
		}
		return append(scratch, p...), nil
	})
	defer stop()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			msg := make([]byte, 256)
			for i := 0; i < 200; i++ {
				msg[0] = byte(rng.Intn(256))
				for j := 1; j < len(msg); j++ {
					msg[j] = byte(g)
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(500)+1)*time.Microsecond)
				resp, err := c.Call(ctx, MethodPredict, msg)
				if err == nil {
					if !bytes.Equal(resp.Data, msg) {
						t.Errorf("cross-talk: got %q sent %q", resp.Data[:8], msg[:8])
					}
					resp.Release()
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	c.Close()
	waitLeasesSettle(t, base)
}

// TestReleaseSafety: Release must be a no-op on zero Payloads, nil
// frames, and caller-constructed (never leased) frames.
func TestReleaseSafety(t *testing.T) {
	var p Payload
	p.Release() // zero payload
	var f *Frame
	f.Release() // nil frame
	own := &Frame{ID: 1, Type: MsgRequest, Payload: []byte("x")}
	own.Release() // never leased: no pool interaction
	if own.ID != 1 {
		t.Fatal("release mutated an unleased frame's identity")
	}
}

// TestServerReleasesOversizedBodies: frames above the 1 MiB pooling cap
// take the unpooled path end to end — they must still round-trip and
// their Release must not poison the pools.
func TestServerReleasesOversizedBodies(t *testing.T) {
	base := activeLeases.Load()
	addr, stop := startServer(t, echoHandler)
	defer stop()
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := bytes.Repeat([]byte("b"), maxPooledBody+4096)
	for i := 0; i < 3; i++ {
		resp, err := c.Call(context.Background(), MethodPredict, big)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Data, big) {
			t.Fatal("oversized payload corrupted")
		}
		resp.Release()
	}
	waitLeasesSettle(t, base)
}

// TestBodyPoolClasses pins the size-class arithmetic the pools rely on.
func TestBodyPoolClasses(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{10, 1 << minBodyBits},
		{1 << minBodyBits, 1 << minBodyBits},
		{(1 << minBodyBits) + 1, 1 << (minBodyBits + 1)},
		{4096, 4096},
		{4097, 8192},
		{maxPooledBody, maxPooledBody},
	}
	for _, c := range cases {
		bp := getBody(c.n)
		if bp == nil {
			t.Fatalf("getBody(%d) refused a poolable size", c.n)
		}
		if cap(*bp) < c.n {
			t.Fatalf("getBody(%d) cap = %d", c.n, cap(*bp))
		}
		if cap(*bp) != c.wantCap {
			t.Fatalf("getBody(%d) cap = %d, want class %d", c.n, cap(*bp), c.wantCap)
		}
		putBody(bp)
	}
	if getBody(maxPooledBody+1) != nil {
		t.Fatal("getBody pooled a body above the retention cap")
	}
}
