package rpc

import (
	"context"
	"testing"
	"time"

	"clipper/internal/testutil"
)

// TestCallAllocs pins the steady-state allocation count of one Call over
// a loopback connection, the server's share included (it runs in this
// process), on each shape the frame path has: a frame that fits the
// pooled inline write buffer, a 784-float query (the smallest common
// payload sent as a header/payload writev pair), and a 64 KiB batch,
// which also takes a large body lease and overflows the 64 KiB read
// buffer.
func TestCallAllocs(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	addr, stop := startServer(t, echoHandler)
	defer stop()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for _, size := range []int{256, 784 * 8, 64 << 10} {
		payload := make([]byte, size)
		call := func() {
			p, err := c.Call(ctx, MethodPredict, payload)
			if err != nil {
				t.Fatal(err)
			}
			p.Release()
		}
		for i := 0; i < 100; i++ {
			call() // warm the pools
		}
		if avg := testing.AllocsPerRun(1000, call); avg > 0 {
			t.Errorf("Call with a %d-byte payload allocates %.0f times per round trip, want 0", size, avg)
		}
	}
}
