package rpc

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// The response-direction lease contract: every scratch buffer the server
// leases for a handler is recycled exactly once, after the response frame
// is written — including when the write fails or the caller has already
// abandoned the call. activeRespBufs is the counter these tests drain
// back to baseline; run with -race they also catch a recycled buffer
// still being written through.

// waitRespBufsSettle waits until the leased response-body count returns
// to base.
func waitRespBufsSettle(t *testing.T, base int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := activeRespBufs.Load(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("response bufs never drained: %d active, baseline %d", activeRespBufs.Load(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPutRespBufRetentionCap: the response pool obeys the 1 MiB retention
// rule, and refuses degenerate tiny buffers (e.g. a handler returning a
// static slice) that would poison the pool with useless capacity.
func TestPutRespBufRetentionCap(t *testing.T) {
	cases := []struct {
		capacity int
		want     bool
	}{
		{4096, true},
		{maxPooledRespBuf, true},
		{maxPooledRespBuf + 1, false},
		{511, false},
		{4, false},
	}
	for _, c := range cases {
		b := make([]byte, 0, c.capacity)
		activeRespBufs.Add(1) // pair the decrement inside putRespBuf
		if got := putRespBuf(&b); got != c.want {
			t.Fatalf("putRespBuf(cap %d) = %v, want %v", c.capacity, got, c.want)
		}
	}
}

// failWriteConn fails every write, simulating a connection that dies
// between reading a request and writing its response.
type failWriteConn struct {
	io.ReadWriteCloser
}

func (c failWriteConn) Write(p []byte) (int, error) {
	return 0, errors.New("wire broke")
}

// TestServerWriteFailureRecyclesLeases: a failed response write must
// still end both server-side leases — the request frame's body and the
// response scratch — or a flapping connection leaks both pools dry.
func TestServerWriteFailureRecyclesLeases(t *testing.T) {
	leaseBase := activeLeases.Load()
	respBase := activeRespBufs.Load()
	cli, srvEnd := net.Pipe()
	srv := NewServer(echoHandler)
	go srv.ServeConn(failWriteConn{srvEnd})
	defer srv.Close()
	c := newClient(cli)
	defer c.Close()

	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		if _, err := c.Call(ctx, MethodPredict, []byte("abc")); err == nil {
			t.Fatal("call succeeded across a write-dead wire")
		}
		cancel()
	}
	waitRespBufsSettle(t, respBase)
	waitLeasesSettle(t, leaseBase)
}

// TestCancelledCallerRecyclesLeases: a caller that abandons its call
// before the handler finishes must not strand the server's response
// scratch or the response frame — the scratch recycles after the write,
// and the unclaimed response is released by the client's read loop.
func TestCancelledCallerRecyclesLeases(t *testing.T) {
	leaseBase := activeLeases.Load()
	respBase := activeRespBufs.Load()
	release := make(chan struct{})
	addr, stop := startServer(t, func(_ Method, p, scratch []byte) ([]byte, error) {
		<-release
		return append(scratch, p...), nil
	})
	defer stop()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const calls = 4
	for i := 0; i < calls; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		if _, err := c.Call(ctx, MethodPredict, []byte("late")); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want deadline exceeded", err)
		}
		cancel()
	}
	close(release) // now let the server answer every abandoned call
	waitRespBufsSettle(t, respBase)
	waitLeasesSettle(t, leaseBase)
}
