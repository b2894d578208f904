package rpc

import (
	"context"
	"errors"
	"testing"
	"time"
)

// stuckConn fails every Write and blocks Reads until Close, modeling a
// connection whose send side has failed while the receive side idles.
type stuckConn struct {
	closed chan struct{}
}

func newStuckConn() *stuckConn { return &stuckConn{closed: make(chan struct{})} }

func (c *stuckConn) Read(p []byte) (int, error) {
	<-c.closed
	return 0, errors.New("stuck conn closed")
}

func (c *stuckConn) Write(p []byte) (int, error) {
	return 0, errors.New("write failed")
}

func (c *stuckConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

func (c *Client) pendingLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Regression test: Ping used to leave its correlation entry in the pending
// map when the frame write failed, leaking one entry per failed heartbeat.
func TestPingWriteFailureDoesNotLeakPending(t *testing.T) {
	conn := newStuckConn()
	c := newClient(conn)
	defer c.Close()
	for i := 0; i < 5; i++ {
		if err := c.Ping(context.Background()); err == nil {
			t.Fatal("ping succeeded on a dead connection")
		}
	}
	if n := c.pendingLen(); n != 0 {
		t.Fatalf("pending map leaked %d entries after failed pings", n)
	}
}

func TestCallWriteFailureDoesNotLeakPending(t *testing.T) {
	conn := newStuckConn()
	c := newClient(conn)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := c.Call(ctx, MethodPredict, []byte("x")); err == nil {
			t.Fatal("call succeeded on a dead connection")
		}
	}
	if n := c.pendingLen(); n != 0 {
		t.Fatalf("pending map leaked %d entries after failed calls", n)
	}
}
