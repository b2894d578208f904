package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pipeDialer dials in-memory connections to an rpc.Server and keeps the
// client-side endpoints so tests can kill individual pooled connections.
type pipeDialer struct {
	srv *Server

	mu    sync.Mutex
	conns []net.Conn
	fail  error // when set, Dial returns it
}

func newPipeDialer(h Handler) *pipeDialer {
	return &pipeDialer{srv: NewServer(h)}
}

func (d *pipeDialer) Dial() (io.ReadWriteCloser, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fail != nil {
		return nil, d.fail
	}
	cli, srv := net.Pipe()
	go d.srv.ServeConn(srv)
	d.conns = append(d.conns, cli)
	return cli, nil
}

func (d *pipeDialer) setFail(err error) {
	d.mu.Lock()
	d.fail = err
	d.mu.Unlock()
}

// kill closes the i-th connection ever dialed, simulating its loss.
func (d *pipeDialer) kill(i int) {
	d.mu.Lock()
	c := d.conns[i]
	d.mu.Unlock()
	c.Close()
}

func (d *pipeDialer) dialed() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

func newTestPool(t *testing.T, d *pipeDialer, conns int) *Pool {
	t.Helper()
	p, err := NewPool(PoolConfig{
		Conns:   conns,
		Dial:    d.Dial,
		backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.Close()
		d.srv.Close()
	})
	return p
}

func TestPoolRoundRobinEcho(t *testing.T) {
	d := newPipeDialer(echoHandler)
	p := newTestPool(t, d, 3)
	if len(p.slots) != 3 {
		t.Fatalf("%d slots, want 3", len(p.slots))
	}
	if d.dialed() != 3 {
		t.Fatalf("dialed %d connections, want 3", d.dialed())
	}
	for i := 0; i < 9; i++ {
		msg := []byte(fmt.Sprintf("msg-%d", i))
		resp, err := p.Call(context.Background(), MethodPredict, msg)
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Data) != string(msg) {
			t.Fatalf("resp = %q, want %q", resp.Data, msg)
		}
		resp.Release()
	}
	if err := p.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPoolFailoverAndRedial(t *testing.T) {
	d := newPipeDialer(echoHandler)
	p := newTestPool(t, d, 2)

	// Kill one connection; calls racing the death notification may fail,
	// but the pool must quickly settle into serving every call on the
	// survivor while the monitor redials.
	d.kill(0)
	deadline := time.Now().Add(5 * time.Second)
	streak := 0
	for streak < 20 {
		if _, err := p.Call(context.Background(), MethodPredict, []byte("x")); err != nil {
			if time.Now().After(deadline) {
				t.Fatalf("calls still failing after kill: %v", err)
			}
			streak = 0
			continue
		}
		streak++
	}
	// The monitor must eventually restore the lost connection.
	deadline = time.Now().Add(5 * time.Second)
	for d.dialed() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("connection was not redialed")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolInFlightCallOnDeadConnFails(t *testing.T) {
	block := make(chan struct{})
	d := newPipeDialer(func(method Method, payload, scratch []byte) ([]byte, error) {
		<-block
		return append(scratch, payload...), nil
	})
	defer close(block)
	p := newTestPool(t, d, 1)

	errc := make(chan error, 1)
	go func() {
		_, err := p.Call(context.Background(), MethodPredict, []byte("x"))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the call reach the server
	d.kill(0)
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("in-flight call on dead connection returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call did not fail after its connection died")
	}
}

func TestPoolAllConnsDown(t *testing.T) {
	d := newPipeDialer(echoHandler)
	p := newTestPool(t, d, 2)
	d.setFail(errors.New("dial refused"))
	d.kill(0)
	d.kill(1)
	// Once both monitors notice, calls fail fast with errNoConns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := p.Call(context.Background(), MethodPredict, []byte("x"))
		if errors.Is(err, errNoConns) {
			break
		}
		if err == nil {
			t.Fatal("call succeeded with every connection dead")
		}
		if time.Now().After(deadline) {
			t.Fatalf("err = %v, want errNoConns", err)
		}
		time.Sleep(time.Millisecond)
	}
	// Recovery: dialing works again, the backoff loop restores service.
	d.setFail(nil)
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := p.Call(context.Background(), MethodPredict, []byte("x")); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("pool did not recover after dialing resumed")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolRedialBackoffGrows(t *testing.T) {
	var attempts atomic.Int64
	d := newPipeDialer(echoHandler)
	p, err := NewPool(PoolConfig{
		Conns: 1,
		Dial: func() (io.ReadWriteCloser, error) {
			if attempts.Add(1) > 1 { // first dial (construction) succeeds
				return nil, errors.New("down")
			}
			return d.Dial()
		},
		backoff:    10 * time.Millisecond,
		maxBackoff: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		p.Close()
		d.srv.Close()
	}()
	d.kill(0)
	// With backoff 10ms doubling to a 40ms cap, 150ms admits at most
	// ~6 attempts; without backoff the tight loop would spin hundreds.
	time.Sleep(150 * time.Millisecond)
	if n := attempts.Load(); n > 10 {
		t.Fatalf("%d dial attempts in 150ms: backoff not applied", n)
	}
}

func TestPoolBackoffCoversFlappingConns(t *testing.T) {
	// A listener that accepts and immediately drops connections (crashed
	// container behind a live load balancer): Dial succeeds, the client
	// dies instantly. The monitor must pace these redials with backoff,
	// not spin connect/teardown at full speed.
	var dials atomic.Int64
	p, err := NewPool(PoolConfig{
		Conns: 1,
		Dial: func() (io.ReadWriteCloser, error) {
			dials.Add(1)
			cli, srv := net.Pipe()
			srv.Close() // accepted, then dropped before any frame
			return cli, nil
		},
		backoff:    10 * time.Millisecond,
		maxBackoff: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// With backoff never resetting (no connection lives > 40ms), 200ms
	// admits ~6 redials; an unpaced loop would manage thousands.
	time.Sleep(200 * time.Millisecond)
	if n := dials.Load(); n > 15 {
		t.Fatalf("%d dials in 200ms: flapping connections are not backed off", n)
	}
}

func TestPoolConstructionFailureClosesDialed(t *testing.T) {
	d := newPipeDialer(echoHandler)
	defer d.srv.Close()
	calls := 0
	_, err := NewPool(PoolConfig{
		Conns: 3,
		Dial: func() (io.ReadWriteCloser, error) {
			calls++
			if calls == 3 {
				return nil, errors.New("third dial fails")
			}
			return d.Dial()
		},
	})
	if err == nil {
		t.Fatal("NewPool succeeded despite failed dial")
	}
	// The two established connections must have been closed: a write on
	// them fails.
	for i := 0; i < 2; i++ {
		d.mu.Lock()
		c := d.conns[i]
		d.mu.Unlock()
		if _, werr := c.Write([]byte("x")); werr == nil {
			t.Fatalf("connection %d still open after construction failure", i)
		}
	}
}

func TestPoolCloseFailsCalls(t *testing.T) {
	d := newPipeDialer(echoHandler)
	p := newTestPool(t, d, 2)
	if _, err := p.Call(context.Background(), MethodPredict, []byte("x")); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Call(context.Background(), MethodPredict, []byte("x")); err == nil {
		t.Fatal("call succeeded after Close")
	}
	p.Close() // idempotent
}
