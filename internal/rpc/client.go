package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Client is a multiplexing RPC client: many goroutines may issue requests
// concurrently over a single connection; responses are correlated by
// request id.
//
// Every request — Go, Call, Ping — takes one path: register a completion
// under a fresh id, write the frame, and have the completion fired with
// the outcome. The completion's contract, stated here and nowhere else:
// done fires exactly once — on the read loop when the response lands; on
// the goroutine that kills the connection (a failed read, Close) or whose
// frame write failed; or inline in the issuing call when the client is
// already dead — and must not block, because the read loop delivers
// nothing else until it returns. With a nil error done owns the leased
// Payload and must Release it exactly once. With an error the Payload is
// zero and the error is the server's *RemoteError, the write error, or
// the cause of the connection's death (ErrClientClosed after a local
// Close).
type Client struct {
	conn io.ReadWriteCloser

	writeMu sync.Mutex

	// Connection telemetry (see Stats). The contended-write counters are
	// only touched when a write actually queues behind another in-progress
	// frame write, so the uncontended hot path pays one TryLock and two
	// atomic adds.
	bytesInFlight atomic.Int64 // payload bytes currently being written
	writes        atomic.Int64 // request frames written
	writeQueued   atomic.Int64 // writes that waited behind another write
	writeWaitNS   atomic.Int64 // total ns spent waiting behind writes

	done chan struct{} // closed when the client dies (read failure or Close)

	mu      sync.Mutex
	pending map[uint64]func(Payload, error)
	nextID  uint64
	closed  bool
	readErr error // why the client died; set with closed
}

// ConnStats is a point-in-time snapshot of one connection's write-side
// telemetry. The counters are cumulative over the connection's lifetime;
// consumers (/metrics, the benchmark's rpc cells) difference successive
// snapshots to derive rates.
type ConnStats struct {
	// Alive reports whether the connection is still serving calls.
	Alive bool
	// BytesInFlight is the payload bytes being written at snapshot time.
	BytesInFlight int64
	// Writes is the number of request frames written.
	Writes int64
	// WriteQueued is the number of writes that queued behind another
	// in-progress frame write — the head-of-line signal that a link is
	// transfer-bound.
	WriteQueued int64
	// WriteWait is the total time writes spent queued behind other writes.
	WriteWait time.Duration
}

// Stats snapshots the connection's write-side telemetry.
func (c *Client) Stats() ConnStats {
	return ConnStats{
		Alive:         c.alive(),
		BytesInFlight: c.bytesInFlight.Load(),
		Writes:        c.writes.Load(),
		WriteQueued:   c.writeQueued.Load(),
		WriteWait:     time.Duration(c.writeWaitNS.Load()),
	}
}

// ErrClientClosed is the cause of death a local Close records: requests
// in flight at Close, and every request after it, fail with it.
var ErrClientClosed = errors.New("rpc: client closed")

// waiter is the completion Call and Ping park on. Pooled, with done bound
// once, so a blocking round trip allocates nothing in steady state. A
// waiter returns to the pool only after its one delivery has been
// received, so its channel is always empty there.
type waiter struct {
	ch   chan result
	done func(Payload, error)
}

type result struct {
	p   Payload
	err error
}

var waiterPool = sync.Pool{
	New: func() any {
		w := &waiter{ch: make(chan result, 1)}
		w.done = func(p Payload, err error) { w.ch <- result{p, err} }
		return w
	},
}

// Payload is a leased response payload, returned by Call or handed to a
// Go completion. Data aliases a pooled frame body; the owner must call
// Release exactly once when it is done with Data — for the prediction
// path that release point is Remote.PredictViewContext, immediately after
// DecodePredictionView copies the values out. Data must not be retained
// or used after Release. The zero Payload is valid and Release on it is a
// no-op, so error returns need no special casing.
type Payload struct {
	// Data is the response payload. Valid until Release.
	Data []byte

	frame *Frame
}

// Release returns the payload's backing frame body to the frame pools.
func (p Payload) Release() { p.frame.Release() }

// Dial connects to a server at addr (TCP).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := dialTCP(addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// dialTCP connects to addr with Nagle's algorithm off: latency matters
// more than packet count.
func dialTCP(addr string, timeout time.Duration) (io.ReadWriteCloser, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tcp, ok := conn.(*net.TCPConn); ok {
		tcp.SetNoDelay(true)
	}
	return conn, nil
}

// NewClient wraps an established connection (or any ReadWriteCloser, e.g. a
// bandwidth-limited simulated link) in a client and starts its read loop.
func NewClient(conn io.ReadWriteCloser) *Client {
	c := &Client{
		conn:    conn,
		done:    make(chan struct{}),
		pending: make(map[uint64]func(Payload, error)),
	}
	go c.readLoop()
	return c
}

// Done returns a channel closed when the client dies — its connection
// failed or Close was called. Pool watches it to trigger redials.
func (c *Client) Done() <-chan struct{} { return c.done }

// alive reports whether the client has not yet died. Pool uses it to route
// new calls away from a dead connection its monitor hasn't replaced yet.
func (c *Client) alive() bool {
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

// Err returns the error that killed the client, or nil while it is live.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}

func (c *Client) readLoop() {
	r := NewReader(c.conn)
	for {
		f, err := ReadFrame(r)
		if err != nil {
			c.fail(err)
			return
		}
		done := c.claim(f.ID)
		switch {
		case done == nil:
			// Response to a cancelled call (or stray id): nobody else
			// will see this frame, so the read loop ends its lease.
			f.Release()
		case f.Type == MsgError:
			msg := string(f.Payload)
			f.Release()
			done(Payload{}, &RemoteError{Message: msg})
		default:
			done(Payload{Data: f.Payload, frame: f}, nil)
		}
	}
}

// claim removes and returns id's completion, nil if it is gone. Whoever
// claims a completion fires it; that is what makes delivery exactly-once.
func (c *Client) claim(id uint64) func(Payload, error) {
	c.mu.Lock()
	done := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return done
}

// fail kills the client once: it records why, releases the connection's
// descriptor — nothing else closes it; a pool replaces a dead client
// wholesale, which would otherwise leak one fd per connection death — and
// fires every completion still pending with the cause.
func (c *Client) fail(err error) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.readErr = err
	pending := c.pending
	c.pending = nil // reads and deletes of a nil map are fine; start checks closed first
	c.mu.Unlock()
	cerr := c.conn.Close()
	close(c.done)
	for _, done := range pending {
		done(Payload{}, err)
	}
	return cerr
}

// start registers done under a fresh id and writes the request frame. It
// returns the id, or 0 when the client was already dead and done has
// fired inline.
func (c *Client) start(typ MsgType, method Method, payload []byte, done func(Payload, error)) uint64 {
	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		done(Payload{}, err)
		return 0
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = done
	c.mu.Unlock()

	req := &Frame{ID: id, Type: typ, Method: method, Payload: payload}
	// TryLock first so the telemetry is free when the write path is
	// uncontended; only a write that actually queues behind another frame
	// pays for the clock reads.
	if !c.writeMu.TryLock() {
		waitStart := time.Now()
		c.writeMu.Lock()
		c.writeWaitNS.Add(int64(time.Since(waitStart)))
		c.writeQueued.Add(1)
	}
	c.bytesInFlight.Add(int64(len(payload)))
	err := WriteFrame(c.conn, req)
	c.bytesInFlight.Add(-int64(len(payload)))
	c.writes.Add(1)
	c.writeMu.Unlock()
	if err != nil {
		// A failed write gets no reply. Only this request fails — the
		// error may be its own (an oversized payload is refused before a
		// byte is written); a broken connection is the read loop's to
		// report.
		if done := c.claim(id); done != nil {
			done(Payload{}, err)
		}
	}
	return id
}

// Go sends a request without waiting; done receives the outcome under the
// completion contract on Client. payload is written before Go returns and
// is not retained.
func (c *Client) Go(method Method, payload []byte, done func(Payload, error)) {
	c.start(MsgRequest, method, payload, done)
}

// Call sends a request and blocks for its response or ctx cancellation.
// The returned Payload is leased: the caller must Release it exactly once
// when done with its Data (error returns carry a zero Payload, safe to
// ignore). A call abandoned by ctx cancellation ends the lease of its
// late-arriving response itself.
func (c *Client) Call(ctx context.Context, method Method, payload []byte) (Payload, error) {
	return c.roundTrip(ctx, MsgRequest, method, payload)
}

// roundTrip is start plus a wait for the completion.
func (c *Client) roundTrip(ctx context.Context, typ MsgType, method Method, payload []byte) (Payload, error) {
	w := waiterPool.Get().(*waiter)
	id := c.start(typ, method, payload, w.done)
	select {
	case r := <-w.ch:
		waiterPool.Put(w)
		return r.p, r.err
	case <-ctx.Done():
		if c.claim(id) == nil {
			// Someone else claimed the completion, so it has fired or is
			// about to (nothing blocks between a claim and its delivery):
			// take the delivery and end its lease.
			(<-w.ch).p.Release()
		}
		waiterPool.Put(w)
		return Payload{}, ctx.Err()
	}
}

// Ping round-trips a heartbeat frame.
func (c *Client) Ping(ctx context.Context) error {
	p, err := c.roundTrip(ctx, MsgPing, 0, nil)
	if err != nil {
		return err
	}
	typ := p.frame.Type
	p.Release()
	if typ != MsgPong {
		return fmt.Errorf("rpc: unexpected ping reply type %d", typ)
	}
	return nil
}

// Close tears down the connection; requests in flight fail with
// ErrClientClosed.
func (c *Client) Close() error { return c.fail(ErrClientClosed) }

// RemoteError carries an error string returned by the server.
type RemoteError struct {
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string { return "rpc: remote error: " + e.Message }
