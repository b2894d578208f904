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

// Client is a multiplexing RPC client: many goroutines may issue Call
// concurrently over a single connection; responses are correlated by
// request id.
type Client struct {
	conn io.ReadWriteCloser

	writeMu sync.Mutex

	// Connection telemetry (see Stats). The contended-write counters are
	// only touched when a Call actually queues behind another in-progress
	// frame write, so the uncontended hot path pays one TryLock and two
	// atomic adds.
	bytesInFlight atomic.Int64 // payload bytes currently being written
	writes        atomic.Int64 // request frames written
	writeQueued   atomic.Int64 // writes that waited behind another write
	writeWaitNS   atomic.Int64 // total ns spent waiting behind writes

	done     chan struct{} // closed when the client dies (read failure or Close)
	doneOnce sync.Once

	mu      sync.Mutex
	pending map[uint64]chan *Frame
	nextID  uint64
	closed  bool
	readErr error
}

// ConnStats is a point-in-time snapshot of one connection's write-side
// telemetry. The counters are cumulative over the connection's lifetime;
// consumers (the adaptive controller, the admin API) difference successive
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

// ErrClientClosed is returned by calls issued after Close (or after the
// connection failed).
var ErrClientClosed = errors.New("rpc: client closed")

// callChPool recycles the per-call correlation channels, the last
// per-call allocation on the request hot path. A channel is safe to pool
// once its call has fully completed: on the normal and error-response
// paths the caller has drained the one buffered frame, and on the
// abandoned path abandon() guarantees the channel is empty (the pending
// entry is gone and any raced response was drained under mu). Channels a
// dying connection closes in failAll are never pooled — a closed channel
// is dead.
var callChPool = sync.Pool{
	New: func() any { return make(chan *Frame, 1) },
}

// Payload is a leased response payload returned by Call. Data aliases a
// pooled frame body; the caller owns the lease and must call Release
// exactly once when it is done with Data — for the prediction path that
// release point is Remote.PredictViewContext, immediately after
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

// Dial connects to a container server at addr (TCP).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tcp, ok := conn.(*net.TCPConn); ok {
		tcp.SetNoDelay(true) // latency matters more than packet count
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (or any ReadWriteCloser, e.g. a
// bandwidth-limited simulated link) in a client and starts its read loop.
func NewClient(conn io.ReadWriteCloser) *Client {
	c := &Client{
		conn:    conn,
		done:    make(chan struct{}),
		pending: make(map[uint64]chan *Frame),
	}
	go c.readLoop()
	return c
}

// Done returns a channel closed when the client dies — its connection
// failed or Close was called. Pool watches it to trigger redials.
func (c *Client) Done() <-chan struct{} { return c.done }

// Alive reports whether the client has not yet died — a single channel
// poll, cheap enough for per-dispatch checks (unlike Stats, which reads
// the write-side counters too).
func (c *Client) Alive() bool { return c.alive() }

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
			c.failAll(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[f.ID]
		if ok {
			delete(c.pending, f.ID)
			// Deliver while holding mu (the channel is buffered, so this
			// never blocks). Publishing under the lock is what makes the
			// cancelled-call drain sound: a caller that finds its pending
			// entry already gone knows the response — if one arrived — is
			// already sitting in its channel, so its non-blocking drain
			// cannot miss a frame and leak the lease.
			ch <- f
		}
		c.mu.Unlock()
		if !ok {
			// Response to an abandoned call (or stray id): nobody else
			// will see this frame, so the read loop ends its lease.
			f.Release()
		}
	}
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	c.closed = true
	if c.readErr == nil {
		c.readErr = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan *Frame)
	c.mu.Unlock()
	// Release the connection's descriptor: the read loop exiting means the
	// connection is unusable whatever the cause (EOF, reset, protocol
	// error), and nothing else closes it — a pool replaces the dead client
	// wholesale, which would otherwise leak one fd per connection death.
	c.conn.Close()
	c.doneOnce.Do(func() { close(c.done) })
	for _, ch := range pending {
		close(ch)
	}
}

// Call sends a request and blocks for its response or ctx cancellation.
// The returned Payload is leased: the caller must Release it exactly once
// when done with its Data (error returns carry a zero Payload, safe to
// ignore). A call abandoned by ctx cancellation releases its late-arriving
// response internally — either the caller's drain or the read loop gets
// it, never both.
func (c *Client) Call(ctx context.Context, method Method, payload []byte) (Payload, error) {
	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = ErrClientClosed
		}
		return Payload{}, err
	}
	c.nextID++
	id := c.nextID
	ch := callChPool.Get().(chan *Frame)
	c.pending[id] = ch
	c.mu.Unlock()

	req := &Frame{ID: id, Type: MsgRequest, Method: method, Payload: payload}
	// TryLock first so the telemetry is free when the write path is
	// uncontended; only a call that actually queues behind another frame
	// write pays for the clock reads.
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
		// abandon (not a bare delete) so a response that raced the write
		// failure is found and released, leaving the channel empty.
		if c.abandon(id, ch) {
			callChPool.Put(ch)
		}
		return Payload{}, err
	}

	select {
	case f, ok := <-ch:
		if !ok {
			// failAll closed this channel; a closed channel is dead and
			// never pooled.
			c.mu.Lock()
			err := c.readErr
			c.mu.Unlock()
			if err == nil {
				err = ErrClientClosed
			}
			return Payload{}, err
		}
		callChPool.Put(ch)
		if f.Type == MsgError {
			msg := string(f.Payload)
			f.Release()
			return Payload{}, &RemoteError{Message: msg}
		}
		return Payload{Data: f.Payload, frame: f}, nil
	case <-ctx.Done():
		if c.abandon(id, ch) {
			callChPool.Put(ch)
		}
		return Payload{}, ctx.Err()
	}
}

// abandon removes a cancelled call's correlation entry. If the response
// raced in first, the read loop has already buffered it in ch (under mu,
// before removing the entry), so a non-blocking drain reliably finds the
// frame and releases its lease — late responses never corrupt the body
// pool or leak.
//
// It reports whether ch is safe to return to callChPool: false when the
// channel may still be (or already is) in failAll's hands — failAll
// snapshots the pending map under mu and closes every snapshotted
// channel afterwards, so a channel abandoned on a dying client must be
// leaked to the GC rather than pooled, or the pool would hand out a
// channel that gets closed (again) under it.
func (c *Client) abandon(id uint64, ch chan *Frame) bool {
	c.mu.Lock()
	if _, ok := c.pending[id]; ok {
		// Entry still ours: no response was delivered (the read loop
		// delivers under mu before removing the entry) and failAll has not
		// snapshotted it (it would have taken the entry). Empty and
		// unshared → poolable.
		delete(c.pending, id)
		c.mu.Unlock()
		return true
	}
	dying := c.closed
	c.mu.Unlock()
	select {
	case f, ok := <-ch:
		if !ok {
			return false // failAll closed it
		}
		// The read loop delivered before we abandoned — it consumed the
		// entry, so failAll never saw this channel. Drained → poolable.
		f.Release()
		return true
	default:
	}
	// Empty with the entry gone: only a dying client's failAll snapshot
	// explains that, and it will close ch shortly.
	return !dying
}

// Ping round-trips a heartbeat frame.
func (c *Client) Ping(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	c.nextID++
	id := c.nextID
	ch := callChPool.Get().(chan *Frame)
	c.pending[id] = ch
	c.mu.Unlock()

	c.writeMu.Lock()
	err := WriteFrame(c.conn, &Frame{ID: id, Type: MsgPing})
	c.writeMu.Unlock()
	if err != nil {
		// Release the correlation entry, as Call does on this path: a
		// failed write gets no reply, and leaking the entry would grow
		// pending forever on a flapping connection.
		if c.abandon(id, ch) {
			callChPool.Put(ch)
		}
		return err
	}
	select {
	case f, ok := <-ch:
		if !ok {
			return ErrClientClosed
		}
		callChPool.Put(ch)
		typ := f.Type
		f.Release()
		if typ != MsgPong {
			return fmt.Errorf("rpc: unexpected ping reply type %d", typ)
		}
		return nil
	case <-ctx.Done():
		if c.abandon(id, ch) {
			callChPool.Put(ch)
		}
		return ctx.Err()
	}
}

// Close tears down the connection; in-flight calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.readErr = ErrClientClosed
	c.mu.Unlock()
	c.doneOnce.Do(func() { close(c.done) })
	return c.conn.Close()
}

// RemoteError carries an error string returned by the server.
type RemoteError struct {
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string { return "rpc: remote error: " + e.Message }
