package stream

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"clipper/internal/adapter"
	"clipper/internal/gateway"
	"clipper/internal/rpc"
)

// ErrConnClosed is reported to calls issued on (or stranded by) a dead
// connection.
var ErrConnClosed = errors.New("stream: connection closed")

var reqPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// Conn is a pipelined client connection. Many predicts may be in flight
// at once; each is correlated by a client-assigned ID and its callback
// fires exactly once — with the response, or with the connection's fatal
// error. Safe for concurrent use.
type Conn struct {
	nc      net.Conn
	writeMu sync.Mutex

	mu      sync.Mutex
	pending map[uint64]func(body []byte, err error)
	nextID  uint64
	closed  bool
	err     error

	done chan struct{}
}

// Dial connects to a stream server.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tcp, ok := nc.(*net.TCPConn); ok {
		tcp.SetNoDelay(true)
	}
	c := &Conn{
		nc:      nc,
		pending: make(map[uint64]func([]byte, error)),
		nextID:  1,
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Done closes when the connection dies; Err then reports why.
func (c *Conn) Done() <-chan struct{} { return c.done }

// Err returns the connection's fatal error, nil while alive.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears the connection down. Outstanding callbacks fire with
// ErrConnClosed.
func (c *Conn) Close() error {
	c.fail(ErrConnClosed)
	return nil
}

func (c *Conn) readLoop() {
	r := rpc.NewReader(c.nc)
	for {
		f, err := rpc.ReadFrame(r)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		cb, ok := c.pending[f.ID]
		if ok {
			delete(c.pending, f.ID) // claimed: this response is the one delivery
		}
		c.mu.Unlock()
		if ok {
			switch f.Type {
			case rpc.MsgResponse:
				cb(f.Payload, nil)
			case rpc.MsgError:
				cb(nil, &rpc.RemoteError{Message: string(f.Payload)})
			default:
				cb(nil, errors.New("stream: unexpected frame type"))
			}
		}
		f.Release()
	}
}

// fail kills the connection and fires every still-pending callback
// exactly once with err. Idempotent: only the first fatal error wins.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	pend := c.pending
	c.pending = nil
	c.mu.Unlock()
	c.nc.Close()
	for _, cb := range pend {
		cb(nil, err)
	}
	close(c.done)
}

// send registers cb under a fresh correlation ID and writes the request
// frame. The callback fires exactly once: from the read loop when the
// response lands, from fail if the connection dies first, or inline here
// if the connection is already dead. body aliases a leased frame and is
// only valid for the duration of the callback.
func (c *Conn) send(method rpc.Method, payload []byte, cb func(body []byte, err error)) {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		cb(nil, err)
		return
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = cb
	c.mu.Unlock()

	c.writeMu.Lock()
	err := rpc.WriteFrame(c.nc, &rpc.Frame{ID: id, Type: rpc.MsgRequest, Method: method, Payload: payload})
	c.writeMu.Unlock()
	if err != nil {
		// A broken pipe strands every pipelined call, not just this one.
		c.fail(err)
	}
}

// Go issues a predict without waiting. cb runs on the connection's read
// loop (or the failing goroutine) — it must not block.
func (c *Conn) Go(app, cctx string, input []float64, cb func(gateway.PredictResult, error)) {
	bp := reqPool.Get().(*[]byte)
	buf, err := adapter.AppendPredictRequest((*bp)[:0], app, cctx, input)
	*bp = buf[:0]
	if err != nil {
		reqPool.Put(bp)
		cb(gateway.PredictResult{}, err)
		return
	}
	c.send(adapter.MethodGWPredict, buf, func(body []byte, err error) {
		if err != nil {
			cb(gateway.PredictResult{}, err)
			return
		}
		res, derr := adapter.DecodePredictResult(body)
		cb(res, derr)
	})
	reqPool.Put(bp)
}

// Predict issues a predict and waits for its response (other predicts on
// the connection still overtake it freely).
func (c *Conn) Predict(ctx context.Context, app, cctx string, input []float64) (gateway.PredictResult, error) {
	type outcome struct {
		res gateway.PredictResult
		err error
	}
	ch := make(chan outcome, 1) // buffered: a late callback must not block the read loop
	c.Go(app, cctx, input, func(res gateway.PredictResult, err error) {
		ch <- outcome{res, err}
	})
	select {
	case out := <-ch:
		return out.res, out.err
	case <-ctx.Done():
		return gateway.PredictResult{}, ctx.Err()
	}
}

// Feedback reports ground truth and waits for the ack.
func (c *Conn) Feedback(ctx context.Context, app, cctx string, label int, input []float64) error {
	bp := reqPool.Get().(*[]byte)
	buf, err := adapter.AppendFeedbackRequest((*bp)[:0], app, cctx, int64(label), input)
	*bp = buf[:0]
	if err != nil {
		reqPool.Put(bp)
		return err
	}
	ch := make(chan error, 1)
	c.send(adapter.MethodGWFeedback, buf, func(body []byte, err error) {
		if err == nil {
			_, err = adapter.DecodeStatus(body)
		}
		ch <- err
	})
	reqPool.Put(bp)
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}
