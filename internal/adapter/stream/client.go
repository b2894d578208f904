package stream

import (
	"context"
	"sync"
	"time"

	"clipper/internal/adapter"
	"clipper/internal/gateway"
	"clipper/internal/rpc"
)

// Request encode buffers are pooled: rpc.Client writes the frame in the
// calling goroutine before Go or Call returns, so the buffer is free for
// reuse the moment either does.
var reqPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// maxPooledReqBuf caps the request buffers reqPool retains. One large
// predict grows its buffer to match, and a pooled buffer never shrinks, so
// without the cap it would stay pinned for the life of the process (the
// rpc and container byte pools apply the same 1 MiB rule).
const maxPooledReqBuf = 1 << 20

// putReqBuf returns bp to reqPool holding buf's storage, unless buf grew
// past maxPooledReqBuf: then both are left to the GC and the pool refills
// with default-sized buffers.
func putReqBuf(bp *[]byte, buf []byte) {
	if cap(buf) > maxPooledReqBuf {
		return
	}
	*bp = buf[:0]
	reqPool.Put(bp)
}

// Conn is a client connection to a stream server: the adapter's codec
// over one rpc.Client. Safe for concurrent use. Many requests may be in
// flight at once and complete in any order; Go pipelines a predict behind
// a callback, and the blocking methods are the same wire with a wait, so
// a caller that keeps one request outstanding has a plain
// request/response protocol.
type Conn struct {
	rc *rpc.Client
}

// Dial connects to a stream server.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	rc, err := rpc.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Conn{rc: rc}, nil
}

// Done closes when the connection dies; Err then reports why.
func (c *Conn) Done() <-chan struct{} { return c.rc.Done() }

// Err returns the connection's fatal error, nil while alive.
func (c *Conn) Err() error { return c.rc.Err() }

// Close tears the connection down. Outstanding requests fail with
// rpc.ErrClientClosed.
func (c *Conn) Close() error { return c.rc.Close() }

// Go issues a predict without waiting. cb fires exactly once, on the
// goroutine rpc.Client's completion contract names — it must not block.
func (c *Conn) Go(app, cctx string, input []float64, cb func(gateway.PredictResult, error)) {
	bp := reqPool.Get().(*[]byte)
	buf, err := adapter.AppendPredictRequest((*bp)[:0], app, cctx, input)
	if err != nil {
		putReqBuf(bp, buf)
		cb(gateway.PredictResult{}, err)
		return
	}
	c.rc.Go(adapter.MethodGWPredict, buf, func(p rpc.Payload, err error) {
		if err != nil {
			cb(gateway.PredictResult{}, err)
			return
		}
		res, err := adapter.DecodePredictResult(p.Data)
		p.Release()
		cb(res, err)
	})
	putReqBuf(bp, buf)
}

// Predict runs one prediction and waits for it. Gateway failures come
// back as *gateway.Error carrying the wire status code.
func (c *Conn) Predict(ctx context.Context, app, cctx string, input []float64) (gateway.PredictResult, error) {
	bp := reqPool.Get().(*[]byte)
	buf, err := adapter.AppendPredictRequest((*bp)[:0], app, cctx, input)
	if err != nil {
		putReqBuf(bp, buf)
		return gateway.PredictResult{}, err
	}
	p, err := c.rc.Call(ctx, adapter.MethodGWPredict, buf)
	putReqBuf(bp, buf)
	if err != nil {
		return gateway.PredictResult{}, err
	}
	res, err := adapter.DecodePredictResult(p.Data)
	p.Release()
	return res, err
}

// Feedback reports ground truth and waits for the ack.
func (c *Conn) Feedback(ctx context.Context, app, cctx string, label int, input []float64) error {
	bp := reqPool.Get().(*[]byte)
	buf, err := adapter.AppendFeedbackRequest((*bp)[:0], app, cctx, int64(label), input)
	if err != nil {
		putReqBuf(bp, buf)
		return err
	}
	p, err := c.rc.Call(ctx, adapter.MethodGWFeedback, buf)
	putReqBuf(bp, buf)
	if err != nil {
		return err
	}
	err = adapter.DecodeStatus(p.Data)
	p.Release()
	return err
}
