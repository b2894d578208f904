package container

import (
	"context"
	"io"
	"net"
	"sync"
	"time"

	"clipper/internal/rpc"
)

// Remote is a Predictor backed by a pool of RPC connections (rpc.Pool, one
// connection or more) to a container process. It is the Clipper-side
// handle to a deployed model replica.
type Remote struct {
	pool *rpc.Pool
	info Info

	mu     sync.Mutex
	closed bool
}

var _ Predictor = (*Remote)(nil)

// DialConns connects conns RPC connections (0 selects 1) to a model
// container server at addr and fetches its Info. Batch frames round-robin
// across the live connections and a lost one is redialed with backoff
// (rpc.Pool), so a one-connection replica survives a dropped socket too.
// One connection is the paper's configuration (§4.4); more keep large
// batch transfers from head-of-line-blocking each other on
// high-bandwidth links.
func DialConns(addr string, timeout time.Duration, conns int) (*Remote, error) {
	p, err := rpc.DialPool(addr, timeout, conns)
	if err != nil {
		return nil, err
	}
	return newRemote(p)
}

// NewRemotePool is DialConns for connections that are not plain TCP dials
// (in-memory pipes, simulated links, tests): dial is invoked conns times up
// front and again whenever a connection dies.
func NewRemotePool(dial func() (io.ReadWriteCloser, error), conns int) (*Remote, error) {
	p, err := rpc.NewPool(rpc.PoolConfig{Conns: conns, Dial: dial})
	if err != nil {
		return nil, err
	}
	return newRemote(p)
}

func newRemote(p *rpc.Pool) (*Remote, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	raw, err := p.Call(ctx, rpc.MethodInfo, nil)
	if err != nil {
		p.Close()
		return nil, err
	}
	info, err := decodeInfo(raw.Data)
	raw.Release() // decodeInfo copied everything out
	if err != nil {
		p.Close()
		return nil, err
	}
	return &Remote{pool: p, info: info}, nil
}

// Info implements Predictor.
func (r *Remote) Info() Info { return r.info }

// PredictBatch implements Predictor, issuing one RPC per batch.
func (r *Remote) PredictBatch(xs [][]float64) ([]Prediction, error) {
	return r.PredictBatchContext(context.Background(), xs)
}

// PredictBatchContext is PredictBatch with caller-controlled
// cancellation. Rows go out through PredictViewContext, the one path to
// the wire.
func (r *Remote) PredictBatchContext(ctx context.Context, xs [][]float64) ([]Prediction, error) {
	return viaView(xs, func(v *BatchView, deliver func(int, Prediction)) error {
		return r.PredictViewContext(ctx, v, deliver)
	})
}

// encBufPool recycles batch-encoding buffers across RPCs: the request
// payload is fully written before Call returns, so the buffer is safe to
// reuse immediately after.
var encBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// maxPooledEncBuf caps the encode buffers encBufPool retains. One huge
// batch grows its buffer to match, and a pooled buffer never shrinks —
// without the cap a single outlier batch would pin megabytes in the pool
// for the life of the process (the rpc body pools apply the same rule on
// the read side).
const maxPooledEncBuf = 1 << 20

// putEncBuf returns an encode buffer to encBufPool, unless the batch just
// encoded grew it past maxPooledEncBuf — oversized buffers are dropped for
// the GC and the pool refills with default-sized ones. Reports whether the
// buffer was pooled (exercised by the retention regression test).
func putEncBuf(buf *[]byte, b []byte) bool {
	if cap(b) > maxPooledEncBuf {
		return false
	}
	*buf = b[:0]
	encBufPool.Put(buf)
	return true
}

// PredictViewContext sends a flat-collected batch and scatters the
// decoded results straight into the caller's slots: deliver is invoked
// exactly once per row, in row order, if and only if the call succeeds —
// on error no deliver call has been made. This is the tensor-native data
// plane end to end: the batch view encodes into a pooled buffer with no
// per-query rows (AppendBatchView), and the response decodes into a
// pooled PredictionView whose labels and scores scatter to the caller
// before the frame lease is released.
//
// Scores handed to deliver are caller-owned copies sharing one per-batch
// backing array; label-only responses allocate nothing. The view v is
// fully encoded before PredictViewContext uses the wire, so the caller
// may reuse it as soon as the call returns.
func (r *Remote) PredictViewContext(ctx context.Context, v *BatchView, deliver func(i int, p Prediction)) error {
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return errContainerClosed
	}
	buf := encBufPool.Get().(*[]byte)
	payload := AppendBatchView((*buf)[:0], v)
	raw, err := r.pool.Call(ctx, rpc.MethodPredict, payload)
	putEncBuf(buf, payload)
	if err != nil {
		return err
	}
	pv := getPredView()
	err = DecodePredictionView(raw.Data, pv)
	// Client-side release point: DecodePredictionView copied every label
	// and score out of the frame body into the pooled view, so the lease
	// ends here — before validation and the scatter, neither of which
	// touches the payload.
	raw.Release()
	if err == nil {
		err = checkCount(pv.Count(), v.Rows())
	}
	if err == nil {
		pv.scatter(deliver)
	}
	putPredView(pv)
	return err
}

// Ping checks container liveness.
func (r *Remote) Ping(ctx context.Context) error {
	return r.pool.Ping(ctx)
}

// PoolStats snapshots the replica's connection telemetry (rpc.Pool.Stats).
func (r *Remote) PoolStats() rpc.PoolStats { return r.pool.Stats() }

// ConnHealth reports the replica's live vs total RPC connections from
// atomic loads and channel polls only — the cross-replica scheduler
// reads it on every dispatch to weight a degraded pool's cost estimate.
// (PoolStats reports the same numbers plus write telemetry, at the price
// of walking every slot's counters.)
func (r *Remote) ConnHealth() (live, total int) { return r.pool.LiveConns() }

// Close tears down the connections.
func (r *Remote) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return r.pool.Close()
}

// Loopback hosts p behind an in-memory duplex pipe and returns a Remote
// that reaches it through the full RPC codec path. This is how "local"
// containers are deployed: even in-process models cross the narrow waist,
// as the paper's architecture requires. Each dial — the first, and any
// redial — is a fresh net.Pipe served by the same rpc.Server; the RPC
// layer's dedicated reader goroutines make the synchronous pipe safe.
func Loopback(p Predictor) (*Remote, func(), error) {
	srv := rpc.NewServer(Handler(p))
	r, err := NewRemotePool(func() (io.ReadWriteCloser, error) {
		cli, conn := net.Pipe()
		go srv.ServeConn(conn)
		return cli, nil
	}, 1)
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	stop := func() {
		r.Close()
		srv.Close()
	}
	return r, stop, nil
}
