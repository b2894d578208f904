package container

import (
	"context"
	"io"
	"sync"
	"time"

	"clipper/internal/rpc"
)

// Remote is a Predictor backed by one or more RPC connections to a
// container process. It is the Clipper-side handle to a deployed model
// replica.
type Remote struct {
	client rpc.Caller
	info   Info

	mu     sync.Mutex
	closed bool
}

var _ Predictor = (*Remote)(nil)

// Dial connects to a model container server at addr and fetches its Info.
// The Remote multiplexes every batch over a single connection — the
// paper-faithful configuration; see DialConns for connection pooling.
func Dial(addr string, timeout time.Duration) (*Remote, error) {
	c, err := rpc.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return newRemote(c)
}

// DialConns is Dial with a per-replica connection pool: conns RPC
// connections to the container, with batch frames round-robined across
// them and lost connections redialed in the background (rpc.Pool). conns
// <= 1 is exactly Dial — one connection, no pool machinery, no redial.
// More connections keep large batch transfers from head-of-line-blocking
// each other on high-bandwidth links.
func DialConns(addr string, timeout time.Duration, conns int) (*Remote, error) {
	if conns <= 1 {
		return Dial(addr, timeout)
	}
	p, err := rpc.DialPool(addr, timeout, conns)
	if err != nil {
		return nil, err
	}
	return newRemote(p)
}

// NewRemoteConn wraps an established connection (e.g. a simulated
// bandwidth-limited link) as a Remote.
func NewRemoteConn(conn io.ReadWriteCloser) (*Remote, error) {
	return newRemote(rpc.NewClient(conn))
}

// NewRemotePool is NewRemoteConn's pooled variant for connections that are
// not plain TCP dials (simulated links, tests): dial is invoked conns
// times up front and again whenever a pooled connection dies. conns <= 1
// collapses to a single plain connection without pool machinery.
func NewRemotePool(dial func() (io.ReadWriteCloser, error), conns int) (*Remote, error) {
	if conns <= 1 {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return NewRemoteConn(conn)
	}
	p, err := rpc.NewPool(rpc.PoolConfig{Conns: conns, Dial: dial})
	if err != nil {
		return nil, err
	}
	return newRemote(p)
}

func newRemote(c rpc.Caller) (*Remote, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	raw, err := c.Call(ctx, rpc.MethodInfo, nil)
	if err != nil {
		c.Close()
		return nil, err
	}
	info, err := DecodeInfo(raw.Data)
	raw.Release() // DecodeInfo copied everything out
	if err != nil {
		c.Close()
		return nil, err
	}
	return &Remote{client: c, info: info}, nil
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
		return ErrContainerClosed
	}
	buf := encBufPool.Get().(*[]byte)
	payload := AppendBatchView((*buf)[:0], v)
	raw, err := r.client.Call(ctx, rpc.MethodPredict, payload)
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
	return r.client.Ping(ctx)
}

// PoolStats snapshots the replica's connection telemetry. A pooled Remote
// reports its rpc.Pool aggregate; a single-connection Remote reports a
// pool-of-one view synthesized from its client, so consumers (the
// adaptive controller, the admin replicas endpoint) see one shape either
// way.
func (r *Remote) PoolStats() rpc.PoolStats {
	switch c := r.client.(type) {
	case *rpc.Pool:
		return c.Stats()
	case *rpc.Client:
		cs := c.Stats()
		st := rpc.PoolStats{
			Conns:         1,
			Target:        1,
			BytesInFlight: cs.BytesInFlight,
			Writes:        cs.Writes,
			WriteQueued:   cs.WriteQueued,
			WriteWait:     cs.WriteWait,
		}
		if cs.Alive {
			st.Live = 1
		}
		return st
	default:
		return rpc.PoolStats{}
	}
}

// ConnHealth reports the replica's live vs total RPC connections from
// atomic loads and channel polls only — the cross-replica scheduler
// reads it on every dispatch to weight a degraded pool's cost estimate.
// (PoolStats reports the same numbers plus write telemetry, at the price
// of walking every slot's counters.)
func (r *Remote) ConnHealth() (live, total int) {
	switch c := r.client.(type) {
	case *rpc.Pool:
		return c.LiveConns()
	case *rpc.Client:
		if c.Alive() {
			return 1, 1
		}
		return 0, 1
	default:
		return 0, 0
	}
}

// SetPoolTarget sets the connection pool's routing target, clamped to
// [1, Conns], and returns the applied value. On a single-connection
// Remote it is a no-op returning 1. This is the adaptive controller's
// pool control surface (batching.PoolTuner).
func (r *Remote) SetPoolTarget(n int) int {
	if p, ok := r.client.(*rpc.Pool); ok {
		return p.SetTarget(n)
	}
	return 1
}

// Close tears down the connection.
func (r *Remote) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return r.client.Close()
}

// Loopback hosts p behind an in-memory duplex pipe and returns a Remote
// that reaches it through the full RPC codec path. This is how "local"
// containers are deployed: even in-process models cross the narrow waist,
// as the paper's architecture requires.
func Loopback(p Predictor) (*Remote, func(), error) {
	srvConn, cliConn := newDuplexPipe()
	srv := rpc.NewServer(Handler(p))
	go srv.ServeConn(srvConn)
	r, err := NewRemoteConn(cliConn)
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
