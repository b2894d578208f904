package container

import (
	"fmt"
	"sync"

	"clipper/internal/rpc"
)

// viewPool recycles the BatchViews the handler decodes tensor batches
// into, so the steady-state tensor path allocates neither the view nor
// (after warm-up) its backing arrays.
var viewPool = sync.Pool{
	New: func() any { return new(BatchView) },
}

// maxPooledViewFloats caps the backing arrays a pooled view may retain —
// the same ~1 MiB retention rule as putEncBuf and the rpc body pools: a
// single giant batch must not pin a giant tensor in the pool forever.
// The offsets table is capped too (same element size): a batch of
// millions of zero-length rows grows offsets, not Data.
const maxPooledViewFloats = maxPooledEncBuf / 8

// GetBatchView leases an empty BatchView from the shared pool. It is the
// producer-side twin of the handler's decode views: the batching queue's
// flat collector accumulates each batch into one (AppendRow), sends it,
// and returns it with PutBatchView once the batch has delivered.
func GetBatchView() *BatchView {
	v := viewPool.Get().(*BatchView)
	v.Reset()
	return v
}

// PutBatchView returns a leased view to the shared pool, subject to the
// same 1 MiB retention cap as every pooled buffer in the data plane.
// Reports whether the view was pooled (exercised by the retention
// regression test).
func PutBatchView(v *BatchView) bool {
	if cap(v.Data) > maxPooledViewFloats || cap(v.offsets) > maxPooledViewFloats {
		return false
	}
	viewPool.Put(v)
	return true
}

// Handler adapts a Predictor to the RPC server's handler signature,
// implementing the container side of the narrow-waist protocol. There is
// one predict path: payload → pooled BatchView → PredictView into a
// pooled PredictionView → encoded straight from the flat response tensor
// into the server's scratch; a row-slice predictor reaches it through
// asView, bound here once. The path copies the payload out before
// returning and appends its response into the server's pooled scratch,
// satisfying both sides of the rpc.Handler payload-lifetime contract.
func Handler(p Predictor) rpc.Handler {
	vp := asView(p)
	return func(method rpc.Method, payload, scratch []byte) ([]byte, error) {
		switch method {
		case rpc.MethodPredict:
			return predict(vp, payload, scratch)
		case rpc.MethodInfo:
			return encodeInfo(p.Info()), nil
		default:
			return nil, fmt.Errorf("container: unknown method %d", method)
		}
	}
}

// checkViewDim validates a decoded batch's row widths against the model's
// advertised input dimensionality, naming the first offending query.
func checkViewDim(v *BatchView, info Info) error {
	if dim := info.InputDim; dim > 0 && v.Rows() > 0 && v.Dim() != dim {
		for i := 0; i < v.Rows(); i++ {
			if n := len(v.Row(i)); n != dim {
				return fmt.Errorf("container: query %d has dim %d, model %s wants %d",
					i, n, info.Name, dim)
			}
		}
	}
	return nil
}

// predict serves one predict request. With a native ViewPredictor the
// steady state allocates nothing.
func predict(vp ViewPredictor, payload, scratch []byte) ([]byte, error) {
	v := GetBatchView()
	defer PutBatchView(v)
	if err := DecodeBatchView(payload, v); err != nil {
		return nil, err
	}
	// One Info lookup per batch, never per query: for some predictors it
	// is an interface call behind a lock.
	if err := checkViewDim(v, vp.Info()); err != nil {
		return nil, err
	}
	out := getPredView()
	defer putPredView(out)
	if err := predictInto(vp, v, out); err != nil {
		return nil, err
	}
	return AppendPredictionView(scratch, out), nil
}

// Serve hosts p as an RPC model container listening on addr (":0" picks a
// free port) and returns the bound address and the server for shutdown.
func Serve(p Predictor, addr string) (string, *rpc.Server, error) {
	srv := rpc.NewServer(Handler(p))
	bound, err := srv.Listen(addr)
	if err != nil {
		return "", nil, err
	}
	return bound, srv, nil
}
