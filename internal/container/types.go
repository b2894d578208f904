// Package container implements Clipper's model containers: the uniform
// "narrow waist" batch-prediction API (Listing 1 of the paper) behind which
// every model, regardless of framework, is deployed.
//
// A container can run in-process (Loopback, behind the full RPC codec on an
// in-memory pipe; or Local, called directly) or in a separate process
// reached over the lightweight RPC system (Serve / DialConns). The paper
// hosts each container in Docker; here process- or goroutine-level
// isolation behind the same RPC boundary preserves the architectural
// property under study — that Clipper only ever talks to models through
// batched RPCs.
//
// Remote is the serving-node-side handle to a deployed replica. It speaks
// to the container through one rpc.Pool of multiplexed connections
// (DialConns): one connection is the paper's configuration, more overlap
// concurrent batch transfers, and at any size a lost connection is
// redialed with backoff. Predictor
// implementations must tolerate concurrent PredictBatch calls: the
// batching pipeline keeps several batches in flight per replica.
package container

import (
	"errors"
	"fmt"
)

// Prediction is one model output: a class label plus optional per-class
// scores (used by score-combining selection policies and confidence
// estimation).
type Prediction struct {
	// Label is the predicted class.
	Label int
	// Scores optionally holds one score per class; nil when the model
	// exposes labels only.
	Scores []float64
}

// Info describes a deployed model.
type Info struct {
	// Name identifies the model, e.g. "sklearn-linear-svm".
	Name string
	// Version distinguishes redeployments of the same model name.
	Version int
	// InputDim is the expected feature dimensionality; 0 means any.
	InputDim int
	// NumClasses is the label cardinality.
	NumClasses int
}

// String renders "name:vN".
func (i Info) String() string { return fmt.Sprintf("%s:v%d", i.Name, i.Version) }

// Predictor is the common batch prediction interface for model containers —
// the Go rendering of the paper's Listing 1:
//
//	interface Predictor<X,Y> { List<List<Y>> pred_batch(List<X> inputs); }
//
// Implementations must be safe for concurrent use: the batching queue's
// dispatch pipeline keeps up to QueueConfig.InFlight batches (unpinned: up
// to 16) concurrently in flight per replica.
type Predictor interface {
	// Info returns the model's identity and shape.
	Info() Info
	// PredictBatch computes one prediction per input. It must return
	// either len(xs) predictions or an error.
	PredictBatch(xs [][]float64) ([]Prediction, error)
}

// ViewPredictor is the second predictor shape, and the form every
// internal path speaks: a batch arrives as one flat row-major tensor and
// the outputs are written straight into a flat PredictionView, so a
// request flows payload → BatchView → flat score tensor → wire with no
// per-query Prediction structs or score slices on either side. Handler
// and the batching queue detect it by method presence; a plain Predictor
// is brought to this shape once, at construction, by asView.
type ViewPredictor interface {
	Predictor
	// PredictView fills out with exactly one prediction per row of v —
	// identical labels and scores, bit for bit, to what PredictBatch
	// returns for the equivalent [][]float64 input. Both views are pooled:
	// v (its Data and every Row slice) is valid only for the duration of
	// the call, and out must not be retained or aliased after return.
	// Implementations start from out.Reset() or out.Size(...) — the view
	// arrives holding a previous batch's data.
	PredictView(v BatchView, out *PredictionView) error
}

// errContainerClosed is returned by predictions issued to a closed
// container.
var errContainerClosed = errors.New("container: closed")

// validate checks that preds matches the batch size n, guarding against
// misbehaving model containers.
func validate(preds []Prediction, n int) error { return checkCount(len(preds), n) }

// checkCount is the container contract — exactly one prediction per
// input — in whichever form the predictions are held.
func checkCount(got, want int) error {
	if got != want {
		return fmt.Errorf("container: got %d predictions for %d inputs", got, want)
	}
	return nil
}

// Replica is one deployed copy of a model container. Clipper batches
// independently per replica (paper §4.4.1) because replicas can have
// different performance characteristics.
type Replica struct {
	// ID uniquely names this replica, e.g. "sklearn-svm:v1/0".
	ID string
	// Pred is the replica's prediction handle (local loopback or remote).
	Pred Predictor
	// Stop releases the replica's resources. May be nil.
	Stop func()
}
