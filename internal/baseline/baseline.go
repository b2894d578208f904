// Package baseline implements a TensorFlow-Serving-like prediction server
// (paper §6): a single model, tightly coupled in-process (no container
// RPC, no cross-process serialization), with a statically sized batch queue
// dispatched by a pure timeout mechanism and no latency-SLO awareness.
//
// The paper compares Clipper to TensorFlow Serving on three object
// recognition models and finds near-parity; this baseline reproduces the
// architectural contrasts the comparison measures: static vs adaptive
// batching, and in-process model evaluation vs decoupled containers.
package baseline

import (
	"context"
	"time"

	"clipper/internal/batching"
	"clipper/internal/container"
	"clipper/internal/metrics"
)

// batchTimeout is the starvation-avoidance timeout: a non-full batch
// dispatches after this delay.
const batchTimeout = 5 * time.Millisecond

// TFServing is the baseline serving system. It reuses the batching queue
// machinery with a Fixed controller — precisely TensorFlow Serving's
// static-batch, timeout-dispatched design — but evaluates the model
// in-process with no RPC boundary.
type TFServing struct {
	queue *batching.Queue
	model container.Predictor

	// Latency is the end-to-end request latency histogram; its count is
	// the completed predictions.
	Latency *metrics.Histogram
}

// New returns a baseline server over the in-process model with a
// hand-tuned static batch size (the paper uses 512 for MNIST, 128 for
// CIFAR, 16 for ImageNet); sizes below 1 select 1.
func New(model container.Predictor, batchSize int) *TFServing {
	return &TFServing{
		queue: batching.NewQueue(model, batching.QueueConfig{
			Controller:   batching.NewFixed(batchSize),
			BatchTimeout: batchTimeout,
			InFlight:     1, // TF Serving executes one batch at a time
		}),
		model:   model,
		Latency: metrics.NewHistogram(),
	}
}

// Predict renders one prediction, blocking until its batch completes.
func (s *TFServing) Predict(ctx context.Context, x []float64) (container.Prediction, error) {
	start := time.Now()
	p, err := s.queue.Submit(ctx, x)
	if err != nil {
		return container.Prediction{}, err
	}
	s.Latency.ObserveDuration(time.Since(start))
	return p, nil
}

// Queue exposes the underlying batch queue's telemetry.
func (s *TFServing) Queue() *batching.Queue { return s.queue }

// Close shuts the server down.
func (s *TFServing) Close() { s.queue.Close() }
