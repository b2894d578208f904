package core

import (
	"fmt"

	"clipper/internal/batching"
	"clipper/internal/container"
)

// SwapModel atomically replaces every replica of a deployed model with a
// new version — the paper's core deployment promise: "models can be
// modified or swapped transparently to the application". The new
// predictor must carry the same model name with a strictly newer Version.
//
// Correctness across the swap is cache-driven: prediction-cache keys
// include the model version, so entries cached under the old version are
// never served for the new one, with no explicit invalidation (§4.2).
// Queries already queued on the old replicas complete against the old
// version; new queries route to the new replicas.
func (cl *Clipper) SwapModel(pred container.Predictor, stop func(), qcfg batching.QueueConfig) (*container.Replica, error) {
	info := pred.Info()
	cl.mu.Lock()
	old, deployed := cl.infos[info.Name]
	if !deployed {
		cl.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, info.Name)
	}
	if info.Version <= old.Version {
		cl.mu.Unlock()
		return nil, fmt.Errorf("core: swap of %q needs version > v%d, got v%d",
			info.Name, old.Version, info.Version)
	}
	// Stage the new replica first so the model never has zero replicas.
	s := cl.scheds[info.Name]
	rep := &container.Replica{
		ID:   fmt.Sprintf("%s/%d", info.String(), s.size()),
		Pred: pred,
		Stop: stop,
	}
	rq := newReplicaQueue(rep, batching.NewQueue(pred, qcfg))
	retired := s.replaceAll(rq)
	// After the replicas: a racing gather may cache the new replica's answer
	// under the old version (never read again), not the reverse.
	s.version.Store(int64(info.Version))
	cl.infos[info.Name] = info
	cl.mu.Unlock()

	// Drain the old replicas outside the lock; queued work completes.
	for _, orq := range retired {
		orq.queue.Close()
		if orq.replica.Stop != nil {
			orq.replica.Stop()
		}
	}
	return rep, nil
}
