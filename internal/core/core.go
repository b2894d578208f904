// Package core implements the Clipper serving system itself: the
// orchestration of the model selection layer (selection policies, per-
// context state, straggler mitigation) above the model abstraction layer
// (prediction cache, adaptive batching queues, model-container replicas),
// as described in §3–§5 of the paper.
//
// A Clipper owns deployed model replicas and named applications. The
// prediction path is:
//
//	Application.Predict
//	  → policy.Select chooses model(s)
//	  → per model: prediction cache (request/fetch) → adaptive batch queue
//	    → container RPC
//	  → straggler mitigation at the latency deadline
//	  → policy.Combine renders the final prediction + confidence
//
// and the feedback path joins feedback with cached predictions and folds it
// into the per-context selection state (policy.Observe), persisted in the
// external state store.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clipper/internal/batching"
	"clipper/internal/cache"
	"clipper/internal/container"
	"clipper/internal/metrics"
	"clipper/internal/statestore"
)

// Config parameterizes a Clipper instance. Zero values select defaults.
type Config struct {
	// CacheSize is the prediction cache capacity in entries; 0 selects
	// 65536. Negative disables caching entirely (used by the cache
	// ablation benchmark).
	CacheSize int
	// Store holds per-context selection state; nil selects an in-memory
	// store.
	Store statestore.Store
	// Scheduler configures cross-replica dispatch: join-shortest-queue
	// cost routing and straggler hedging (see scheduler.go / hedge.go).
	// The zero value selects JSQ with hedging off — identical to the old
	// round-robin for single-replica models and for replicas that have
	// not priced themselves yet.
	Scheduler SchedulerConfig
}

// Clipper is one serving node: a registry of model replicas with their
// batching queues, a shared prediction cache, and the applications that
// query them.
type Clipper struct {
	cache    *cache.Cache // nil when caching disabled
	store    statestore.Store
	schedCfg SchedulerConfig
	prom     *metrics.Registry

	// apps is copy-on-write: RegisterApp publishes a new map under mu, and
	// readers — App sits on every request's path — load it without a lock.
	apps atomic.Pointer[map[string]*Application]

	mu     sync.Mutex
	scheds map[string]*scheduler     // model name -> replica scheduler
	infos  map[string]container.Info // model name -> info
	closed bool
}

// New returns a Clipper with the given configuration.
func New(cfg Config) *Clipper {
	var c *cache.Cache
	if cfg.CacheSize >= 0 {
		size := cfg.CacheSize
		if size == 0 {
			size = 65536
		}
		c = cache.New(size)
	}
	store := cfg.Store
	if store == nil {
		store = statestore.NewMemStore()
	}
	cl := &Clipper{
		cache:    c,
		store:    store,
		schedCfg: cfg.Scheduler,
		prom:     metrics.NewRegistry(),
		scheds:   make(map[string]*scheduler),
		infos:    make(map[string]container.Info),
	}
	cl.apps.Store(&map[string]*Application{})
	// Exposition wiring (prom.go): families registered once here; their
	// collectors enumerate replicas/apps at scrape time, so later Deploy
	// and RegisterApp calls surface with no per-deploy registration.
	cl.registerCollectors()
	return cl
}

// errClosed is returned by operations on a closed Clipper.
var errClosed = errors.New("core: clipper closed")

// errUnknownModel is returned when deploying an app over an undeployed
// model.
var errUnknownModel = errors.New("core: unknown model")

// Deploy is how a model version reaches serving. The model's name and
// version come from the predictor's Info, and each replica runs behind its
// own adaptive batching queue. stop, if non-nil, releases the replica's
// resources when it retires or on Close.
//
//   - A new name, or the deployed version again, adds a replica (paper
//     §4.4.1).
//   - A strictly newer version rolls the model over: the new replica is
//     staged, replaces every replica and bumps the cache-key version in one
//     step, so the model never has zero replicas and no entry cached under
//     the old version is served for the new one (§4.2), with no explicit
//     invalidation. Queries already queued on the retired replicas complete
//     against the old version while those queues drain.
//   - An older version is refused.
func (cl *Clipper) Deploy(pred container.Predictor, stop func(), qcfg batching.QueueConfig) (*container.Replica, error) {
	info := pred.Info()
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, errClosed
	}
	existing, deployed := cl.infos[info.Name]
	if deployed && info.Version < existing.Version {
		cl.mu.Unlock()
		return nil, fmt.Errorf("core: model %q version conflict: deployed v%d, got older v%d",
			info.Name, existing.Version, info.Version)
	}
	s := cl.scheds[info.Name]
	if s == nil {
		s = newScheduler(info.Name, cl.schedCfg)
		cl.scheds[info.Name] = s
	}
	rep := &container.Replica{
		ID:   fmt.Sprintf("%s/%d", info.String(), s.deployed),
		Pred: pred,
		Stop: stop,
	}
	s.deployed++
	rq := newReplicaQueue(rep, batching.NewQueue(pred, qcfg))
	var retired []*replicaQueue
	if deployed && info.Version > existing.Version {
		retired = s.replaceAll(rq)
	} else {
		s.add(rq)
	}
	// After the replicas: a racing gather may cache the new replica's answer
	// under the old version (never read again), not the reverse.
	s.version.Store(int64(info.Version))
	cl.infos[info.Name] = info
	cl.mu.Unlock()

	// Drain the retired replicas outside the lock; queued work completes.
	for _, orq := range retired {
		orq.queue.Close()
		if orq.replica.Stop != nil {
			orq.replica.Stop()
		}
	}
	return rep, nil
}

// DeployRemote dials a model container at addr and deploys it as a
// replica behind an adaptive batching queue. conns sets the replica's RPC
// connection count (rpc.Pool, 0 selects 1 — the paper's configuration):
// batches round-robin across the live connections, and a lost connection
// fails over to the survivors while it is redialed. The replica's
// connections are closed when the replica stops.
func (cl *Clipper) DeployRemote(addr string, timeout time.Duration, conns int, qcfg batching.QueueConfig) (*container.Replica, error) {
	remote, err := container.DialConns(addr, timeout, conns)
	if err != nil {
		return nil, err
	}
	rep, err := cl.Deploy(remote, func() { remote.Close() }, qcfg)
	if err != nil {
		remote.Close()
		return nil, err
	}
	return rep, nil
}

// Models returns the names of deployed models.
func (cl *Clipper) Models() []string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	names := make([]string, 0, len(cl.scheds))
	for name := range cl.scheds {
		names = append(names, name)
	}
	return names
}

// ModelInfo returns the Info of a deployed model.
func (cl *Clipper) ModelInfo(name string) (container.Info, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	info, ok := cl.infos[name]
	return info, ok
}

// ReplicaQueues returns the batching queues of a model's replicas, for
// telemetry inspection by benchmarks.
func (cl *Clipper) ReplicaQueues(model string) []*batching.Queue {
	rqs := cl.modelReplicas(model)
	qs := make([]*batching.Queue, 0, len(rqs))
	for _, rq := range rqs {
		qs = append(qs, rq.queue)
	}
	return qs
}

// modelReplicas snapshots a model's replica set (empty for unknown
// models). The returned slice is copy-on-write — safe to iterate, never
// mutate.
func (cl *Clipper) modelReplicas(model string) []*replicaQueue {
	cl.mu.Lock()
	s := cl.scheds[model]
	cl.mu.Unlock()
	if s == nil {
		return nil
	}
	return s.snapshot()
}

// Cache returns the prediction cache (nil when disabled).
func (cl *Clipper) Cache() *cache.Cache { return cl.cache }

// Store returns the selection-state store.
func (cl *Clipper) Store() statestore.Store { return cl.store }

// Close shuts down all applications, queues and replicas.
func (cl *Clipper) Close() {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return
	}
	cl.closed = true
	scheds := cl.scheds
	cl.scheds = make(map[string]*scheduler)
	cl.mu.Unlock()
	for _, s := range scheds {
		for _, rq := range s.snapshot() {
			rq.queue.Close()
			if rq.replica.Stop != nil {
				rq.replica.Stop()
			}
		}
	}
	cl.store.Close()
}
