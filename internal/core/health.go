package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// The paper isolates models in containers precisely so that "variability
// in performance and stability of relatively immature ... frameworks does
// not interfere with the overall availability of Clipper" (§4.4). This
// file adds the operational half of that promise: replica health tracking,
// so failed containers are routed around and rediscovered when they
// recover.

// pinger is implemented by predictors that support liveness probes
// (container.Remote does).
type pinger interface {
	Ping(ctx context.Context) error
}

// replicaHealth tracks one replica's availability.
type replicaHealth struct {
	healthy  atomic.Bool
	failures atomic.Int32 // consecutive probe/prediction failures
}

const (
	// probeTimeout bounds one liveness probe.
	probeTimeout = 500 * time.Millisecond
	// failureThreshold is the number of consecutive failures before a
	// replica is marked unhealthy.
	failureThreshold = 3
)

// HealthMonitor periodically probes every replica that implements pinger
// and marks replicas unhealthy after consecutive failures. Unhealthy
// replicas are skipped by query routing until a probe succeeds again.
type HealthMonitor struct {
	cl       *Clipper
	interval time.Duration

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartHealthMonitor begins probing every interval (0 selects 1s). Call
// Stop to halt it.
func (cl *Clipper) StartHealthMonitor(interval time.Duration) *HealthMonitor {
	if interval <= 0 {
		interval = time.Second
	}
	m := &HealthMonitor{
		cl:       cl,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go m.run()
	return m
}

func (m *HealthMonitor) run() {
	defer close(m.done)
	ticker := time.NewTicker(m.interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			m.probeOnce()
		}
	}
}

// probeOnce probes every replica once.
func (m *HealthMonitor) probeOnce() {
	m.cl.mu.Lock()
	var targets []*replicaQueue
	for _, s := range m.cl.scheds {
		targets = append(targets, s.snapshot()...)
	}
	m.cl.mu.Unlock()

	var wg sync.WaitGroup
	for _, rq := range targets {
		p, ok := rq.replica.Pred.(pinger)
		if !ok {
			continue // unprobeable replicas are assumed healthy
		}
		wg.Add(1)
		go func(rq *replicaQueue, p pinger) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			defer cancel()
			if err := p.Ping(ctx); err != nil {
				if int(rq.health.failures.Add(1)) >= failureThreshold {
					rq.health.healthy.Store(false)
				}
				return
			}
			rq.health.failures.Store(0)
			rq.health.healthy.Store(true)
		}(rq, p)
	}
	wg.Wait()
}

// Stop halts probing.
func (m *HealthMonitor) Stop() {
	m.once.Do(func() { close(m.stop) })
	<-m.done
}

// MarkUnhealthy forces a replica down (admin action / external detector).
// It reports whether the replica was found.
func (cl *Clipper) MarkUnhealthy(replicaID string) bool {
	return cl.setHealth(replicaID, false)
}

// MarkHealthy forces a replica back up.
func (cl *Clipper) MarkHealthy(replicaID string) bool {
	return cl.setHealth(replicaID, true)
}

func (cl *Clipper) setHealth(replicaID string, healthy bool) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, s := range cl.scheds {
		for _, rq := range s.snapshot() {
			if rq.replica.ID == replicaID {
				rq.health.healthy.Store(healthy)
				if healthy {
					rq.health.failures.Store(0)
				}
				return true
			}
		}
	}
	return false
}
