// Package simnet simulates the cluster network of the paper's scaling
// experiment (§4.4.1, Figure 6): model-container replicas reached over a
// shared switch at either 10 Gbps or 1 Gbps.
//
// A Fabric owns a token-bucket byte budget representing the serving node's
// NIC; every link created from the fabric draws from that shared budget, so
// aggregate cross-machine traffic saturates exactly as a single physical
// uplink would. Links carry real serialized RPC bytes — the same frames the
// production path uses — with optional propagation delay.
package simnet

import (
	"io"
	"net"
	"sync"
	"time"

	"clipper/internal/kick"
)

// Gbps converts gigabits per second to bytes per second.
func Gbps(g float64) float64 { return g * 1e9 / 8 }

// limiter is a shared-wire rate limiter: Reserve(n) books n bytes of
// transfer time on the wire and returns how long the caller must wait for
// its transfer to complete. Reservations serialize, modeling a shared
// full-duplex uplink direction.
type limiter struct {
	mu          sync.Mutex
	bytesPerSec float64
	nextFree    time.Time
}

// newLimiter returns a limiter for a wire of the given capacity in bytes
// per second. Non-positive capacity means unlimited.
func newLimiter(bytesPerSec float64) *limiter {
	return &limiter{bytesPerSec: bytesPerSec}
}

// Reserve books n bytes and returns the wait until the transfer completes.
func (l *limiter) Reserve(n int) time.Duration {
	if l == nil || l.bytesPerSec <= 0 || n <= 0 {
		return 0
	}
	d := time.Duration(float64(n) / l.bytesPerSec * float64(time.Second))
	now := time.Now()
	l.mu.Lock()
	if l.nextFree.Before(now) {
		l.nextFree = now
	}
	l.nextFree = l.nextFree.Add(d)
	wait := l.nextFree.Sub(now)
	l.mu.Unlock()
	return wait
}

// Fabric models one serving node's network: all links share its uplink and
// downlink budgets.
type Fabric struct {
	up      *limiter // node -> containers (queries)
	down    *limiter // containers -> node (predictions)
	latency time.Duration
}

// NewFabric returns a fabric with the given per-direction capacity in
// bytes per second (use Gbps) and one-way propagation latency.
func NewFabric(bytesPerSec float64, latency time.Duration) *Fabric {
	return &Fabric{
		up:      newLimiter(bytesPerSec),
		down:    newLimiter(bytesPerSec),
		latency: latency,
	}
}

// NewLink returns a connected pair of endpoints crossing the fabric:
// nodeEnd is held by the serving node (writes consume uplink budget),
// containerEnd by the remote container (writes consume downlink budget).
func (f *Fabric) NewLink() (nodeEnd, containerEnd io.ReadWriteCloser) {
	a, b := net.Pipe()
	nodeEnd = &pacedConn{inner: a, limiter: f.up, latency: f.latency}
	containerEnd = &pacedConn{inner: b, limiter: f.down, latency: f.latency}
	return nodeEnd, containerEnd
}

// pacedConn delays writes according to the shared limiter plus propagation
// latency, then forwards them to the underlying in-memory pipe.
type pacedConn struct {
	inner   net.Conn
	limiter *limiter
	latency time.Duration
}

// Write books wire time for p and blocks until the simulated transfer
// completes before delivering the bytes.
func (c *pacedConn) Write(p []byte) (int, error) {
	kick.SleepUntil(time.Now().Add(c.limiter.Reserve(len(p)) + c.latency))
	return c.inner.Write(p)
}

// Read implements io.Reader.
func (c *pacedConn) Read(p []byte) (int, error) { return c.inner.Read(p) }

// Close implements io.Closer.
func (c *pacedConn) Close() error { return c.inner.Close() }
