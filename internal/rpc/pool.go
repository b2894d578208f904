package rpc

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// errNoConns is returned by Pool calls while every pooled connection is
// down and awaiting redial.
var errNoConns = errors.New("rpc: no live connections in pool")

// Redial pacing for a dead connection: the first attempt waits
// redialBackoff, each consecutive failure doubles the wait up to
// maxRedialBackoff. Properties of a socket's recovery, not of a
// deployment: 50 ms makes a socket dropped under a live container a blip,
// not an outage, and the 2 s cap keeps a monitor facing a container that
// stays down to one dial every 2 s.
const (
	redialBackoff    = 50 * time.Millisecond
	maxRedialBackoff = 2 * time.Second
)

// PoolConfig parameterizes NewPool.
type PoolConfig struct {
	// Conns is the number of connections to hold open; 0 selects 1. More
	// connections let concurrent batch frames transfer in parallel instead
	// of head-of-line-blocking behind one in-progress frame write, and let
	// the pool survive the loss of any single connection.
	Conns int
	// Dial establishes one connection. Required. It is called Conns times
	// at construction and again, with backoff, whenever a pooled
	// connection dies.
	Dial func() (io.ReadWriteCloser, error)

	// backoff and maxBackoff override redialBackoff and maxRedialBackoff
	// when positive, so the package's tests can pace redials in ms.
	backoff, maxBackoff time.Duration
}

// Pool is a fixed-size pool of RPC connections to one replica — the only
// client a replica has, one connection or many. Calls round-robin across
// the live connections; each connection is a full multiplexing Client with
// its own pending map, so responses correlate per connection and one slow
// frame write never blocks the other connections' traffic.
//
// When a connection dies, only the calls in flight on it fail — the other
// connections keep serving — and a monitor goroutine redials the lost
// connection with exponential backoff until it is restored or the pool is
// closed; a one-connection pool comes back the same way. While every
// connection is down, calls fail fast with errNoConns.
type Pool struct {
	cfg PoolConfig

	rr    atomic.Uint64
	slots []atomic.Pointer[Client]

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// PoolStats is a point-in-time snapshot of the pool's connection and
// write-side telemetry, aggregated across every slot. The cumulative
// counters (Writes, WriteQueued, WriteWait) reset for a slot when its
// connection dies and is redialed; consumers differencing snapshots should
// clamp negative deltas to zero.
type PoolStats struct {
	// Conns is the total slot count (PoolConfig.Conns).
	Conns int
	// Live is the number of slots holding a live connection.
	Live int
	// BytesInFlight is the payload bytes being written across all live
	// connections at snapshot time.
	BytesInFlight int64
	// Writes is the total request frames written across live connections.
	Writes int64
	// WriteQueued counts writes that queued behind another in-progress
	// frame write — the signal that batches are transfer-bound.
	WriteQueued int64
	// WriteWait is the total time writes spent queued behind other writes.
	WriteWait time.Duration
}

// Stats snapshots the pool's aggregate telemetry.
func (p *Pool) Stats() PoolStats {
	st := PoolStats{Conns: len(p.slots)}
	for i := range p.slots {
		c := p.slots[i].Load()
		if c == nil {
			continue
		}
		cs := c.stats()
		if cs.Alive {
			st.Live++
		}
		st.BytesInFlight += cs.BytesInFlight
		st.Writes += cs.Writes
		st.WriteQueued += cs.WriteQueued
		st.WriteWait += cs.WriteWait
	}
	return st
}

// LiveConns reports live connections vs total slots from per-slot atomic
// loads and channel polls only — cheap enough for the per-dispatch
// scheduling path, unlike Stats, which also aggregates every slot's
// write-side counters.
func (p *Pool) LiveConns() (live, total int) {
	for i := range p.slots {
		if c := p.slots[i].Load(); c != nil && c.alive() {
			live++
		}
	}
	return live, len(p.slots)
}

// NewPool dials cfg.Conns connections and starts their redial monitors.
// Construction is all-or-nothing: if any initial dial fails, the already
// established connections are closed and the error is returned.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if cfg.Dial == nil {
		return nil, errors.New("rpc: PoolConfig.Dial is required")
	}
	if cfg.Conns < 1 {
		cfg.Conns = 1
	}
	if cfg.backoff <= 0 {
		cfg.backoff = redialBackoff
	}
	if cfg.maxBackoff <= 0 {
		cfg.maxBackoff = maxRedialBackoff
	}
	p := &Pool{
		cfg:   cfg,
		slots: make([]atomic.Pointer[Client], cfg.Conns),
		stop:  make(chan struct{}),
	}
	for i := range p.slots {
		conn, err := cfg.Dial()
		if err != nil {
			for j := 0; j < i; j++ {
				p.slots[j].Load().Close()
			}
			return nil, err
		}
		p.slots[i].Store(newClient(conn))
	}
	for i := range p.slots {
		p.wg.Add(1)
		go p.monitor(i)
	}
	return p, nil
}

// DialPool connects conns TCP connections to a server at addr.
func DialPool(addr string, timeout time.Duration, conns int) (*Pool, error) {
	return NewPool(PoolConfig{
		Conns: conns,
		Dial:  func() (io.ReadWriteCloser, error) { return dialTCP(addr, timeout) },
	})
}

// monitor owns slot i: it waits for the slot's client to die, then redials
// with exponential backoff until the connection is restored or the pool
// closes. In-flight calls on the dead client have already been failed (and
// its descriptor closed) by its read loop; the nil slot simply routes new
// calls to the survivors.
//
// Backoff covers flapping, not just refused dials: every redial waits
// backoff first, and backoff only resets after a connection survives
// longer than the backoff's cap. Without that, a listener that accepts and
// immediately drops connections (crashed container behind a live LB) would
// make "dial succeeded" reset the backoff and the monitor would spin
// connect/teardown at full speed.
func (p *Pool) monitor(i int) {
	defer p.wg.Done()
	backoff := p.cfg.backoff
	for {
		c := p.slots[i].Load()
		established := time.Now()
		select {
		case <-c.Done():
		case <-p.stop:
			return
		}
		p.slots[i].Store(nil)
		if time.Since(established) > p.cfg.maxBackoff {
			backoff = p.cfg.backoff // the connection was genuinely live
		}
		for {
			select {
			case <-time.After(backoff):
			case <-p.stop:
				return
			}
			if backoff *= 2; backoff > p.cfg.maxBackoff {
				backoff = p.cfg.maxBackoff
			}
			conn, err := p.cfg.Dial()
			if err == nil {
				p.slots[i].Store(newClient(conn))
				break
			}
		}
	}
}

// pick returns the next live connection, round-robin over every slot.
// Clients already known dead (their monitor hasn't swapped the slot yet)
// are skipped; a connection that dies between pick and use still fails
// the call, and callers above the RPC layer already handle call errors.
func (p *Pool) pick() (*Client, error) {
	n := len(p.slots)
	i := int(p.rr.Add(1) % uint64(n))
	for probe := 0; probe < n; probe++ {
		if c := p.slots[(i+probe)%n].Load(); c != nil && c.alive() {
			return c, nil
		}
	}
	select {
	case <-p.stop:
		return nil, ErrClientClosed
	default:
		return nil, errNoConns
	}
}

// Call is Client.Call over the next live pooled connection.
func (p *Pool) Call(ctx context.Context, method Method, payload []byte) (Payload, error) {
	c, err := p.pick()
	if err != nil {
		return Payload{}, err
	}
	return c.Call(ctx, method, payload)
}

// Ping heartbeats one live connection (liveness of the replica, not of
// every socket — dead sockets are already redialing).
func (p *Pool) Ping(ctx context.Context) error {
	c, err := p.pick()
	if err != nil {
		return err
	}
	return c.Ping(ctx)
}

// Close stops the redial monitors and tears down every connection;
// in-flight calls fail.
func (p *Pool) Close() error {
	p.closeOnce.Do(func() { close(p.stop) })
	p.wg.Wait() // monitors store no new clients after this
	var first error
	for i := range p.slots {
		if c := p.slots[i].Load(); c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
