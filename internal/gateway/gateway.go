// Package gateway is Clipper's transport-agnostic request core: every
// application-facing operation — predict, feedback, app registration,
// introspection, admin mutations, the metrics scrape — is a typed method
// here, implemented exactly once. Protocol adapters (internal/adapter/*)
// are thin shells that decode their wire format, call a gateway
// operation, and encode the result; validation, QoS/shed error mapping,
// degraded-flag plumbing, and per-adapter request/error/latency
// instrumentation never leak into an adapter.
//
// An adapter obtains a Bound handle via (*Gateway).Bind("http") and calls
// operations on it; the handle stamps every call into the node's
// Prometheus registry as
//
//	clipper_gateway_requests_total{adapter,op}
//	clipper_gateway_errors_total{adapter,op,code}
//	clipper_gateway_latency_seconds{adapter,op}   (histogram)
//
// so one scrape compares the same operation across protocols.
package gateway

import (
	"sort"
	"sync"
	"time"

	"clipper/internal/core"
	"clipper/internal/metrics"
)

// Op identifies one gateway operation, the `op` label on the gateway
// metric families.
type Op uint8

// Gateway operations.
const (
	OpPredict Op = iota
	OpFeedback
	OpRegisterApp
	opHealth
	opMetrics
	OpDeploy
	opReplicas
	opApplications
	OpSetHealth
	numOps
)

var opNames = [numOps]string{
	"predict", "feedback", "register_app",
	"health", "metrics",
	"deploy", "replicas", "applications", "set_health",
}

// String returns the operation's metric-label name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// opStats is one (adapter, op) cell: requests, errors by code, latency.
// Every field is atomic. Read only at scrape time.
type opStats struct {
	reqs metrics.Counter
	errs [numCodes]metrics.Counter
	lat  metrics.Histogram
}

// instr is one adapter's instrumentation block.
type instr struct {
	ops [numOps]opStats
}

// Gateway is the transport-agnostic core over one Clipper node.
type Gateway struct {
	cl *core.Clipper

	mu       sync.RWMutex
	adapters map[string]*instr
	order    []string // sorted adapter labels, for deterministic scrapes
}

// New returns a gateway over cl and registers the gateway metric
// families. A second Gateway over the same Clipper (rare, but legal)
// keeps the first gateway's families: the names are taken.
func New(cl *core.Clipper) *Gateway {
	g := &Gateway{cl: cl, adapters: make(map[string]*instr)}
	reg := cl.Metrics()
	_ = reg.Register("clipper_gateway_requests_total",
		"Gateway operations started, by protocol adapter and operation.",
		metrics.KindCounter, func(dst []metrics.Series) []metrics.Series {
			return g.eachOp(dst, func(dst []metrics.Series, adapter string, op Op, st *opStats) []metrics.Series {
				return append(dst, metrics.Series{
					Labels: []metrics.Label{{Name: "adapter", Value: adapter}, {Name: "op", Value: op.String()}},
					Value:  float64(st.reqs.Value()),
				})
			})
		})
	_ = reg.Register("clipper_gateway_errors_total",
		"Gateway operations failed, by adapter, operation, and error code.",
		metrics.KindCounter, func(dst []metrics.Series) []metrics.Series {
			return g.eachOp(dst, func(dst []metrics.Series, adapter string, op Op, st *opStats) []metrics.Series {
				for c := Code(0); c < numCodes; c++ {
					v := st.errs[c].Value()
					if v == 0 {
						continue // all-zero error series would drown the scrape
					}
					dst = append(dst, metrics.Series{
						Labels: []metrics.Label{
							{Name: "adapter", Value: adapter},
							{Name: "op", Value: op.String()},
							{Name: "code", Value: c.String()},
						},
						Value: float64(v),
					})
				}
				return dst
			})
		})
	_ = reg.Register("clipper_gateway_latency_seconds",
		"Gateway operation latency by adapter and operation.",
		metrics.KindHistogram, func(dst []metrics.Series) []metrics.Series {
			return g.eachOp(dst, func(dst []metrics.Series, adapter string, op Op, st *opStats) []metrics.Series {
				return metrics.AppendHistogram(dst, &st.lat,
					metrics.Label{Name: "adapter", Value: adapter},
					metrics.Label{Name: "op", Value: op.String()})
			})
		})
	return g
}

// Clipper returns the underlying node.
func (g *Gateway) Clipper() *core.Clipper { return g.cl }

// eachOp walks every bound adapter's touched (op) cells in deterministic
// order. Untouched cells are skipped so a freshly bound adapter does not
// flood the scrape with zero series.
func (g *Gateway) eachOp(dst []metrics.Series, fn func([]metrics.Series, string, Op, *opStats) []metrics.Series) []metrics.Series {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, name := range g.order {
		in := g.adapters[name]
		for op := Op(0); op < numOps; op++ {
			st := &in.ops[op]
			if st.reqs.Value() == 0 {
				continue
			}
			dst = fn(dst, name, op, st)
		}
	}
	return dst
}

// Bind returns the adapter's operation handle, creating its
// instrumentation block on first use. Binding the same label twice
// returns the same block, so a restarted adapter keeps its counters.
func (g *Gateway) Bind(adapter string) *Bound {
	g.mu.Lock()
	in, ok := g.adapters[adapter]
	if !ok {
		in = &instr{}
		g.adapters[adapter] = in
		g.order = append(g.order, adapter)
		sort.Strings(g.order)
	}
	g.mu.Unlock()
	return &Bound{g: g, in: in}
}

// Bound is a gateway handle bound to one protocol adapter's
// instrumentation. All operations live here.
type Bound struct {
	g  *Gateway
	in *instr
}

// Gateway returns the handle's gateway.
func (b *Bound) Gateway() *Gateway { return b.g }

// begin stamps an operation start; the returned function completes the
// observation. Usage: defer b.begin(OpPredict)(&err).
func (b *Bound) begin(op Op) func(*error) {
	start := time.Now()
	st := &b.in.ops[op]
	st.reqs.Inc()
	return func(errp *error) {
		st.lat.ObserveDuration(time.Since(start))
		if errp != nil && *errp != nil {
			st.errs[CodeOf(*errp)].Inc()
		}
	}
}

// Reject records a request the adapter refused before reaching an
// operation — a transport-level parse or method error — so per-adapter
// request/error counters stay complete without the adapter keeping its
// own books.
func (b *Bound) Reject(op Op, code Code) {
	st := &b.in.ops[op]
	st.reqs.Inc()
	st.errs[code].Inc()
}
