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
}

// metricFamilies are the gateway's metric families, in the order collect fills
// them.
var metricFamilies = []metrics.Family{
	{Name: "clipper_gateway_requests_total", Help: "Gateway operations started, by protocol adapter and operation.", Kind: metrics.KindCounter},
	{Name: "clipper_gateway_errors_total", Help: "Gateway operations failed, by adapter, operation, and error code.", Kind: metrics.KindCounter},
	{Name: "clipper_gateway_latency_seconds", Help: "Gateway operation latency by adapter and operation.", Kind: metrics.KindHistogram},
}

// New returns a gateway over cl and registers the gateway metric
// families. A second Gateway over the same Clipper (rare, but legal)
// keeps the first gateway's families: the names are taken.
func New(cl *core.Clipper) *Gateway {
	g := &Gateway{cl: cl, adapters: make(map[string]*instr)}
	_ = cl.Metrics().RegisterGroup(metricFamilies, g.collect)
	return g
}

// Clipper returns the underlying node.
func (g *Gateway) Clipper() *core.Clipper { return g.cl }

// collect fills the gateway families from one read of every bound
// adapter's touched (op) cells. Untouched cells are skipped so a freshly
// bound adapter does not flood the scrape with zero series, and so are
// all-zero error series.
func (g *Gateway) collect(dst [][]metrics.Series) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for name, in := range g.adapters {
		for op := Op(0); op < numOps; op++ {
			st := &in.ops[op]
			reqs := st.reqs.Value()
			if reqs == 0 {
				continue
			}
			ls := []metrics.Label{{Name: "adapter", Value: name}, {Name: "op", Value: op.String()}}
			dst[0] = append(dst[0], metrics.Series{Labels: ls, Value: float64(reqs)})
			for c := Code(0); c < numCodes; c++ {
				if v := st.errs[c].Value(); v != 0 {
					dst[1] = append(dst[1], metrics.Series{
						Labels: append(ls[:2:2], metrics.Label{Name: "code", Value: c.String()}),
						Value:  float64(v),
					})
				}
			}
			dst[2] = metrics.AppendHistogram(dst[2], &st.lat, ls...)
		}
	}
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
