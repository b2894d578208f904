// Package stream is Clipper's binary adapter: the data plane — predict
// and feedback, the paper's two application calls — over length-prefixed
// rpc frames on one persistent connection. Management (registration,
// listings, health, the metrics scrape) is served by the REST adapter
// alone. Requests are correlated by frame ID and answered in completion
// order — a fast query overtakes a straggler on the same socket instead
// of queueing behind it (no head-of-line blocking, the tail-latency
// failure mode of one-at-a-time transports) — and a client that keeps
// one request outstanding has a plain request/response protocol. The hot
// predict path round-trips without allocating in the framing or payload
// codec on either side — request encode buffers and response bodies are
// leased from pools — so the adapter measures the gateway itself rather
// than its own serialization. The server's read loop never runs a
// handler (every request goes to an rpc.Server worker), so a slow
// predict delays neither the frames behind it nor the responses that
// overtake it.
package stream

import (
	"context"

	"clipper/internal/adapter"
	"clipper/internal/core"
	"clipper/internal/gateway"
	"clipper/internal/rpc"
)

// Server serves pipelined predicts and feedback over framed TCP.
type Server struct {
	srv *rpc.Server
}

// New returns a server bound to g's "stream" adapter instrumentation.
func New(g *gateway.Gateway) *Server {
	return &Server{srv: rpc.NewTimedServer(adapter.NewHandler(g.Bind("stream")))}
}

// NewServer returns a server over its own gateway on cl.
func NewServer(cl *core.Clipper) *Server { return New(gateway.New(cl)) }

// Listen starts serving on addr (":0" picks a port) and returns the
// bound address.
func (s *Server) Listen(addr string) (string, error) { return s.srv.Listen(addr) }

// Shutdown drains gracefully: in-flight requests get their responses,
// then connections close. See rpc.Server.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// Close is Shutdown bounded by adapter.CloseGrace.
func (s *Server) Close() error { return adapter.CloseGracefully(s.srv.Shutdown) }
