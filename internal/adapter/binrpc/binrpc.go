// Package binrpc is Clipper's binary request/response adapter: the
// gateway's operations over length-prefixed rpc frames on a plain TCP
// connection. The hot predict path round-trips without allocating in
// the framing or payload codec on either side — request encode buffers
// and response bodies are leased from pools — so the adapter measures
// the gateway itself rather than its own serialization.
package binrpc

import (
	"context"

	"clipper/internal/adapter"
	"clipper/internal/core"
	"clipper/internal/gateway"
	"clipper/internal/rpc"
)

// Server serves the full gateway operation surface over framed TCP.
type Server struct {
	srv *rpc.Server
}

// New returns a server bound to g's "binrpc" adapter instrumentation.
func New(g *gateway.Gateway) *Server {
	return &Server{srv: rpc.NewServer(adapter.NewHandler(g.Bind("binrpc"), true))}
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
