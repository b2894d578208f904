// Package stream is Clipper's streaming adapter: one persistent
// connection carrying many in-flight predicts, correlated by frame ID
// and answered in completion order — a fast query overtakes a straggler
// on the same socket instead of queueing behind it (no head-of-line
// blocking, the tail-latency failure mode of one-at-a-time transports).
//
// The server side restricts the connection to the data-plane operations
// (predict, feedback); admin and scrape traffic belongs on the httpjson
// or binrpc adapters.
package stream

import (
	"context"

	"clipper/internal/adapter"
	"clipper/internal/core"
	"clipper/internal/gateway"
	"clipper/internal/rpc"
)

// Server serves pipelined data-plane operations over framed TCP.
type Server struct {
	srv *rpc.Server
}

// New returns a server bound to g's "stream" adapter instrumentation.
func New(g *gateway.Gateway) *Server {
	return &Server{srv: rpc.NewServer(adapter.NewHandler(g.Bind("stream"), false))}
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
