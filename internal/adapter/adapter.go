// Package adapter holds what Clipper's protocol adapters share: the
// binary wire codec the binrpc and stream adapters speak, the handler
// that dispatches those frames to a gateway, and the drain window their
// Close grants. The framed adapters serve through internal/rpc's server
// — the same one model containers use — so request leases, response
// scratch and graceful drain are implemented once. The adapters
// themselves are subpackages — httpjson (the REST API), binrpc
// (request/response binary RPC), and stream (pipelined predicts with
// correlation IDs) — each a thin shell over one internal/gateway core.
package adapter

import (
	"context"
	"time"
)

// CloseGrace is the drain window Close grants in-flight requests before
// forcing connections shut, mirroring http.Server.Shutdown-with-timeout.
const CloseGrace = 5 * time.Second

// CloseGracefully is every adapter's Close: its Shutdown, bounded by
// CloseGrace.
func CloseGracefully(shutdown func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), CloseGrace)
	defer cancel()
	return shutdown(ctx)
}
