// Package adapter holds what Clipper's protocol adapters share: the
// binary wire codec the stream adapter speaks, the handler that
// dispatches those frames to a gateway, and the drain window every
// adapter's Close grants. The stream adapter serves through
// internal/rpc's server and its client is a codec over internal/rpc's
// client — the same two model containers use — so request leases,
// response scratch, graceful drain and the pipelined client's delivery
// rule are implemented once. The adapters themselves are subpackages —
// httpjson (the REST API, every operation) and stream (the binary data
// plane: pipelined predicts and feedback with correlation IDs) — each a
// thin shell over one internal/gateway core.
package adapter

import (
	"context"
	"time"
)

// closeGrace is the drain window Close grants in-flight requests before
// forcing connections shut, mirroring http.Server.Shutdown-with-timeout.
const closeGrace = 5 * time.Second

// CloseGracefully is every adapter's Close: its Shutdown, bounded by
// closeGrace.
func CloseGracefully(shutdown func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	return shutdown(ctx)
}
