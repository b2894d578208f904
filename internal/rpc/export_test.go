package rpc

// The lease counters, for the external tests that drive the
// client-facing adapters served by this package's Server.

func ActiveLeases() int64   { return activeLeases.Load() }
func ActiveRespBufs() int64 { return activeRespBufs.Load() }
