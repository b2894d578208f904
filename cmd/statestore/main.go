// Command statestore runs the standalone selection-state store — the
// deployment role Redis fills in the paper (§5.3). Clipper nodes connect
// with clipper.DialStateStore and keep per-context selection state here so
// it survives node restarts and is shared across nodes.
//
// Usage:
//
//	statestore -addr :6379 -file /var/lib/clipper/state.log
//
// With -file the store is backed by an append-only log and survives
// process restarts, including crashes mid-append (the torn tail is
// truncated at the last complete record on reopen). Without it, state
// lives in memory only.
//
// On SIGINT or SIGTERM the server drains: every request it has read is
// applied and answered, for at most 5 s, before the log closes.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clipper/internal/statestore"
)

func main() {
	addr := flag.String("addr", ":6379", "listen address")
	file := flag.String("file", "", "append-only log path for durable state (empty = in-memory)")
	flag.Parse()

	var store statestore.Store = statestore.NewMemStore()
	if *file != "" {
		fs, err := statestore.OpenFileStore(*file)
		if err != nil {
			log.Fatalf("opening %s: %v", *file, err)
		}
		if torn := fs.TornTail(); torn > 0 {
			log.Printf("recovered %s: discarded %d-byte torn tail from an unclean shutdown", *file, torn)
		}
		log.Printf("durable state log %s (%d keys)", *file, fs.Len())
		store = fs
	}

	srv := statestore.NewServer(store)
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	log.Printf("state store serving on %s", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Print("shutting down (draining in-flight requests)")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := store.Close(); err != nil {
		log.Printf("closing store: %v", err)
	}
}
