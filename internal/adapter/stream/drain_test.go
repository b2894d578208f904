package stream

// Drain under continuous load. Shutdown promises that every request whose
// frame the server read runs and has its response written before the
// connection closes. The failure this guards against: a server that
// waits for "nothing in flight" while its read loops keep reading takes
// in a request behind the drain, runs it — a feedback mutates selection
// state — and writes the response to a socket it has already closed.

import (
	"bytes"
	"context"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clipper/internal/gateway"
	"clipper/internal/rpc"
)

// countingProxy relays one client connection to target and counts the
// response frames the server wrote — the server-side view of "responses
// successfully written", which a client cannot give: a pipelining client
// whose own write fails abandons replies it has not read yet.
func countingProxy(t *testing.T, target string, responses *atomic.Int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		client, err := ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", target)
		if err != nil {
			client.Close()
			return
		}
		go io.Copy(server, client) // requests; ends when either side dies
		for {
			f, err := rpc.ReadFrame(server)
			if err != nil {
				break
			}
			responses.Add(1)
			rpc.WriteFrame(client, f)
			f.Release()
		}
		client.Close()
		server.Close()
	}()
	return ln.Addr().String()
}

// streamRequests sums clipper_gateway_requests_total over the stream
// adapter's operations: one per handler invocation.
func streamRequests(t *testing.T, gw *gateway.Gateway) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := gw.Clipper().Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, `clipper_gateway_requests_total{adapter="stream"`) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		total += int64(v)
	}
	return total
}

// TestShutdownUnderPipelinedLoad pipelines predicts and feedback over one
// connection without pause while Shutdown runs, over and over. Every
// handler invocation must be matched by a response on the wire, and every
// client callback must fire exactly once, with a reply or with the
// connection's error.
func TestShutdownUnderPipelinedLoad(t *testing.T) {
	gw := gateway.New(newNode(t))

	const rounds = 40
	for round := 0; round < rounds; round++ {
		srv := New(gw)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var written atomic.Int64
		conn, err := Dial(countingProxy(t, addr, &written), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		invokedBefore := streamRequests(t, gw)

		var issued, fired, dup atomic.Int64
		var pumps sync.WaitGroup
		window := make(chan struct{}, 64) // bounds outstanding predicts, not their rate
		pumps.Add(2)
		go func() { // predicts, pipelined
			defer pumps.Done()
			for i := 0; ; i++ {
				select {
				case window <- struct{}{}:
				case <-conn.Done():
					return
				}
				issued.Add(1)
				var once atomic.Bool
				conn.Go("fast", "", []float64{float64(i)}, func(gateway.PredictResult, error) {
					if !once.CompareAndSwap(false, true) {
						dup.Add(1)
					}
					fired.Add(1)
					<-window
				})
			}
		}()
		go func() { // feedback, one after another on the same connection
			defer pumps.Done()
			for i := 0; ; i++ {
				if err := conn.Feedback(context.Background(), "fast", "", 1, []float64{float64(i)}); err != nil {
					return
				}
			}
		}()

		// Shut down mid-stream: once traffic is flowing, at a point that
		// varies from round to round.
		for deadline := time.Now().Add(5 * time.Second); written.Load() < int64(16+round); {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: traffic never started", round)
			}
			time.Sleep(50 * time.Microsecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("round %d: Shutdown: %v", round, err)
		}
		cancel()
		select {
		case <-conn.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: client never saw the drained connection close", round)
		}
		pumps.Wait()
		for deadline := time.Now().Add(5 * time.Second); fired.Load() != issued.Load(); {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d of %d predict callbacks fired", round, fired.Load(), issued.Load())
			}
			time.Sleep(time.Millisecond)
		}
		if n := dup.Load(); n != 0 {
			t.Fatalf("round %d: %d predict callbacks fired more than once", round, n)
		}
		// Shutdown returned: every handler has returned and the server has
		// closed the connection, so the proxy has seen all it will see
		// once its read of the server side fails.
		invoked := streamRequests(t, gw) - invokedBefore
		for deadline := time.Now().Add(5 * time.Second); written.Load() != invoked; {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d handler invocations but %d responses written", round, invoked, written.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
}
