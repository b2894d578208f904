package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Frame{ID: 42, Type: MsgRequest, Method: MethodPredict, Payload: []byte("hello")}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 42 || out.Type != MsgRequest || out.Method != MethodPredict || string(out.Payload) != "hello" {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{ID: 1, Type: MsgPing}); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Payload) != 0 {
		t.Fatalf("payload = %v", out.Payload)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, &Frame{Payload: make([]byte, MaxFrameSize+1)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
	// A corrupt giant length prefix must be rejected on read too.
	bad := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read err = %v", err)
	}
}

func TestFrameShortLength(t *testing.T) {
	bad := []byte{2, 0, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("expected error on short frame")
	}
}

func TestFramePropertyRoundTrip(t *testing.T) {
	f := func(id uint64, typ, method uint8, payload []byte) bool {
		var buf bytes.Buffer
		in := &Frame{ID: id, Type: MsgType(typ), Method: Method(method), Payload: payload}
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		out, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return out.ID == in.ID && out.Type == in.Type &&
			out.Method == in.Method && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// echoHandler echoes payloads for MethodPredict and fails MethodInfo.
// Per the Handler contract the echo copies into scratch — returning a
// slice aliasing the request payload is forbidden (the server recycles
// the returned buffer into its response pool).
func echoHandler(method Method, payload, scratch []byte) ([]byte, error) {
	switch method {
	case MethodPredict:
		return append(scratch, payload...), nil
	default:
		return nil, fmt.Errorf("boom")
	}
}

func startServer(t *testing.T, h Handler) (addr string, stop func()) {
	t.Helper()
	srv := NewServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr, func() { srv.Close() }
}

func TestClientServerEcho(t *testing.T) {
	addr, stop := startServer(t, echoHandler)
	defer stop()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(context.Background(), MethodPredict, []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Data) != "abc" {
		t.Fatalf("resp = %q", resp.Data)
	}
	resp.Release()
}

func TestClientServerRemoteError(t *testing.T) {
	addr, stop := startServer(t, echoHandler)
	defer stop()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(context.Background(), MethodInfo, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Message != "boom" {
		t.Fatalf("message = %q", re.Message)
	}
}

func TestClientPing(t *testing.T) {
	addr, stop := startServer(t, echoHandler)
	defer stop()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestClientConcurrentCalls(t *testing.T) {
	addr, stop := startServer(t, echoHandler)
	defer stop()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				msg := []byte(fmt.Sprintf("g%d-i%d", g, i))
				resp, err := c.Call(context.Background(), MethodPredict, msg)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp.Data, msg) {
					errs <- fmt.Errorf("cross-talk: sent %q got %q", msg, resp.Data)
					return
				}
				resp.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientContextCancellation(t *testing.T) {
	block := make(chan struct{})
	addr, stop := startServer(t, func(Method, []byte, []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	defer stop()
	defer close(block)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = c.Call(ctx, MethodPredict, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestClientFailsAfterServerClose(t *testing.T) {
	addr, stop := startServer(t, echoHandler)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(context.Background(), MethodPredict, []byte("x")); err != nil {
		t.Fatal(err)
	}
	stop()
	// Allow the read loop to observe EOF.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Call(context.Background(), MethodPredict, []byte("x")); err != nil {
			return // expected failure path reached
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("calls kept succeeding after server close")
}

func TestClientCloseIdempotent(t *testing.T) {
	addr, stop := startServer(t, echoHandler)
	defer stop()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(context.Background(), MethodPredict, nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(echoHandler)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestListenAfterStop: a server stopped either way refuses new listeners
// with ErrServerClosed.
func TestListenAfterStop(t *testing.T) {
	stops := map[string]func(*Server) error{
		"Close":    (*Server).Close,
		"Shutdown": func(s *Server) error { return s.Shutdown(context.Background()) },
	}
	for name, stop := range stops {
		srv := NewServer(echoHandler)
		if _, err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if err := stop(srv); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := srv.Listen("127.0.0.1:0"); !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Listen after %s = %v, want ErrServerClosed", name, err)
		}
	}
}

// TestShutdownDrainsInFlight: a request the server has read finishes and
// is answered although Shutdown begins while it runs; Close, by contrast,
// cuts it off.
func TestShutdownDrainsInFlight(t *testing.T) {
	for _, graceful := range []bool{true, false} {
		entered := make(chan struct{})
		release := make(chan struct{})
		srv := NewServer(func(_ Method, p, scratch []byte) ([]byte, error) {
			close(entered)
			<-release
			return append(scratch, p...), nil
		})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		type reply struct {
			data string
			err  error
		}
		got := make(chan reply, 1)
		go func() {
			p, err := c.Call(context.Background(), MethodPredict, []byte("kept"))
			got <- reply{string(p.Data), err}
			p.Release()
		}()
		<-entered
		stopped := make(chan error, 1)
		go func() {
			if graceful {
				stopped <- srv.Shutdown(context.Background())
			} else {
				stopped <- srv.Close()
			}
		}()
		if graceful {
			select {
			case err := <-stopped:
				t.Fatalf("Shutdown returned %v with a request still running", err)
			case <-time.After(20 * time.Millisecond):
			}
		} else {
			// Close has already closed the connection: the call fails
			// while its handler is still parked.
			if r := <-got; r.err == nil {
				t.Fatal("Close let an in-flight call complete")
			}
		}
		close(release)
		if err := <-stopped; err != nil {
			t.Fatal(err)
		}
		if graceful {
			if r := <-got; r.err != nil || r.data != "kept" {
				t.Fatalf("drained call = %q, %v; want its response", r.data, r.err)
			}
		}
		c.Close()
	}
}

func TestServerSlowRequestDoesNotBlockPing(t *testing.T) {
	release := make(chan struct{})
	addr, stop := startServer(t, func(_ Method, _, scratch []byte) ([]byte, error) {
		<-release
		return append(scratch, "done"...), nil
	})
	defer stop()
	defer close(release)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	go c.Call(context.Background(), MethodPredict, nil) // parked in handler

	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping blocked behind slow request: %v", err)
	}
}

// TestPingReportsCauseOfDeath is a regression test: Ping answered a dead
// connection with a bare ErrClientClosed — whether the connection died
// under it or before it — where Call reported what killed it, so a health
// prober could not tell a local Close from a reset. Both take one
// delivery path now and report the cause.
func TestPingReportsCauseOfDeath(t *testing.T) {
	cli, srv := net.Pipe()
	c := NewClient(cli)
	defer c.Close()
	go func() {
		ReadFrame(srv) // the ping arrives and is never answered
		srv.Close()
	}()
	inFlight := c.Ping(context.Background())
	afterDeath := c.Ping(context.Background())
	_, call := c.Call(context.Background(), MethodPredict, nil)
	for name, err := range map[string]error{"in flight": inFlight, "after death": afterDeath} {
		if err == nil || errors.Is(err, ErrClientClosed) || err != call || err != c.Err() {
			t.Errorf("Ping %s = %v; want the connection's cause of death, %v", name, err, c.Err())
		}
	}

	cli, _ = net.Pipe()
	c = NewClient(cli)
	c.Close()
	if err := c.Ping(context.Background()); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Ping after a local Close = %v, want ErrClientClosed", err)
	}
}
