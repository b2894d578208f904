package rpc

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Handler processes one request and returns the response payload,
// normally by appending it to scratch.
//
// The request payload aliases a pooled frame body whose lease the server
// loop ends after the handler's response has been written; a handler must
// not retain the payload past its return (the codec handlers decode —
// copy — immediately, which is the intended shape).
//
// scratch is a leased response body: a pooled buffer, length 0, that the
// server recycles after the response frame hits the wire. A handler
// appends its response to scratch and returns the resulting slice — even
// if the appends outgrow scratch's capacity, the grown buffer's ownership
// passes to the server and is pooled for the next request, so
// steady-state response encoding allocates nothing at any stable response
// size. A handler may instead return a freshly allocated slice it
// surrenders; what it must NOT return is a slice aliasing the request
// payload (copy into scratch to echo) or memory it retains, since the
// server recycles the returned buffer into its response pool.
type Handler func(method Method, payload, scratch []byte) ([]byte, error)

// TimedHandler is a Handler that is also told when its request frame was
// read off the connection — the instant a client-facing server counts a
// request's deadline from. Everything said of Handler holds.
type TimedHandler func(method Method, payload, scratch []byte, arrived time.Time) ([]byte, error)

// Response bodies are pooled separately from read-side frame bodies:
// they grow to the server's stable response size and obey the same 1 MiB
// retention cap (one giant response must not pin a giant buffer forever).
const maxPooledRespBuf = maxPooledBody

var respBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// activeRespBufs counts leased response bodies not yet recycled — the
// response-direction analogue of activeLeases, asserted to drain back to
// baseline by the lease tests (including on write-failure paths).
var activeRespBufs atomic.Int64

func getRespBuf() *[]byte {
	activeRespBufs.Add(1)
	return respBufPool.Get().(*[]byte)
}

// putRespBuf ends a response body's lease, recycling it unless an outlier
// response grew it past the retention cap (or the handler returned some
// degenerate tiny slice that is not worth pooling). Reports whether the
// buffer was pooled (exercised by the retention regression test).
func putRespBuf(b *[]byte) bool {
	activeRespBufs.Add(-1)
	if cap(*b) > maxPooledRespBuf || cap(*b) < 512 {
		return false
	}
	*b = (*b)[:0]
	respBufPool.Put(b)
	return true
}

// errServerClosed is returned by Listen on a server that has been closed
// or is shutting down.
var errServerClosed = errors.New("rpc: server closed")

// Server accepts connections and dispatches framed requests to a Handler.
// Requests are served concurrently — the read loop hands each request
// frame to an idle worker goroutine (spawning a new one only when every
// worker is busy, so the pool grows to the connection's peak request
// concurrency and no further) — so a slow batch on one request id does
// not head-of-line-block heartbeats or other requests. Reusing workers
// keeps their stacks warm: a goroutine spawned per request would regrow
// its stack through the handler's decode/predict/encode chain every
// time, which profiles as runtime.newstack/copystack at high frame
// rates.
//
// A server stops one of two ways. Close is immediate: connections are
// closed under whatever is in flight, so a handler still running finds
// its response write failing (model containers stop this way). Shutdown
// drains: every request whose frame was fully read runs and has its
// response written before its connection closes (the client-facing
// adapters stop this way). Both invariants the lease tests check — every
// request frame released once, every response scratch recycled once —
// hold on either path.
type Server struct {
	handler TimedHandler

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{} // accepted connections still being served
	closed   bool                  // Close or Shutdown has begun
	wg       sync.WaitGroup        // the accept loop and every accepted connection's ServeConn
}

// NewServer returns a server dispatching to handler.
func NewServer(handler Handler) *Server {
	return NewTimedServer(func(m Method, payload, scratch []byte, _ time.Time) ([]byte, error) {
		return handler(m, payload, scratch)
	})
}

// NewTimedServer returns a server dispatching to a handler that takes each
// request's arrival time.
func NewTimedServer(handler TimedHandler) *Server {
	return &Server{handler: handler, conns: make(map[net.Conn]struct{})}
}

// Listen starts accepting on addr ("host:port"; ":0" picks a free port) and
// returns the bound address. Serving proceeds in the background until
// Close or Shutdown; on a server already stopped by either it returns
// errServerClosed.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", errServerClosed
	}
	s.listener = ln
	s.wg.Add(1) // under mu: a racing Close must not see the counter at zero
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if tcp, ok := conn.(*net.TCPConn); ok {
				tcp.SetNoDelay(true)
			}
			if !s.track(conn) {
				conn.Close()
				continue
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.ServeConn(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// track registers an accepted connection, refusing it once the server
// has begun to stop.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// ServeConn serves a single established connection until it fails or the
// server stops. It may be used directly with in-memory pipes (tests,
// simulated links).
func (s *Server) ServeConn(conn io.ReadWriteCloser) {
	var writeMu sync.Mutex
	var reqWG sync.WaitGroup
	reqCh := make(chan *Frame)
	err := s.readLoop(conn, &writeMu, reqCh, &reqWG)
	// Exit order is the drain: no further frame is read, the workers are
	// released, every response for a frame already read is written, and
	// only then does the connection close.
	close(reqCh)
	reqWG.Wait()
	if tcp, ok := conn.(*net.TCPConn); ok && errors.Is(err, os.ErrDeadlineExceeded) {
		lingerClose(tcp)
	}
	if nc, ok := conn.(net.Conn); ok {
		s.untrack(nc)
	}
	conn.Close()
}

// lingerClose ends a connection Shutdown has drained without losing the
// responses just written. Closing a socket whose receive buffer still
// holds requests a pipelining client sent behind the drain resets the
// connection, and a reset discards whatever the kernel has not yet
// delivered. So the write side is closed first — the client reads every
// response, then end-of-stream — and what the client keeps sending is
// consumed until it closes its side. A client that never does is cut off
// when Shutdown's context expires and closes the connection under this
// read.
func lingerClose(tcp *net.TCPConn) {
	tcp.CloseWrite()
	tcp.SetReadDeadline(time.Time{})
	io.Copy(io.Discard, tcp)
}

// readLoop reads frames until the connection fails, handing each request
// to a worker, and returns the read error that ended it. Frames already in
// its buffer when Shutdown's deadline lands count as read: they are served
// before the next read of the connection reports the deadline.
func (s *Server) readLoop(conn io.ReadWriteCloser, writeMu *sync.Mutex, reqCh chan *Frame, reqWG *sync.WaitGroup) error {
	r := newReader(conn)
	for {
		f, err := ReadFrame(r)
		if err != nil {
			return err
		}
		switch f.Type {
		case msgPing:
			id := f.ID
			f.Release()
			writeMu.Lock()
			WriteFrame(conn, &Frame{ID: id, Type: msgPong})
			writeMu.Unlock()
		case MsgRequest:
			f.arrived = time.Now()
			// Hand the frame to a parked worker if one is waiting;
			// otherwise every worker is mid-request, so grow the pool.
			// The handoff never blocks the read loop.
			select {
			case reqCh <- f:
			default:
				reqWG.Add(1)
				go s.serveRequests(conn, writeMu, reqCh, f, reqWG)
			}
		default:
			// Ignore unexpected frame kinds rather than killing the
			// connection (forward compatibility) — but end their lease.
			f.Release()
		}
	}
}

// serveRequests is one request worker: it serves its seed frame, then
// parks on reqCh for more until the connection's read loop closes it.
func (s *Server) serveRequests(conn io.ReadWriteCloser, writeMu *sync.Mutex, reqCh <-chan *Frame, f *Frame, wg *sync.WaitGroup) {
	defer wg.Done()
	out := new(Frame) // reused response frame; one alloc per worker, not per request
	for {
		s.serveRequest(conn, writeMu, f, out)
		var ok bool
		if f, ok = <-reqCh; !ok {
			return
		}
	}
}

func (s *Server) serveRequest(conn io.ReadWriteCloser, writeMu *sync.Mutex, f, out *Frame) {
	scratch := getRespBuf()
	resp, err := s.handler(f.Method, f.Payload, (*scratch)[:0], f.arrived)
	*out = Frame{ID: f.ID, Type: MsgResponse, Method: f.Method, Payload: resp}
	if err != nil {
		out.Type = msgError
		out.Payload = []byte(err.Error())
	}
	writeMu.Lock()
	WriteFrame(conn, out)
	writeMu.Unlock()
	// Server-side release points, in order, after the write
	// (successful or not — a failed write still ends both
	// leases): the request frame's body lease ends here, and
	// the response body is recycled. If the handler's appends
	// outgrew the scratch, adopt the grown buffer so the pool
	// converges on the server's stable response size.
	f.Release()
	if err == nil && cap(resp) > cap(*scratch) {
		*scratch = resp[:0]
	}
	putRespBuf(scratch)
	out.Payload = nil // the response body's lease ended; do not retain it in the parked worker
}

// stop marks the server stopped, closes the listener, and returns the
// accepted connections still being served.
func (s *Server) stop() []net.Conn {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	s.listener = nil
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	return conns
}

// Close stops accepting, closes every accepted connection immediately,
// and waits for their handlers to return. Requests in flight lose their
// responses; use Shutdown to let them finish.
func (s *Server) Close() error {
	for _, c := range s.stop() {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// Shutdown stops the server gracefully. It stops accepting, then stops
// reading: each accepted connection's read deadline is expired, so its
// read loop takes no further frame, waits for the workers serving the
// frames it already read — each of which writes its response — and only
// then closes the connection (write side first, so the client receives
// every response; see lingerClose). Because reading stops before the wait
// begins, no request can slip in behind the drain and run against a
// closing socket. There is no in-flight counter: the per-connection
// worker WaitGroup the read loop already owns is the drain condition, so
// draining adds nothing to the per-request path.
//
// If ctx expires first, the remaining connections are closed under their
// handlers (as Close does) and ctx's error is returned. Connections
// handed to ServeConn directly are the caller's to close.
func (s *Server) Shutdown(ctx context.Context) error {
	for _, c := range s.stop() {
		c.SetReadDeadline(time.Unix(1, 0))
	}
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.Close()
		return ctx.Err()
	}
}
