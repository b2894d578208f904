package rpc

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
)

// segmentReader hands out its data at most max bytes per Read — max = 0 is
// "one TCP segment holding everything" — counts the reads, and then
// reports end, the error a connection's next read would return.
type segmentReader struct {
	data  []byte
	max   int
	end   error
	reads int
}

func (r *segmentReader) Read(p []byte) (int, error) {
	r.reads++
	if len(r.data) == 0 {
		return 0, r.end
	}
	if r.max > 0 && len(p) > r.max {
		p = p[:r.max]
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func encodeFrames(t *testing.T, frames ...*Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestReaderParsesPipelinedFramesFromOneRead: small frames that arrived
// together cost one read of the connection between them, not two each.
func TestReaderParsesPipelinedFramesFromOneRead(t *testing.T) {
	const n = 200
	frames := make([]*Frame, n)
	for i := range frames {
		frames[i] = &Frame{ID: uint64(i), Type: MsgRequest, Method: MethodPredict, Payload: []byte(fmt.Sprintf("row-%03d", i))}
	}
	src := &segmentReader{data: encodeFrames(t, frames...), end: io.EOF}
	r := NewReader(src)
	for i := 0; i < n; i++ {
		f, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.ID != uint64(i) || string(f.Payload) != fmt.Sprintf("row-%03d", i) {
			t.Fatalf("frame %d came back as id %d %q", i, f.ID, f.Payload)
		}
		f.Release()
	}
	if src.reads > 2 {
		t.Fatalf("%d frames took %d reads, want ≤ 2 (unbuffered: %d)", n, src.reads, 2*n)
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestReaderLargeFrameIntact: a body several times the buffer, arriving in
// segments between two small frames, comes through whole and in order.
func TestReaderLargeFrameIntact(t *testing.T) {
	big := make([]byte, 300<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	src := &segmentReader{max: 1460, end: io.EOF, data: encodeFrames(t,
		&Frame{ID: 1, Type: MsgRequest, Payload: []byte("before")},
		&Frame{ID: 2, Type: MsgRequest, Payload: big},
		&Frame{ID: 3, Type: MsgRequest, Payload: []byte("after")})}
	r := NewReader(src)
	for i, want := range [][]byte{[]byte("before"), big, []byte("after")} {
		f, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i+1, err)
		}
		if f.ID != uint64(i+1) || !bytes.Equal(f.Payload, want) {
			t.Fatalf("frame %d damaged: id %d, %d bytes", i+1, f.ID, len(f.Payload))
		}
		f.Release()
	}
}

// drainConn is a connection whose one segment of requests has been read
// when Shutdown's deadline lands: the next read reports the deadline.
type drainConn struct {
	segmentReader
	mu  sync.Mutex
	out bytes.Buffer
}

func (c *drainConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.Write(p)
}

func (c *drainConn) Close() error { return nil }

// TestShutdownAnswersBufferedFrames: every frame that was in the read
// loop's buffer when the deadline arrived is served and answered, and both
// server-side leases end.
func TestShutdownAnswersBufferedFrames(t *testing.T) {
	leaseBase, respBase := activeLeases.Load(), activeRespBufs.Load()
	const n = 64
	frames := make([]*Frame, n)
	for i := range frames {
		frames[i] = &Frame{ID: uint64(i + 1), Type: MsgRequest, Method: MethodPredict, Payload: []byte{byte(i)}}
	}
	conn := &drainConn{segmentReader: segmentReader{data: encodeFrames(t, frames...), end: os.ErrDeadlineExceeded}}
	NewServer(echoHandler).ServeConn(conn) // returns once the connection has drained

	answered := make(map[uint64]bool)
	for r := bytes.NewReader(conn.out.Bytes()); r.Len() > 0; {
		f, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != MsgResponse || len(f.Payload) != 1 || uint64(f.Payload[0])+1 != f.ID {
			t.Fatalf("response %d: type %d payload %v", f.ID, f.Type, f.Payload)
		}
		answered[f.ID] = true
		f.Release()
	}
	if len(answered) != n {
		t.Fatalf("%d of %d buffered requests answered", len(answered), n)
	}
	waitLeasesSettle(t, leaseBase)
	waitRespBufsSettle(t, respBase)
}
