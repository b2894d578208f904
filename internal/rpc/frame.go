// Package rpc implements the lightweight cross-process RPC system that
// connects Clipper's processes (paper §4.4): model containers, the stream
// adapter and the state store are each an rpc.Server over its own Handler.
//
// The protocol is a minimal length-prefixed binary framing over any
// io.ReadWriter (normally TCP): each frame carries a request id for
// response correlation, a message type, a method id, and an opaque payload.
// Requests multiplex over one connection; the server may answer them out of
// order.
//
// Client multiplexes concurrent calls over one connection, correlating
// responses by request id through a per-connection pending map. Pool, the
// client of every model replica and state-store client, holds N ≥ 1 such
// connections and round-robins calls across the live ones, so concurrent
// batch frames transfer in parallel instead of head-of-line-blocking
// behind one in-progress write; when a connection dies, only its
// in-flight calls fail — the survivors keep serving while the lost
// connection is redialed with backoff, and a one-connection pool comes
// back the same way. The frame wire format and both layers' failure
// semantics are documented in docs/ARCHITECTURE.md.
package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MsgType distinguishes frame kinds.
type MsgType uint8

// Frame kinds.
const (
	MsgRequest  MsgType = 0
	MsgResponse MsgType = 1
	MsgError    MsgType = 2
	MsgPing     MsgType = 3
	MsgPong     MsgType = 4
)

// Method identifies the remote operation being invoked.
type Method uint8

// Methods understood by model-container servers.
const (
	MethodPredict Method = 1
	MethodInfo    Method = 2
)

// MaxFrameSize bounds a single frame's payload (64 MiB), protecting both
// sides from corrupt length prefixes.
const MaxFrameSize = 64 << 20

// Frame is one protocol message.
//
// Frames returned by ReadFrame are *leased*: their Payload aliases a
// pooled body buffer, and the reader that consumed the frame must call
// Release exactly once when the payload's lifetime ends (see the
// "payload lifetime & release points" section of docs/ARCHITECTURE.md).
// Frames constructed by callers for WriteFrame carry no lease; Release
// on them is a harmless no-op.
type Frame struct {
	ID      uint64
	Type    MsgType
	Method  Method
	Payload []byte

	body    *[]byte   // pooled body backing Payload; nil when unpooled
	leased  bool      // came from ReadFrame via recvFramePool
	arrived time.Time // when a Server's read loop read this request
}

// Release returns the frame's pooled body (and the frame itself, when it
// came from ReadFrame) to their pools. The frame and its Payload must not
// be used after Release; calling Release twice on the same leased frame
// corrupts the pools. Release on a frame that was never leased (e.g. one
// built for WriteFrame) is a no-op, and Release on nil is safe.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	if f.body != nil {
		putBody(f.body)
		f.body = nil
	}
	f.Payload = nil
	if f.leased {
		f.leased = false
		activeLeases.Add(-1)
		recvFramePool.Put(f)
	}
}

// recvFramePool recycles the Frame structs handed out by ReadFrame, so the
// steady-state read path allocates neither the frame nor (via bodyPools)
// its body.
var recvFramePool = sync.Pool{
	New: func() any { return &Frame{} },
}

// activeLeases counts leased frames not yet released — the invariant the
// lease tests assert drains back to its baseline after every exchange.
var activeLeases atomic.Int64

// Frame bodies are pooled in power-of-two size classes from 1<<minBodyBits
// up to 1<<maxBodyBits (1 MiB). Bodies above the cap are allocated fresh
// and never pooled: one giant batch must not pin a giant buffer in the
// pool forever (the same retention rule container.putEncBuf applies on the
// encode side).
const (
	minBodyBits = 9
	maxBodyBits = 20
	// maxPooledBody is the largest frame body the read path recycles.
	maxPooledBody = 1 << maxBodyBits
)

var bodyPools [maxBodyBits - minBodyBits + 1]sync.Pool

// bodyClass maps a body size (2 ≤ n ≤ maxPooledBody) to its pool index.
func bodyClass(n int) int {
	b := bits.Len(uint(n - 1)) // smallest power-of-two exponent covering n
	if b < minBodyBits {
		return 0
	}
	return b - minBodyBits
}

// getBody returns a pooled buffer with capacity ≥ n, or nil when n exceeds
// maxPooledBody (the caller allocates fresh and the body stays unpooled).
func getBody(n int) *[]byte {
	if n > maxPooledBody {
		return nil
	}
	c := bodyClass(n)
	if b, ok := bodyPools[c].Get().(*[]byte); ok {
		return b
	}
	b := make([]byte, 1<<(minBodyBits+c))
	return &b
}

func putBody(b *[]byte) {
	n := cap(*b)
	if n < 1<<minBodyBits || n > maxPooledBody || n&(n-1) != 0 {
		return // not one of ours; drop rather than poison a class
	}
	*b = (*b)[:n]
	bodyPools[bodyClass(n)].Put(b)
}

// frame header: 4 length + 8 id + 1 type + 1 method = 14 bytes; the length
// field counts the 10 header bytes after it plus the payload.
const headerLen = 14

// ErrFrameTooLarge is returned when a frame exceeds MaxFrameSize.
var ErrFrameTooLarge = errors.New("rpc: frame exceeds maximum size")

// inlineFrameMax is the largest frame (header + payload) that WriteFrame
// copies into one pooled buffer for a single Write. Larger payloads go out
// via net.Buffers (writev on TCP) without copying at all.
const inlineFrameMax = 4096

// framePool recycles header/body scratch buffers so the frame hot paths
// allocate as little as possible: on the write side small frames borrow a
// full inline buffer and large frames borrow it for the 14-byte header of
// their writev pair; on the read side ReadFrame borrows it for the 4-byte
// length prefix.
var framePool = sync.Pool{
	New: func() any { return &frameBuf{} },
}

type frameBuf struct {
	b    [inlineFrameMax]byte
	vecs net.Buffers // scratch iovec for the writev path
}

// WriteFrame serializes f to w without allocating or copying large
// payloads. Frames up to inlineFrameMax are sent as one Write from a
// pooled buffer; larger frames are sent as a (header, payload) pair via
// net.Buffers, which collapses to a single writev on net.Conn. Callers
// serializing concurrent writers with a mutex therefore still cannot
// interleave frames: both paths complete under one WriteFrame call.
func WriteFrame(w io.Writer, f *Frame) error {
	if len(f.Payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	fb := framePool.Get().(*frameBuf)
	hdr := fb.b[:headerLen]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(10+len(f.Payload)))
	binary.LittleEndian.PutUint64(hdr[4:12], f.ID)
	hdr[12] = byte(f.Type)
	hdr[13] = byte(f.Method)

	var err error
	if headerLen+len(f.Payload) <= inlineFrameMax {
		n := copy(fb.b[headerLen:], f.Payload)
		_, err = w.Write(fb.b[:headerLen+n])
	} else {
		fb.vecs = append(fb.vecs[:0], hdr, f.Payload)
		orig := fb.vecs // WriteTo consumes the field; keep the backing array
		_, err = fb.vecs.WriteTo(w)
		orig[0], orig[1] = nil, nil // don't pin the payload in the pool
		fb.vecs = orig[:0]
	}
	framePool.Put(fb)
	return err
}

// NewReader returns the buffered reader a connection's read loop hands to
// ReadFrame: off a bare socket every frame costs two reads (prefix, body);
// through 64 KiB of buffer, frames that arrived together share one. bufio
// reads a body larger than its buffer straight into the destination.
func NewReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, 64<<10) }

// ReadFrame reads one frame from r.
//
// The 4-byte length prefix is read into a pooled scratch buffer (a
// stack-declared array would escape through the io.Reader interface and
// cost an allocation per frame). The returned frame is leased: its body
// comes from a size-classed pool (bodies ≤ 1 MiB) and the Frame struct
// from recvFramePool, so the steady-state read path allocates nothing —
// the consumer must call Frame.Release exactly once when it is done with
// the payload. The release points are fixed by contract: the client
// releases a response after decoding it (Remote.PredictViewContext),
// the server releases a request after the Handler's response has been
// written, and responses to abandoned calls are released by whoever
// finds them (Client.readLoop or the cancelled caller's drain).
func ReadFrame(r io.Reader) (*Frame, error) {
	fb := framePool.Get().(*frameBuf)
	_, err := io.ReadFull(r, fb.b[:4])
	n := binary.LittleEndian.Uint32(fb.b[:4])
	framePool.Put(fb)
	if err != nil {
		return nil, err
	}
	if n < 10 {
		return nil, fmt.Errorf("rpc: short frame length %d", n)
	}
	if n-10 > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	var body []byte
	bp := getBody(int(n))
	if bp != nil {
		body = (*bp)[:n]
	} else {
		body = make([]byte, n) // above maxPooledBody: fresh, never pooled
	}
	if _, err := io.ReadFull(r, body); err != nil {
		if bp != nil {
			putBody(bp)
		}
		return nil, err
	}
	f := recvFramePool.Get().(*Frame)
	f.ID = binary.LittleEndian.Uint64(body[0:8])
	f.Type = MsgType(body[8])
	f.Method = Method(body[9])
	f.Payload = body[10:n]
	f.body = bp
	f.leased = true
	activeLeases.Add(1)
	return f, nil
}
