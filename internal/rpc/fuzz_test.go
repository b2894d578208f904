package rpc

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

// The RPC layer reads length-prefixed frames from the network; adversarial
// or corrupt bytes must never panic or over-allocate — only return errors.

func TestReadFrameNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		r := bytes.NewReader(buf)
		for {
			if _, err := ReadFrame(r); err != nil {
				break
			}
		}
	}
}

func TestReadFrameRejectsHugeLengthWithoutAllocating(t *testing.T) {
	// A 4 GiB length prefix must be rejected before any body read.
	buf := []byte{0xfe, 0xff, 0xff, 0xff}
	r := &countingReader{r: bytes.NewReader(buf)}
	if _, err := ReadFrame(r); err == nil {
		t.Fatal("huge frame accepted")
	}
	if r.read > 4 {
		t.Fatalf("read %d bytes past the length prefix", r.read)
	}
}

type countingReader struct {
	r    io.Reader
	read int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read += n
	return n, err
}

func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{ID: 1, Type: MsgRequest, Payload: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if _, err := ReadFrame(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must only
// ever return frames or errors — no panics, no over-allocation past the
// length prefix — and every frame it does return must be internally
// consistent and releasable (the lease contract holds even for garbage
// input). Run the smoke in CI with -fuzz=FuzzReadFrame -fuzztime=5s.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	WriteFrame(&seed, &Frame{ID: 3, Type: MsgResponse, Method: MethodPredict, Payload: []byte("seed")})
	f.Add(seed.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})        // huge length prefix
	f.Add([]byte{2, 0, 0, 0, 0, 0})              // short frame length
	f.Add(seed.Bytes()[:seed.Len()-1])           // truncated body
	f.Add(append(seed.Bytes(), seed.Bytes()...)) // two frames back to back
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			fr, err := ReadFrame(r)
			if err != nil {
				return
			}
			if len(fr.Payload) > maxFrameSize {
				t.Fatalf("payload %d exceeds maxFrameSize", len(fr.Payload))
			}
			fr.Release()
		}
	})
}

func TestFrameStreamProperty(t *testing.T) {
	// Property: any sequence of frames written back to back reads back in
	// order with contents intact.
	f := func(payloads [][]byte) bool {
		var buf bytes.Buffer
		for i, p := range payloads {
			if len(p) > 1<<16 {
				p = p[:1<<16]
			}
			frame := &Frame{ID: uint64(i), Type: MsgResponse, Method: MethodPredict, Payload: p}
			if err := WriteFrame(&buf, frame); err != nil {
				return false
			}
		}
		for i, p := range payloads {
			if len(p) > 1<<16 {
				p = p[:1<<16]
			}
			got, err := ReadFrame(&buf)
			if err != nil {
				return false
			}
			if got.ID != uint64(i) || !bytes.Equal(got.Payload, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
