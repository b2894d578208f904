package statestore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"clipper/internal/rpc"
)

// FuzzReplayLog feeds arbitrary bytes to the log replayer: it must never
// panic, never report a valid prefix longer than the input, and must
// round-trip records produced by the real writer.
func FuzzReplayLog(f *testing.F) {
	// Seed with real-writer output so the fuzzer starts from valid logs.
	var seed bytes.Buffer
	w := bufio.NewWriter(&seed)
	for _, r := range []struct {
		op  byte
		key string
		val []byte
	}{
		{opSet, "user/1", []byte("alpha")},
		{opSet, "user/2", nil},
		{opDel, "user/1", nil},
	} {
		w.WriteByte(r.op)
		binary.Write(w, binary.LittleEndian, uint16(len(r.key)))
		w.WriteString(r.key)
		if r.op == opSet {
			binary.Write(w, binary.LittleEndian, uint32(len(r.val)))
			w.Write(r.val)
		}
	}
	w.Flush()
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{'Z', 0, 0})
	f.Add([]byte{'S', 1, 0, 'k', 255, 255, 255, 255}) // oversize value length
	f.Add(seed.Bytes()[:seed.Len()-2])                // torn tail

	f.Fuzz(func(t *testing.T, data []byte) {
		mem := newMemStore()
		valid, live, torn, err := replayLog(bytes.NewReader(data), mem)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid offset %d outside [0, %d]", valid, len(data))
		}
		// The live count is the size of a snapshot of what replay left.
		var snapshot int64
		keys, _ := mem.Keys("")
		for _, k := range keys {
			snapshot += liveLen(mem, k)
		}
		if live != snapshot || live > valid {
			t.Fatalf("live = %d, want the snapshot's %d (valid %d)", live, snapshot, valid)
		}
		if err != nil && torn {
			t.Fatalf("torn tail must not be a hard error: %v", err)
		}
		if err != nil || torn {
			return
		}
		// Clean replay: the valid prefix must itself replay to the same
		// state (replay is deterministic and prefix-closed).
		mem2 := newMemStore()
		valid2, _, torn2, err2 := replayLog(bytes.NewReader(data[:valid]), mem2)
		if valid2 != valid || torn2 || err2 != nil {
			t.Fatalf("replay of valid prefix diverged: %d %v %v", valid2, torn2, err2)
		}
		if mem.Len() != mem2.Len() {
			t.Fatalf("state diverged: %d vs %d keys", mem.Len(), mem2.Len())
		}
	})
}

// FuzzStoreHandler feeds arbitrary (method, payload) pairs to the server's
// handler over a memStore: it must never panic, a set payload that decodes
// must then be returned by get, and every keys response must parse with
// the client's decoder.
func FuzzStoreHandler(f *testing.F) {
	f.Add(byte(methodSet), appendSet(nil, "user/1", []byte("alpha")))
	f.Add(byte(methodSet), appendSet(nil, "has space\n", nil))
	f.Add(byte(methodSet), []byte{0x80})        // length cut short
	f.Add(byte(methodSet), []byte{5, 'k', 'e'}) // key cut short
	f.Add(byte(methodGet), []byte("user/1"))
	f.Add(byte(methodDel), []byte("user/1"))
	f.Add(byte(methodKeys), []byte("user/"))
	f.Add(byte(0xff), []byte{})

	f.Fuzz(func(t *testing.T, method byte, payload []byte) {
		store := newMemStore()
		store.Set("user/0", []byte("seed"))
		h := handler(store)
		resp, err := h(rpc.Method(method), payload, nil)
		switch rpc.Method(method) {
		case methodSet:
			key, value, ok := cutField(payload)
			if ok != (err == nil) {
				t.Fatalf("set %q: decodes %v, handler err %v", payload, ok, err)
			}
			if !ok {
				break
			}
			got, err := h(methodGet, key, nil)
			if err != nil || len(got) == 0 || got[0] != 1 || !bytes.Equal(got[1:], value) {
				t.Fatalf("get %q after set = %q %v, want %q", key, got, err, value)
			}
		case methodKeys:
			if err != nil {
				t.Fatalf("keys %q: %v", payload, err)
			}
			if _, err := decodeKeys(resp); err != nil {
				t.Fatalf("keys %q response %q: %v", payload, resp, err)
			}
		}
		all, err := h(methodKeys, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		keys, err := decodeKeys(all)
		if err != nil || len(keys) != store.Len() {
			t.Fatalf("keys response %q parses to %q %v, store holds %d", all, keys, err, store.Len())
		}
	})
}
