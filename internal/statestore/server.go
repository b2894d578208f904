package statestore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"clipper/internal/rpc"
)

// The state store's rpc methods. Their ids are distinct from the model
// containers' (1, 2) and the stream adapter's (0x10–0x16), so a client
// dialed at the wrong server gets an error frame, not a misread payload.
//
//	get   key                            -> found u8 | value
//	set   uvarint(keyLen) | key | value  -> empty
//	del   key                            -> empty
//	keys  prefix                         -> n × (uvarint(keyLen) | key)
const (
	methodGet  rpc.Method = 0x20
	methodSet  rpc.Method = 0x21
	methodDel  rpc.Method = 0x22
	methodKeys rpc.Method = 0x23
)

// errMalformed answers a payload that does not decode.
var errMalformed = errors.New("statestore: malformed payload")

// NewServer returns an rpc server exposing store; Listen starts it.
// Liveness is the rpc ping. Shutdown answers every request already read
// before it returns, so call it before closing a FileStore.
func NewServer(store Store) *rpc.Server { return rpc.NewServer(handler(store)) }

// handler serves one request against store. A set hands store.Set a value
// that aliases the leased request payload (Store.Set must not retain it);
// every response is appended to scratch. A malformed payload or a store
// error becomes an rpc error frame.
func handler(store Store) rpc.Handler {
	return func(method rpc.Method, payload, scratch []byte) ([]byte, error) {
		switch method {
		case methodGet:
			v, ok, err := store.Get(string(payload))
			if !ok || err != nil {
				return append(scratch, 0), err
			}
			return append(append(scratch, 1), v...), nil
		case methodSet:
			key, value, ok := cutField(payload)
			if !ok {
				return nil, errMalformed
			}
			return scratch, store.Set(string(key), value)
		case methodDel:
			return scratch, store.Delete(string(payload))
		case methodKeys:
			keys, err := store.Keys(string(payload))
			for _, k := range keys {
				scratch = binary.AppendUvarint(scratch, uint64(len(k)))
				scratch = append(scratch, k...)
			}
			return scratch, err
		default:
			return nil, fmt.Errorf("statestore: unknown method %d", method)
		}
	}
}

// appendSet encodes a set request.
func appendSet(dst []byte, key string, value []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	return append(append(dst, key...), value...)
}

// decodeKeys parses a keys response.
func decodeKeys(p []byte) (keys []string, err error) {
	for len(p) > 0 {
		k, rest, ok := cutField(p)
		if !ok {
			return nil, errMalformed
		}
		keys, p = append(keys, string(k)), rest
	}
	return keys, nil
}

// cutField splits p into a uvarint-length-prefixed field and what follows
// it, both aliasing p.
func cutField(p []byte) (field, rest []byte, ok bool) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		return nil, nil, false
	}
	return p[w : w+int(n)], p[w+int(n):], true
}
