// Package statestore provides the external state store that Clipper's
// model selection layer uses for per-context (per-user / per-session)
// selection state (paper §5.3).
//
// The paper uses Redis; offline, this package provides an equivalent:
// NewMemStore, a concurrency-safe in-memory key-value store; FileStore, the
// same behind an append-only log; and NewServer and DialStore, which put
// any Store in a process of its own, as Redis would be. The server is an
// rpc.Server and the client an rpc.Pool, so the state store speaks the
// same frames as the model containers and the stream adapter; its four
// methods are tabled in the State store section of docs/ARCHITECTURE.md.
package statestore

import (
	"sort"
	"strings"
	"sync"
)

// Store is the key-value abstraction the selection layer persists context
// state in. Values are opaque bytes (serialized selection.State).
type Store interface {
	// Get returns the value for key and whether it exists.
	Get(key string) ([]byte, bool, error)
	// Set stores value under key, overwriting any prior value. value may
	// alias a leased rpc frame body (the server passes a request's payload
	// straight through), so Set must copy it and not retain value.
	Set(key string, value []byte) error
	// Delete removes key; deleting a missing key is not an error.
	Delete(key string) error
	// Keys returns the sorted keys with the given prefix.
	Keys(prefix string) ([]string, error)
	// Close releases resources.
	Close() error
}

// memStore is an in-memory Store, safe for concurrent use. The zero value
// is not usable; construct with newMemStore.
type memStore struct {
	mu   sync.RWMutex
	data map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() Store { return newMemStore() }

func newMemStore() *memStore { return &memStore{data: make(map[string][]byte)} }

// Get implements Store.
func (s *memStore) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// valueLen returns the length of key's value without copying it.
func (s *memStore) valueLen(key string) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	return len(v), ok
}

// Set implements Store.
func (s *memStore) Set(key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[key] = append([]byte(nil), value...)
	return nil
}

// Delete implements Store.
func (s *memStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, key)
	return nil
}

// Keys implements Store.
func (s *memStore) Keys(prefix string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Len returns the number of stored keys.
func (s *memStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Close implements Store (no-op for the in-memory store).
func (s *memStore) Close() error { return nil }
