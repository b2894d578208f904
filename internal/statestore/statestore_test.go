package statestore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"clipper/internal/rpc"
)

func TestMemStoreBasics(t *testing.T) {
	s := NewMemStore()
	if _, ok, _ := s.Get("missing"); ok {
		t.Fatal("empty store must miss")
	}
	if err := s.Set("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("a")
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal("deleting missing key should not error")
	}
}

func TestMemStoreCopiesValues(t *testing.T) {
	s := NewMemStore()
	val := []byte("abc")
	s.Set("k", val)
	val[0] = 'Z'
	got, _, _ := s.Get("k")
	if string(got) != "abc" {
		t.Fatal("store aliased caller's buffer on Set")
	}
	got[0] = 'Q'
	got2, _, _ := s.Get("k")
	if string(got2) != "abc" {
		t.Fatal("store aliased its buffer on Get")
	}
}

func TestMemStoreKeysPrefix(t *testing.T) {
	s := NewMemStore()
	for _, k := range []string{"ctx/u1", "ctx/u2", "other/x"} {
		s.Set(k, []byte("v"))
	}
	keys, err := s.Keys("ctx/")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"ctx/u1", "ctx/u2"}) {
		t.Fatalf("Keys = %v", keys)
	}
	all, _ := s.Keys("")
	if len(all) != 3 {
		t.Fatalf("all keys = %v", all)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestMemStoreConcurrent(t *testing.T) {
	s := NewMemStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("g%d/k%d", g, i)
				s.Set(k, []byte{byte(i)})
				if v, ok, _ := s.Get(k); !ok || v[0] != byte(i) {
					t.Errorf("lost write %s", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 1600 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func startStoreServer(t *testing.T) (*Client, func()) {
	t.Helper()
	srv := NewServer(NewMemStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialStore(addr, time.Second)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return c, func() {
		c.Close()
		srv.Close()
	}
}

func TestClientServerRoundTrip(t *testing.T) {
	c, stop := startStoreServer(t)
	defer stop()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get("missing"); err != nil || ok {
		t.Fatalf("missing Get = %v %v", ok, err)
	}
	if err := c.Set("user/7", []byte{0, 1, 2, 255}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("user/7")
	if err != nil || !ok || !bytes.Equal(v, []byte{0, 1, 2, 255}) {
		t.Fatalf("Get = %v %v %v", v, ok, err)
	}
	if err := c.Delete("user/7"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get("user/7"); ok {
		t.Fatal("delete did not take effect")
	}
}

func TestClientServerBinaryValuesWithNewlines(t *testing.T) {
	c, stop := startStoreServer(t)
	defer stop()
	val := []byte("line1\nline2\r\n\x00binary")
	if err := c.Set("k", val); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get("k")
	if err != nil || !ok || !bytes.Equal(got, val) {
		t.Fatalf("binary value corrupted: %q", got)
	}
}

func TestClientServerEmptyValue(t *testing.T) {
	c, stop := startStoreServer(t)
	defer stop()
	if err := c.Set("k", nil); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("k")
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty value = %v %v %v", v, ok, err)
	}
}

func TestClientServerKeys(t *testing.T) {
	c, stop := startStoreServer(t)
	defer stop()
	for _, k := range []string{"s/a", "s/b", "t/c"} {
		if err := c.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := c.Keys("s/")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"s/a", "s/b"}) {
		t.Fatalf("Keys = %v", keys)
	}
	none, err := c.Keys("zzz")
	if err != nil || len(none) != 0 {
		t.Fatalf("Keys(zzz) = %v %v", none, err)
	}
}

// TestClientRejectsBadKeys: the empty key is the one a client refuses;
// any other key round-trips, whitespace included, as it would locally.
func TestClientRejectsBadKeys(t *testing.T) {
	c, stop := startStoreServer(t)
	defer stop()
	if err := c.Set("", []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, _, err := c.Get(""); err == nil {
		t.Fatal("Get of the empty key accepted")
	}
	if err := c.Delete(""); err == nil {
		t.Fatal("Delete of the empty key accepted")
	}
	const k = "has space\nand newline"
	if err := c.Set(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get(k); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get(%q) = %q %v %v", k, v, ok, err)
	}
	if keys, err := c.Keys("has "); err != nil || !reflect.DeepEqual(keys, []string{k}) {
		t.Fatalf("Keys = %q %v", keys, err)
	}
}

// TestClientRedialsRestartedServer: the client's connection is a pool of
// one, so a store restarted on the same address is reached again without
// a new DialStore.
func TestClientRedialsRestartedServer(t *testing.T) {
	store := NewMemStore()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialStore(addr, testDialTimeout)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	restarted := NewServer(store)
	if _, err := restarted.Listen(addr); err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		v, ok, err := c.Get("k")
		if err == nil {
			if !ok || string(v) != "v" {
				t.Fatalf("Get after restart = %q %v", v, ok)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("Get still failing 5s after the restart: %v", err)
		}
	}
}

func TestClientConcurrent(t *testing.T) {
	c, stop := startStoreServer(t)
	defer stop()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("g%d/k%d", g, i)
				want := []byte(fmt.Sprintf("value-%d-%d", g, i))
				if err := c.Set(k, want); err != nil {
					t.Error(err)
					return
				}
				got, ok, err := c.Get(k)
				if err != nil || !ok || !bytes.Equal(got, want) {
					t.Errorf("round trip %s: %q %v %v", k, got, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServerUnknownCommand: an unknown method and a truncated set payload,
// sent through a raw rpc client, each get an error frame, and the
// connection keeps serving.
func TestServerUnknownCommand(t *testing.T) {
	srv := NewServer(NewMemStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := rpc.Dial(addr, testDialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for _, req := range []struct {
		method  rpc.Method
		payload []byte
	}{
		{0x7f, nil},
		{methodSet, appendSet(nil, "key", []byte("v"))[:3]}, // key cut short
		{methodSet, []byte{0x80}},                           // length cut short
	} {
		p, err := c.Call(ctx, req.method, req.payload)
		p.Release()
		var remote *rpc.RemoteError
		if !errors.As(err, &remote) {
			t.Fatalf("method %#x payload %q: err = %v, want a remote error", req.method, req.payload, err)
		}
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("connection lost after error frames: %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(NewMemStore())
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

func TestStorePropertySetGet(t *testing.T) {
	s := NewMemStore()
	f := func(key uint32, val []byte) bool {
		k := fmt.Sprintf("k%d", key)
		if err := s.Set(k, val); err != nil {
			return false
		}
		got, ok, err := s.Get(k)
		return err == nil && ok && bytes.Equal(got, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// testDialTimeout is the dial timeout used by network tests.
const testDialTimeout = time.Second
