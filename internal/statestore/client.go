package statestore

import (
	"context"
	"errors"
	"time"

	"clipper/internal/rpc"
)

// client is a Store backed by a remote statestore server, reached over one
// rpc connection: concurrent calls multiplex on it, and a lost connection
// is redialed with the rpc pool's backoff. Calls made while it is down
// fail fast with the pool's "no live connections" error.
type client struct {
	pool *rpc.Pool
}

// errEmptyKey refuses the one key the client does not send.
var errEmptyKey = errors.New("statestore: empty key")

// DialStore connects to a statestore server at addr.
func DialStore(addr string, timeout time.Duration) (Store, error) {
	pool, err := rpc.DialPool(addr, timeout, 1)
	if err != nil {
		return nil, err
	}
	return &client{pool: pool}, nil
}

// call round-trips one request and returns a copy of the response,
// taken before its leased frame is released.
func (c *client) call(method rpc.Method, payload []byte) ([]byte, error) {
	p, err := c.pool.Call(context.TODO(), method, payload)
	if err != nil {
		return nil, err
	}
	resp := append([]byte(nil), p.Data...)
	p.Release()
	return resp, nil
}

// Get implements Store.
func (c *client) Get(key string) ([]byte, bool, error) {
	if key == "" {
		return nil, false, errEmptyKey
	}
	resp, err := c.call(methodGet, []byte(key))
	if err != nil || len(resp) == 0 || resp[0] == 0 {
		return nil, false, err
	}
	return resp[1:], true, nil
}

// Set implements Store.
func (c *client) Set(key string, value []byte) error {
	if key == "" {
		return errEmptyKey
	}
	_, err := c.call(methodSet, appendSet(nil, key, value))
	return err
}

// Delete implements Store.
func (c *client) Delete(key string) error {
	if key == "" {
		return errEmptyKey
	}
	_, err := c.call(methodDel, []byte(key))
	return err
}

// Keys implements Store.
func (c *client) Keys(prefix string) ([]string, error) {
	resp, err := c.call(methodKeys, []byte(prefix))
	if err != nil {
		return nil, err
	}
	return decodeKeys(resp)
}

// Ping checks server liveness.
func (c *client) Ping() error { return c.pool.Ping(context.TODO()) }

// Close implements Store.
func (c *client) Close() error { return c.pool.Close() }
