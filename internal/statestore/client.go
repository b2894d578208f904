package statestore

import (
	"context"
	"errors"
	"time"

	"clipper/internal/rpc"
)

// Client is a Store backed by a remote statestore server, reached over one
// rpc connection: concurrent calls multiplex on it, and a lost connection
// is redialed with the rpc pool's backoff. Calls made while it is down
// fail fast with rpc.ErrNoConns.
type Client struct {
	pool *rpc.Pool
}

var _ Store = (*Client)(nil)

// errEmptyKey refuses the one key a Client does not send.
var errEmptyKey = errors.New("statestore: empty key")

// DialStore connects to a statestore server at addr.
func DialStore(addr string, timeout time.Duration) (*Client, error) {
	pool, err := rpc.DialPool(addr, timeout, 1)
	if err != nil {
		return nil, err
	}
	return &Client{pool: pool}, nil
}

// call round-trips one request and returns a copy of the response,
// taken before its leased frame is released.
func (c *Client) call(method rpc.Method, payload []byte) ([]byte, error) {
	p, err := c.pool.Call(context.TODO(), method, payload)
	if err != nil {
		return nil, err
	}
	resp := append([]byte(nil), p.Data...)
	p.Release()
	return resp, nil
}

// Get implements Store.
func (c *Client) Get(key string) ([]byte, bool, error) {
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
func (c *Client) Set(key string, value []byte) error {
	if key == "" {
		return errEmptyKey
	}
	_, err := c.call(methodSet, appendSet(nil, key, value))
	return err
}

// Delete implements Store.
func (c *Client) Delete(key string) error {
	if key == "" {
		return errEmptyKey
	}
	_, err := c.call(methodDel, []byte(key))
	return err
}

// Keys implements Store.
func (c *Client) Keys(prefix string) ([]string, error) {
	resp, err := c.call(methodKeys, []byte(prefix))
	if err != nil {
		return nil, err
	}
	return decodeKeys(resp)
}

// Ping checks server liveness.
func (c *Client) Ping() error { return c.pool.Ping(context.TODO()) }

// Close implements Store.
func (c *Client) Close() error { return c.pool.Close() }
