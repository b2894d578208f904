package rpc

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// slowWriteConn delays every write, holding the client's write mutex long
// enough that concurrent calls observably queue behind each other.
type slowWriteConn struct {
	net.Conn
	delay time.Duration
}

func (c *slowWriteConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

func TestClientWriteQueueStats(t *testing.T) {
	srv := NewServer(echoHandler)
	defer srv.Close()
	cli, conn := net.Pipe()
	go srv.ServeConn(conn)
	c := NewClient(&slowWriteConn{Conn: cli, delay: 2 * time.Millisecond})
	defer c.Close()

	const calls = 4
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(context.Background(), MethodPredict, []byte("x")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	st := c.Stats()
	if !st.Alive {
		t.Fatal("client should be alive")
	}
	if st.Writes != calls {
		t.Fatalf("Writes = %d, want %d", st.Writes, calls)
	}
	// With a 2ms write hold and 4 concurrent calls, at least the last
	// writer queued behind an in-progress write.
	if st.WriteQueued < 1 {
		t.Fatalf("WriteQueued = %d, want >= 1", st.WriteQueued)
	}
	if st.WriteWait <= 0 {
		t.Fatalf("WriteWait = %v, want > 0", st.WriteWait)
	}
	if st.BytesInFlight != 0 {
		t.Fatalf("BytesInFlight = %d after all calls returned", st.BytesInFlight)
	}
}

func TestPoolStatsAggregatesSlots(t *testing.T) {
	d := newPipeDialer(echoHandler)
	p := newTestPool(t, d, 3)

	const calls = 9
	for i := 0; i < calls; i++ {
		if _, err := p.Call(context.Background(), MethodPredict, []byte("hi")); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Conns != 3 || st.Live != 3 {
		t.Fatalf("stats = %+v, want Conns=3 Live=3", st)
	}
	if st.Writes != calls {
		t.Fatalf("Writes = %d, want %d", st.Writes, calls)
	}

	// Kill one connection and block its redial: Live drops below Conns —
	// the degraded-replica signal the admin API surfaces.
	d.setFail(errors.New("no redial"))
	d.kill(0)
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Live != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("Live = %d, want 2", p.Stats().Live)
		}
		time.Sleep(time.Millisecond)
	}
	if st := p.Stats(); st.Conns != 3 {
		t.Fatalf("Conns = %d after loss, want 3", st.Conns)
	}
}
