package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clipper/internal/adapter/stream"
	"clipper/internal/gateway"
)

// Op outcomes. Anything but statusOK counts as attempted, failed, and
// missing the SLO.
const (
	statusPending uint8 = iota // no reply by the end of the phase
	statusOK
	statusFailed // transport or gateway error, shed, refused
	statusWrong  // a reply the oracle rejects
)

// opRecord is one op as the generator saw it.
type opRecord struct {
	t0      int64 // ns after phase start: due time (open loop) or send time (closed loop)
	lat     int64 // ns from t0 to the reply
	late    int64 // open loop: ns the send ran behind its due time
	input   int32
	kind    uint8
	status  uint8
	missing uint8 // models that missed the straggler deadline
	deflt   bool  // reply carried the default label
}

const (
	maxClosedOps = 1 << 19 // records per stream connection per closed phase
	openSlots    = 4096    // pre-made callback slots per connection in open loop
	drainTimeout = 5 * time.Second
	appName      = "bench"
)

// phaseSpec is one phase of a run. rate 0 is a closed loop with a fixed
// window of outstanding ops per connection, ended by time or — for
// warm-up — by count.
type phaseSpec struct {
	name   string
	durNs  int64
	rate   float64 // open loop: ops/s over all connections
	count  int     // closed loop: ops per connection, 0 = run for durNs
	window int     // closed loop: outstanding ops per connection
	plans  []*plan // one per connection
}

// phaseResult is what the generator recorded, per connection.
type phaseResult struct {
	spec       *phaseSpec
	start      time.Time
	ops        [][]opRecord // one per connection
	elapsedNs  int64
	slotAllocs int64   // open loop: slots made on the send path (pre-made ones ran out)
	cpuWinNs   []int64 // process user+sys CPU in each window of a timed phase
}

func (r *phaseResult) all() []opRecord {
	var out []opRecord
	for _, o := range r.ops {
		out = append(out, o...)
	}
	return out
}

// check judges one predict reply against the oracle.
func (n *node) check(r *opRecord, label, missing int, err error) uint8 {
	if err != nil {
		return statusFailed
	}
	if n.w.ensemble {
		if label < 0 || label >= numClasses || missing > len(n.models) {
			return statusWrong
		}
	} else if int32(label) != n.oracle[r.input] {
		return statusWrong
	}
	return statusOK
}

// ---- stream ----

// slot is one outstanding op on a stream connection. Its callback is made
// once, so sending allocates nothing per request.
type slot struct {
	c   *streamClient
	seq int
	cb  func(gateway.PredictResult, error)
}

type streamClient struct {
	n    *node
	conn *stream.Conn
	fb   chan *slot // feedback ops for the blocking workers
	fbWG sync.WaitGroup

	// Per phase.
	free      chan *slot
	rec       []opRecord
	plan      *plan
	start     time.Time
	completed atomic.Int64
}

const fbWorkers = 8

func dialStream(n *node, addr string) (*streamClient, error) {
	conn, err := stream.Dial(addr, time.Second)
	if err != nil {
		return nil, err
	}
	c := &streamClient{n: n, conn: conn}
	if n.w.feedbackFrac > 0 {
		// stream.Conn.Feedback blocks, so it runs on a fixed set of
		// workers; the pacer never waits for a reply. The channel holds
		// every slot an open-loop phase can have outstanding.
		c.fb = make(chan *slot, openSlots)
		for i := 0; i < fbWorkers; i++ {
			c.fbWG.Add(1)
			go c.feedbackWorker()
		}
	}
	return c, nil
}

func (c *streamClient) close() {
	if c.fb != nil {
		close(c.fb)
		c.fbWG.Wait()
	}
	c.conn.Close()
}

func (c *streamClient) newSlot() *slot {
	s := &slot{c: c}
	s.cb = func(res gateway.PredictResult, err error) {
		r := &c.rec[s.seq]
		r.missing, r.deflt = uint8(res.Missing), res.UsedDefault
		c.finish(s, c.n.check(r, res.Label, res.Missing, err))
	}
	return s
}

// finish stamps the reply time and hands the slot back. Counting the op
// complete comes last: once drain has seen the count, no callback of this
// phase touches the client again, and the next phase may reset it.
func (c *streamClient) finish(s *slot, status uint8) {
	r := &c.rec[s.seq]
	r.lat = int64(time.Since(c.start)) - r.t0
	r.status = status
	select {
	case c.free <- s:
	default: // a slot made on the send path; the pre-made ones suffice again
	}
	c.completed.Add(1)
}

func (c *streamClient) feedbackWorker() {
	defer c.fbWG.Done()
	for s := range c.fb {
		r := &c.rec[s.seq]
		k := s.seq % c.plan.len()
		err := c.conn.Feedback(context.Background(), appName, c.n.ctxNames[c.plan.ctx[k]],
			c.n.truth[r.input], c.n.pool[r.input])
		status := statusOK
		if err != nil {
			status = statusFailed
		}
		c.finish(s, status)
	}
}

// send issues op seq at t0 on slot s. It allocates nothing of its own.
func (c *streamClient) send(s *slot, seq int, t0 int64) {
	k := seq % c.plan.len()
	r := &c.rec[seq]
	r.t0, r.kind, r.input = t0, c.plan.kind[k], c.plan.input[k]
	s.seq = seq
	if r.kind == opFeedback {
		c.fb <- s
		return
	}
	c.conn.Go(appName, c.n.ctxNames[c.plan.ctx[k]], c.n.pool[r.input], s.cb)
}

func (c *streamClient) run(spec *phaseSpec, p *plan, start time.Time) ([]opRecord, int64) {
	c.plan, c.start = p, start
	c.completed.Store(0)
	if spec.rate > 0 {
		return c.runOpen(p)
	}
	return c.runClosed(spec), 0
}

func (c *streamClient) runClosed(spec *phaseSpec) []opRecord {
	window := spec.window
	limit := maxClosedOps
	if spec.count > 0 {
		limit = spec.count
	}
	c.rec = make([]opRecord, limit)
	c.free = make(chan *slot, window)
	for i := 0; i < window; i++ {
		c.free <- c.newSlot()
	}
	seq := 0
	for ; seq < limit; seq++ {
		s := <-c.free
		now := int64(time.Since(c.start))
		if spec.count == 0 && now >= spec.durNs {
			c.free <- s
			break
		}
		c.send(s, seq, now)
	}
	c.drain(seq)
	return c.rec[:seq]
}

func (c *streamClient) runOpen(p *plan) ([]opRecord, int64) {
	c.rec = make([]opRecord, p.len())
	c.free = make(chan *slot, openSlots)
	for i := 0; i < openSlots; i++ {
		c.free <- c.newSlot()
	}
	var allocs int64
	for i, due := range p.due {
		now := int64(time.Since(c.start))
		if d := due - now; d > 0 {
			// Sleep to the due time; never spin, never a goroutine per arrival.
			time.Sleep(time.Duration(d))
			now = int64(time.Since(c.start))
		}
		var s *slot
		select {
		case s = <-c.free:
		default:
			s = c.newSlot()
			allocs++
		}
		c.rec[i].late = now - due
		c.send(s, i, due) // latency counts from when the op was due
	}
	c.drain(p.len())
	return c.rec, allocs
}

// drain waits for the replies to the issued ops. Ops still unanswered
// after drainTimeout stay statusPending; the connection is closed so no
// late callback writes while the records are read.
func (c *streamClient) drain(issued int) {
	deadline := time.Now().Add(drainTimeout)
	for c.completed.Load() < int64(issued) {
		if time.Now().After(deadline) {
			c.conn.Close()
			for c.completed.Load() < int64(issued) && time.Now().Before(deadline.Add(time.Second)) {
				time.Sleep(time.Millisecond)
			}
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// ---- HTTP ----

// httpClient is one keep-alive HTTP/1.1 connection driven by blocking
// calls, one request outstanding: the direct drive of the REST adapter.
type httpClient struct {
	nc net.Conn
	br *bufio.Reader
}

func dialHTTP(addr string) (*httpClient, error) {
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	if tcp, ok := nc.(*net.TCPConn); ok {
		tcp.SetNoDelay(true)
	}
	return &httpClient{nc: nc, br: bufio.NewReaderSize(nc, 4096)}, nil
}

func (c *httpClient) close() { c.nc.Close() }

// encodeHTTPRequest spells one predict as a whole HTTP/1.1 request.
func encodeHTTPRequest(cctx string, x []float64) []byte {
	body := make([]byte, 0, 8*len(x)+64)
	body = append(body, `{"app":"`+appName+`","context":"`+cctx+`","input":[`...)
	for i, v := range x {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendFloat(body, v, 'g', -1, 64)
	}
	body = append(body, "]}"...)
	req := make([]byte, 0, len(body)+128)
	req = append(req, "POST /api/v1/predict HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	req = strconv.AppendInt(req, int64(len(body)), 10)
	req = append(req, "\r\n\r\n"...)
	return append(req, body...)
}

var errHTTP = errors.New("http: malformed reply")

// roundTrip sends one prepared request and parses the reply's label and
// missing count.
func (c *httpClient) roundTrip(req []byte) (label, missing int, err error) {
	if _, err = c.nc.Write(req); err != nil {
		return 0, 0, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, 0, err
	}
	ok := bytes.HasPrefix(line, []byte("HTTP/1.1 200"))
	length := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, 0, err
		}
		if len(line) <= 2 {
			break
		}
		if v, found := bytes.CutPrefix(line, []byte("Content-Length: ")); found {
			length, err = strconv.Atoi(string(bytes.TrimSpace(v)))
			if err != nil {
				return 0, 0, errHTTP
			}
		}
	}
	if length < 0 {
		return 0, 0, errHTTP
	}
	body, err := c.br.Peek(length)
	if err != nil {
		return 0, 0, err
	}
	defer c.br.Discard(length)
	if !ok {
		return 0, 0, fmt.Errorf("http: %s", bytes.TrimSpace(body))
	}
	if label, err = jsonInt(body, `"label":`); err != nil {
		return 0, 0, err
	}
	missing, err = jsonInt(body, `"missing":`)
	return label, missing, err
}

// jsonInt reads the integer after key in a flat JSON object.
func jsonInt(body []byte, key string) (int, error) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, errHTTP
	}
	b := body[i+len(key):]
	end := 0
	for end < len(b) && (b[end] == '-' || (b[end] >= '0' && b[end] <= '9')) {
		end++
	}
	return strconv.Atoi(string(b[:end]))
}

// runPhase drives every connection through one phase and gathers the
// records. CPU is the whole process — node, containers and generator —
// read at every throughput-window boundary of a timed phase.
func (n *node) runPhase(spec *phaseSpec) *phaseResult {
	res := &phaseResult{spec: spec, ops: make([][]opRecord, len(n.clients))}
	var wg sync.WaitGroup
	start := time.Now()
	res.start = start
	if spec.durNs > 0 {
		res.cpuWinNs = make([]int64, rateWindows(spec.durNs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := cpuTimeNs()
			for w := range res.cpuWinNs {
				time.Sleep(time.Until(start.Add(time.Duration(int64(w+1) * spec.durNs / int64(len(res.cpuWinNs))))))
				now := cpuTimeNs()
				res.cpuWinNs[w], last = now-last, now
			}
		}()
	}
	for i, c := range n.clients {
		wg.Add(1)
		go func(i int, c *streamClient) {
			defer wg.Done()
			ops, allocs := c.run(spec, spec.plans[i], start)
			res.ops[i] = ops
			atomic.AddInt64(&res.slotAllocs, allocs)
		}(i, c)
	}
	wg.Wait()
	res.elapsedNs = int64(time.Since(start))
	return res
}
