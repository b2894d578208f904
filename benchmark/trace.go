package main

import (
	"bufio"
	"context"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"clipper/internal/container"
	"clipper/internal/frameworks"
	"clipper/internal/selection"
	"clipper/internal/statestore"
)

// Span kinds. The name before the dot is the layer (module) the span
// times; all of them are taken from this package's files, around the
// calls into the layer.
const (
	spClientPredict = iota
	spClientFeedback
	spSelect
	spCombine
	spObserve
	spStoreGet
	spStoreSet
	spRPCCall
	spCompute
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client.predict", "client.feedback",
	"selection.select", "selection.combine", "selection.observe",
	"statestore.get", "statestore.set",
	"rpc.call", "container.compute",
}

// span is one timed interval at a layer boundary. Client spans carry the
// request id. Across the batching boundary requests lose their identity,
// so rpc.call and container.compute carry a batch id made from the first
// row's bits and the row count: the compute span's parent is the call
// span with the same bits.
type span struct {
	kind       uint8
	rows       int32
	start, end int64 // ns after the tracer's epoch
	id, parent uint64
}

func (s *span) dur() int64 { return s.end - s.start }

const maxSpans = 3 << 20

// tracer keeps spans in memory until the run ends. Sums and counts are
// kept beside the spans, so a full buffer loses detail, not totals.
type tracer struct {
	epoch   time.Time
	n       atomic.Int64
	spans   []span
	dropped atomic.Int64
	seq     atomic.Uint64
	sumNs   [numSpanKinds]atomic.Int64
	count   [numSpanKinds]atomic.Int64
	rows    [numSpanKinds]atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, maxSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(kind uint8, start, end int64, id, parent uint64, rows int) {
	t.sumNs[kind].Add(end - start)
	t.count[kind].Add(1)
	t.rows[kind].Add(int64(rows))
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{kind: kind, rows: int32(rows), start: start, end: end, id: id, parent: parent}
}

func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// reset forgets everything recorded so far (warm-up), keeping the epoch.
func (t *tracer) reset() {
	t.n.Store(0)
	t.dropped.Store(0)
	for k := 0; k < numSpanKinds; k++ {
		t.sumNs[k].Store(0)
		t.count[k].Store(0)
		t.rows[k].Store(0)
	}
}

// addClientSpans turns a phase's op records into client spans. Request
// ids are phase | connection | sequence.
func (t *tracer) addClientSpans(phase int, res *phaseResult) {
	phaseStart := int64(res.start.Sub(t.epoch))
	for c, ops := range res.ops {
		for i := range ops {
			o := &ops[i]
			if o.status == statusPending {
				continue
			}
			kind := uint8(spClientPredict)
			if o.kind == opFeedback {
				kind = spClientFeedback
			}
			id := uint64(phase)<<56 | uint64(c)<<48 | uint64(i)
			t.record(kind, phaseStart+o.t0, phaseStart+o.t0+o.lat, id, 0, 1)
		}
	}
}

// batchID names a batch by its first row's leading bits and its size, the
// only identity both ends of the container RPC can see.
func batchID(v *container.BatchView) uint64 {
	h := uint64(v.Rows()) * 0x9E3779B97F4A7C15
	if v.Rows() > 0 {
		row := v.Row(0)
		if len(row) > 16 {
			row = row[:16]
		}
		for _, x := range row {
			h = (h ^ math.Float64bits(x)) * 0x100000001B3
		}
	}
	return h &^ 1 // the low bit tells call (0) from compute (1)
}

// ---- wrappers, installed only in a traced run ----

// A nil tracer wraps nothing: the timed run has no wrapper on any path.

func (t *tracer) wrapPolicy(p selection.Policy) selection.Policy {
	if t == nil {
		return p
	}
	return &tracedPolicy{Policy: p, t: t}
}

func (t *tracer) wrapStore(s statestore.Store) statestore.Store {
	if t == nil {
		return s
	}
	if s == nil {
		s = statestore.NewMemStore()
	}
	return &tracedStore{Store: s, t: t}
}

func (t *tracer) wrapPredictor(p *frameworks.SimPredictor) container.Predictor {
	if t == nil {
		return p
	}
	return &tracedPredictor{SimPredictor: p, t: t}
}

func (t *tracer) wrapRemote(r *container.Remote) container.Predictor {
	return &tracedRemote{Remote: r, t: t}
}

type tracedPolicy struct {
	selection.Policy
	t *tracer
}

func (p *tracedPolicy) Select(s selection.State, u float64) []int {
	t0 := p.t.now()
	out := p.Policy.Select(s, u)
	p.t.record(spSelect, t0, p.t.now(), p.t.seq.Add(1), 0, len(out))
	return out
}

func (p *tracedPolicy) Combine(s selection.State, preds []*container.Prediction) (container.Prediction, float64) {
	t0 := p.t.now()
	pred, conf := p.Policy.Combine(s, preds)
	p.t.record(spCombine, t0, p.t.now(), p.t.seq.Add(1), 0, len(preds))
	return pred, conf
}

func (p *tracedPolicy) Observe(s selection.State, feedback int, preds []*container.Prediction) selection.State {
	t0 := p.t.now()
	out := p.Policy.Observe(s, feedback, preds)
	p.t.record(spObserve, t0, p.t.now(), p.t.seq.Add(1), 0, len(preds))
	return out
}

type tracedStore struct {
	statestore.Store
	t *tracer
}

func (s *tracedStore) Get(key string) ([]byte, bool, error) {
	t0 := s.t.now()
	v, ok, err := s.Store.Get(key)
	s.t.record(spStoreGet, t0, s.t.now(), s.t.seq.Add(1), 0, 1)
	return v, ok, err
}

func (s *tracedStore) Set(key string, value []byte) error {
	t0 := s.t.now()
	err := s.Store.Set(key, value)
	s.t.record(spStoreSet, t0, s.t.now(), s.t.seq.Add(1), 0, 1)
	return err
}

// tracedPredictor times the model's compute on the container side.
// Embedding keeps Info and the other predictor shapes on the same code.
type tracedPredictor struct {
	*frameworks.SimPredictor
	t *tracer
}

func (p *tracedPredictor) PredictView(v container.BatchView, out *container.PredictionView) error {
	id := batchID(&v)
	t0 := p.t.now()
	err := p.SimPredictor.PredictView(v, out)
	p.t.record(spCompute, t0, p.t.now(), id|1, id, v.Rows())
	return err
}

// tracedRemote times the container RPC on the Clipper side. Embedding
// keeps PoolStats, ConnHealth and pool tuning on the same code path.
type tracedRemote struct {
	*container.Remote
	t *tracer
}

func (r *tracedRemote) PredictViewContext(ctx context.Context, v *container.BatchView, deliver func(int, container.Prediction)) error {
	id, rows := batchID(v), v.Rows()
	t0 := r.t.now()
	err := r.Remote.PredictViewContext(ctx, v, deliver)
	r.t.record(spRPCCall, t0, r.t.now(), id, 0, rows)
	return err
}

// ---- analysis ----

// selfTime is a span's duration minus the part of it its children cover
// (overlapping children are counted once).
func selfTime(s span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, s.start), min(c.end, s.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), s.start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.dur() - covered
}

// rpcSelfNs pairs each rpc.call with the container.compute span that
// names it as parent and lies inside it, and returns the mean self time
// of the paired calls and how many were paired. Where two batches in
// flight share their first-row bits the pairing is ambiguous and the call
// is left to the sums.
func rpcSelfNs(spans []span) (mean float64, paired int) {
	calls := make(map[uint64][]span)
	for _, s := range spans {
		if s.kind == spRPCCall {
			calls[s.id] = append(calls[s.id], s)
		}
	}
	var total int64
	for _, c := range spans {
		if c.kind != spCompute {
			continue
		}
		var match *span
		n := 0
		for i, call := range calls[c.parent] {
			if call.start <= c.start && c.end <= call.end {
				match = &calls[c.parent][i]
				n++
			}
		}
		if n == 1 {
			total += selfTime(*match, []span{c})
			paired++
		}
	}
	if paired == 0 {
		return 0, 0
	}
	return float64(total) / float64(paired), paired
}

// writeTrace writes the spans as JSON lines, one span per line:
// {"name","start_ns","end_ns","id","parent","rows"}.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for i := range spans {
		s := &spans[i]
		b = append(b[:0], `{"name":"`...)
		b = append(b, spanNames[s.kind]...)
		b = append(b, `","start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, s.id, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, s.parent, 10)
		b = append(b, `,"rows":`...)
		b = strconv.AppendInt(b, int64(s.rows), 10)
		b = append(b, "}\n"...)
		bw.Write(b)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
