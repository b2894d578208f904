// Package perf measures the serving hot paths this repo optimizes PR over
// PR — the batching dispatch pipeline, the per-replica RPC connection
// pool, and the RPC/codec allocation profile — and renders the results as
// a JSON report (BENCH_PR2.json, BENCH_PR3.json, and successors) so the
// performance trajectory is recorded alongside the code. cmd/bench -perf
// drives it; the same quantities are covered by `go test -bench`
// benchmarks in their home packages.
package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"clipper/internal/batching"
	"clipper/internal/container"
	"clipper/internal/core"
	"clipper/internal/rpc"
	"clipper/internal/simnet"
)

// Measurement is one named scalar result.
type Measurement struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// Report is a perf run's full output.
type Report struct {
	ID           string        `json:"id"`
	GoVersion    string        `json:"go_version"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	Measurements []Measurement `json:"measurements"`
}

// WriteJSON renders the report, indented, to w.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// requiredMeasurements are the fields every perf report must carry with a
// sane value for the CI bench gate (scripts/bench_gate.sh). Allocation
// counts are legitimately zero, so only the throughput/convergence
// quantities that must be strictly positive are gated; the gate checks
// schema sanity, not absolute performance — CI runners are single-core
// and shared.
var requiredMeasurements = []string{
	"dispatch_pipeline_inflight1",
	"dispatch_pipeline_inflight4",
	"dispatch_pipeline_speedup",
	"pool_pipeline_inflight4_conns1",
	"pool_pipeline_inflight4_conns2",
	"pool_pipeline_inflight4_conns4",
	"pool_pipeline_conns2_speedup",
	"pool_pipeline_conns4_speedup",
	"codec_pipeline_rows_qps",
	"codec_pipeline_tensor_qps",
	"codec_pipeline_tensor_speedup",
	"sched_skew_baseline_p99_ms",
	"sched_skew_baseline_qps",
	"sched_skew_rr_p99_ms",
	"sched_skew_rr_qps",
	"sched_skew_jsq_p99_ms",
	"sched_skew_jsq_qps",
	"sched_skew_hedge_p99_ms",
	"sched_skew_hedge_qps",
	"sched_skew_rr_p99_x",
	"sched_skew_hedge_p99_x",
	"tenant_fairness_solo_p99_ms",
	"tenant_fairness_fifo_p99_ms",
	"tenant_fairness_fair_p99_ms",
	"tenant_fairness_fifo_p99_x",
	"tenant_fairness_fair_p99_x",
	"tenant_fairness_heavy_sheds",
}

// Validate checks a report's schema sanity: id and go version present,
// every required measurement present exactly once with a finite,
// strictly positive value, and no measurement with a NaN/Inf value.
func Validate(r Report) error {
	if r.ID == "" {
		return fmt.Errorf("perf: report has no id")
	}
	if r.GoVersion == "" {
		return fmt.Errorf("perf: report has no go_version")
	}
	seen := make(map[string]float64, len(r.Measurements))
	for _, m := range r.Measurements {
		if m.Name == "" {
			return fmt.Errorf("perf: unnamed measurement")
		}
		if _, dup := seen[m.Name]; dup {
			return fmt.Errorf("perf: duplicate measurement %q", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("perf: measurement %q is %v", m.Name, m.Value)
		}
		seen[m.Name] = m.Value
	}
	for _, name := range requiredMeasurements {
		v, ok := seen[name]
		if !ok {
			return fmt.Errorf("perf: missing required measurement %q", name)
		}
		if v <= 0 {
			return fmt.Errorf("perf: required measurement %q = %v, want > 0", name, v)
		}
	}
	return nil
}

// ValidateJSON decodes a report from r and validates it.
func ValidateJSON(r io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return rep, fmt.Errorf("perf: decoding report: %w", err)
	}
	return rep, Validate(rep)
}

// latencyPredictor simulates a container with a fixed round-trip latency
// that admits concurrent batches (mirroring the multiplexing RPC client).
type latencyPredictor struct {
	latency time.Duration
}

func (p *latencyPredictor) Info() container.Info {
	return container.Info{Name: "latency", Version: 1}
}

func (p *latencyPredictor) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	time.Sleep(p.latency)
	out := make([]container.Prediction, len(xs))
	for i, x := range xs {
		out[i] = container.Prediction{Label: int(x[0])}
	}
	return out, nil
}

// DispatchPipelineQPS drives a batching queue over a simulated
// 1ms-latency container with the given pipeline window for roughly dur
// and returns the completed queries per second.
func DispatchPipelineQPS(inFlight int, dur time.Duration) float64 {
	q := batching.NewQueue(&latencyPredictor{latency: time.Millisecond}, batching.QueueConfig{
		Controller: batching.NewFixed(1),
		InFlight:   inFlight,
	})
	defer q.Close()

	const submitters = 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			x := []float64{float64(s)}
			n := int64(0)
			for ctx.Err() == nil {
				if _, err := q.Submit(ctx, x); err != nil {
					break
				}
				n++
			}
			mu.Lock()
			completed += n
			mu.Unlock()
		}(s)
	}
	start := time.Now()
	time.Sleep(dur)
	cancel()
	wg.Wait()
	elapsed := time.Since(start)
	return float64(completed) / elapsed.Seconds()
}

// PoolPipelineQPS drives a batching queue (Fixed(16) batches, the given
// pipeline window) over a container.Remote backed by conns pooled RPC
// connections, each crossing its own simulated 1 Gbps link to a
// transfer-bound container (~1 ms of wire time per 128 KB batch vs 100 µs
// of compute), for roughly dur. The per-connection limiter models
// single-stream throughput caps on fat pipes; with one connection the
// window's batch frames head-of-line-block behind each other's writes,
// with Conns > 1 they transfer in parallel.
func PoolPipelineQPS(inFlight, conns int, dur time.Duration) float64 {
	const dim = 1024 // 8 KB per query, 128 KB per 16-query batch
	pred := container.NewFunc(container.Info{Name: "xfer", Version: 1},
		func(xs [][]float64) ([]container.Prediction, error) {
			time.Sleep(100 * time.Microsecond) // compute ≪ transfer
			out := make([]container.Prediction, len(xs))
			for i := range xs {
				out[i] = container.Prediction{Label: i}
			}
			return out, nil
		})
	srv := rpc.NewServer(container.Handler(pred))
	defer srv.Close()
	dial := func() (io.ReadWriteCloser, error) {
		fabric := simnet.NewFabric(simnet.Gbps(1), 20*time.Microsecond)
		nodeEnd, contEnd := fabric.NewLink()
		go srv.ServeConn(contEnd)
		return nodeEnd, nil
	}
	remote, err := container.NewRemotePool(dial, conns)
	if err != nil {
		panic(err)
	}
	defer remote.Close()
	q := batching.NewQueue(remote, batching.QueueConfig{
		Controller: batching.NewFixed(16),
		InFlight:   inFlight,
	})
	defer q.Close()

	const submitters = 128
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			x := make([]float64, dim)
			x[0] = float64(s)
			n := int64(0)
			for ctx.Err() == nil {
				if _, err := q.Submit(ctx, x); err != nil {
					break
				}
				n++
			}
			mu.Lock()
			completed += n
			mu.Unlock()
		}(s)
	}
	start := time.Now()
	time.Sleep(dur)
	cancel()
	wg.Wait()
	elapsed := time.Since(start)
	return float64(completed) / elapsed.Seconds()
}

// ReadFrameAllocs returns steady-state allocations per rpc.ReadFrame of a
// frame with the given payload size, honoring the leased-payload contract
// (each frame is Released after reading, the way the client and server
// loops do). With the body pools and frame pool warm this is 0 for any
// payload up to the 1 MiB pooling cap.
func ReadFrameAllocs(payloadSize int) float64 {
	var buf bytes.Buffer
	f := &rpc.Frame{ID: 1, Type: rpc.MsgRequest, Method: rpc.MethodPredict, Payload: make([]byte, payloadSize)}
	if err := rpc.WriteFrame(&buf, f); err != nil {
		panic(err)
	}
	wire := buf.Bytes()
	r := bytes.NewReader(wire)
	return testing.AllocsPerRun(1000, func() {
		r.Reset(wire)
		g, err := rpc.ReadFrame(r)
		if err != nil {
			panic(err)
		}
		g.Release()
	})
}

// FrameWriteAllocs returns allocations per rpc.WriteFrame of a frame with
// the given payload size.
func FrameWriteAllocs(payloadSize int) float64 {
	f := &rpc.Frame{ID: 1, Type: rpc.MsgRequest, Method: rpc.MethodPredict, Payload: make([]byte, payloadSize)}
	return testing.AllocsPerRun(1000, func() {
		if err := rpc.WriteFrame(io.Discard, f); err != nil {
			panic(err)
		}
	})
}

func benchRows(rows, dim int) [][]float64 {
	xs := make([][]float64, rows)
	for i := range xs {
		x := make([]float64, dim)
		for j := range x {
			x[j] = float64(i*dim + j)
		}
		xs[i] = x
	}
	return xs
}

// DecodeBatchViewAllocs returns steady-state allocations per
// container.DecodeBatchView of a rows×dim batch into a reused view — the
// request decode every container Handler performs. With the view's
// backing arrays warm this is 0 at any batch size.
func DecodeBatchViewAllocs(rows, dim int) float64 {
	var v container.BatchView
	for _, x := range benchRows(rows, dim) {
		v.AppendRow(x)
	}
	buf := container.AppendBatchView(nil, &v)
	if err := container.DecodeBatchView(buf, &v); err != nil {
		panic(err)
	}
	return testing.AllocsPerRun(200, func() {
		if err := container.DecodeBatchView(buf, &v); err != nil {
			panic(err)
		}
	})
}

// echoClasses is the score-vector width the codec-pipeline echoes emit.
// The paper's workloads are classifiers whose containers return
// per-class confidence scores, so the response direction carries a real
// tensor — a label-only echo would leave the flat response path (the
// PR 6 tentpole) unmeasured.
const echoClasses = 10

// rowsEcho is a trivial container whose compute cost is negligible, so an
// end-to-end pipeline drive over it measures the serving overhead —
// queueing, framing, codec — rather than the model. It answers each row
// with its first feature as the label plus an echoClasses-wide score
// vector, allocated per row the way a plain []Prediction container does.
type rowsEcho struct{}

func (rowsEcho) Info() container.Info {
	return container.Info{Name: "echo", Version: 1}
}

func echoScores(x0 float64) []float64 {
	s := make([]float64, echoClasses)
	for j := range s {
		s[j] = x0 + float64(j)
	}
	return s
}

func (rowsEcho) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	out := make([]container.Prediction, len(xs))
	for i, x := range xs {
		out[i] = container.Prediction{Label: int(x[0]), Scores: echoScores(x[0])}
	}
	return out, nil
}

// tensorEcho is rowsEcho in the view shape: the Handler serves it
// tensor-native end to end (BatchView in, PredictionView out) — scores
// land directly in the flat response tensor with no per-row slices.
type tensorEcho struct{ rowsEcho }

func (tensorEcho) PredictView(v container.BatchView, out *container.PredictionView) error {
	scores := out.Size(v.Rows(), echoClasses)
	for i := range out.Labels {
		x0 := v.Row(i)[0]
		out.Labels[i] = int(x0)
		row := scores[i*echoClasses : (i+1)*echoClasses]
		for j := range row {
			row[j] = x0 + float64(j)
		}
	}
	return nil
}

// CodecPipelineQPS drives a batching queue (Fixed(64) batches — the
// suite's standard codec batch size — InFlight 4)
// over a loopback container — the full RPC + codec path on in-memory
// pipes — for roughly dur and returns completed queries per second.
// tensor selects the tensor-native path end to end (ViewPredictor on the
// container side: BatchView decode in, flat PredictionView out);
// otherwise the same workload runs in the row shape behind the rows
// adapter (container's asView): rows materialised from the view, per-query
// Prediction structs appended back into the response. Both variants use
// the queue's flat collector and the client's scatter path — the
// difference between the two is the container-side cost of the row
// shape, the Figure 11 cost this repo keeps chipping at.
func CodecPipelineQPS(tensor bool, dur time.Duration) float64 {
	const dim = 128
	const batch = 64
	var pred container.Predictor = rowsEcho{}
	if tensor {
		pred = tensorEcho{}
	}
	remote, stop, err := container.Loopback(pred)
	if err != nil {
		panic(err)
	}
	defer stop()
	q := batching.NewQueue(remote, batching.QueueConfig{
		Controller: batching.NewFixed(batch),
		InFlight:   4,
	})
	defer q.Close()

	const submitters = 2 * batch
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			x := make([]float64, dim)
			x[0] = float64(s)
			n := int64(0)
			for ctx.Err() == nil {
				if _, err := q.Submit(ctx, x); err != nil {
					break
				}
				n++
			}
			mu.Lock()
			completed += n
			mu.Unlock()
		}(s)
	}
	start := time.Now()
	time.Sleep(dur)
	cancel()
	wg.Wait()
	elapsed := time.Since(start)
	return float64(completed) / elapsed.Seconds()
}

// DecodePredictionViewAllocs returns steady-state allocations per
// container.DecodePredictionView of n predictions with the given score
// width into a reused view — the response-direction mirror of
// DecodeBatchViewAllocs. With the view's backing arrays warm this is 0
// at any response size.
func DecodePredictionViewAllocs(n, scores int) float64 {
	var v container.PredictionView
	for i := range v.Size(n, scores) {
		v.Scores[i] = float64(i)
	}
	buf := container.AppendPredictionView(nil, &v)
	if err := container.DecodePredictionView(buf, &v); err != nil {
		panic(err)
	}
	return testing.AllocsPerRun(200, func() {
		if err := container.DecodePredictionView(buf, &v); err != nil {
			panic(err)
		}
	})
}

// LoopbackTensorAllocsPerQuery measures steady-state heap allocations
// per query on the full loopback tensor path: a warmed flat batch view
// sent through PredictViewContext to a ViewPredictor container behind
// in-memory pipes, results scattered back, divided by the batch size.
// AllocsPerRun's counter is process-wide, so the server goroutines'
// allocations count too; what remains after warm-up is the per-batch
// constant (request/response frame headers, the per-request goroutine's
// closure) amortized over the batch — the data plane itself (bodies,
// views, scratch, scores) is pooled and contributes zero.
func LoopbackTensorAllocsPerQuery(batch, dim int) float64 {
	remote, stop, err := container.Loopback(tensorEcho{})
	if err != nil {
		panic(err)
	}
	defer stop()
	v := container.GetBatchView()
	defer container.PutBatchView(v)
	x := make([]float64, dim)
	for i := 0; i < batch; i++ {
		v.AppendRow(x)
	}
	ctx := context.Background()
	deliver := func(i int, p container.Prediction) {}
	for i := 0; i < 16; i++ { // warm every pool on both sides
		if err := remote.PredictViewContext(ctx, v, deliver); err != nil {
			panic(err)
		}
	}
	perBatch := testing.AllocsPerRun(100, func() {
		if err := remote.PredictViewContext(ctx, v, deliver); err != nil {
			panic(err)
		}
	})
	return perBatch / float64(batch)
}

// Run executes the full perf suite. dur bounds each throughput
// measurement's duration.
func Run(id string, dur time.Duration) Report {
	rep := Report{
		ID:         id,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	qps1 := DispatchPipelineQPS(1, dur)
	qps4 := DispatchPipelineQPS(4, dur)
	pool1 := PoolPipelineQPS(4, 1, dur)
	pool2 := PoolPipelineQPS(4, 2, dur)
	pool4 := PoolPipelineQPS(4, 4, dur)
	// The codec pair feeds a ratio, which runner drift between the two
	// runs can swamp — interleave the variants and keep each side's best
	// so both see comparable machine conditions.
	var codecRows, codecTensor float64
	for i := 0; i < 3; i++ {
		if q := CodecPipelineQPS(false, dur); q > codecRows {
			codecRows = q
		}
		if q := CodecPipelineQPS(true, dur); q > codecTensor {
			codecTensor = q
		}
	}
	// Replica skew: the same 4-replica fleet, all healthy (baseline) and
	// with one replica 15x slower, dispatched blind (rr), load-aware
	// (jsq), and load-aware with straggler hedging (hedge).
	skewBase := SchedulerSkewTail(core.SchedRoundRobin, false, false, dur)
	skewRR := SchedulerSkewTail(core.SchedRoundRobin, false, true, dur)
	skewJSQ := SchedulerSkewTail(core.SchedJSQ, false, true, dur)
	skewHedge := SchedulerSkewTail(core.SchedJSQ, true, true, dur)
	// Noisy neighbor: the quiet tenant's p99 alone, under FIFO sharing,
	// and under weighted-DRR + SLO admission.
	fair := TenantFairness(dur)
	rep.Measurements = append(rep.Measurements,
		Measurement{Name: "dispatch_pipeline_inflight1", Unit: "qps", Value: qps1},
		Measurement{Name: "dispatch_pipeline_inflight4", Unit: "qps", Value: qps4},
		Measurement{Name: "dispatch_pipeline_speedup", Unit: "x", Value: qps4 / qps1},
		Measurement{Name: "pool_pipeline_inflight4_conns1", Unit: "qps", Value: pool1},
		Measurement{Name: "pool_pipeline_inflight4_conns2", Unit: "qps", Value: pool2},
		Measurement{Name: "pool_pipeline_inflight4_conns4", Unit: "qps", Value: pool4},
		Measurement{Name: "pool_pipeline_conns2_speedup", Unit: "x", Value: pool2 / pool1},
		Measurement{Name: "pool_pipeline_conns4_speedup", Unit: "x", Value: pool4 / pool1},
		// End-to-end codec share: the same free container behind the full
		// loopback RPC path, in the row shape (behind the rows adapter) vs
		// the view shape.
		Measurement{Name: "codec_pipeline_rows_qps", Unit: "qps", Value: codecRows},
		Measurement{Name: "codec_pipeline_tensor_qps", Unit: "qps", Value: codecTensor},
		Measurement{Name: "codec_pipeline_tensor_speedup", Unit: "x", Value: codecTensor / codecRows},
		Measurement{Name: "write_frame_inline_256B", Unit: "allocs/op", Value: FrameWriteAllocs(256)},
		Measurement{Name: "write_frame_writev_64KB", Unit: "allocs/op", Value: FrameWriteAllocs(64 << 10)},
		// Read side honors the leased-payload release contract: 0 in
		// steady state (body pools + frame pool warm).
		Measurement{Name: "read_frame_inline_256B", Unit: "allocs/op", Value: ReadFrameAllocs(256)},
		Measurement{Name: "read_frame_large_64KB", Unit: "allocs/op", Value: ReadFrameAllocs(64 << 10)},
		Measurement{Name: "decode_batch_view_64x128", Unit: "allocs/op", Value: DecodeBatchViewAllocs(64, 128)},
		Measurement{Name: "decode_batch_view_512x128", Unit: "allocs/op", Value: DecodeBatchViewAllocs(512, 128)},
		// Response-direction flat codec: decode into a reused view and
		// append from reused predictions — 0 in steady state.
		Measurement{Name: "decode_predictions_view_64x10", Unit: "allocs/op", Value: DecodePredictionViewAllocs(64, 10)},
		Measurement{Name: "decode_predictions_view_512x10", Unit: "allocs/op", Value: DecodePredictionViewAllocs(512, 10)},
		// Whole-path allocation bill: per-query allocations across both
		// sides of a loopback ViewPredictor round trip at batch 64.
		Measurement{Name: "loopback_tensor_allocs_per_query", Unit: "allocs/query", Value: LoopbackTensorAllocsPerQuery(64, 128)},
		// Straggler mitigation: p99 under one-slow-of-four skew, per
		// policy, against the all-healthy baseline. The _x ratios are the
		// headline — round-robin inherits the straggler's service time
		// (>= 3x baseline p99); JSQ+hedging stays near baseline.
		Measurement{Name: "sched_skew_baseline_p99_ms", Unit: "ms", Value: float64(skewBase.P99) / 1e6},
		Measurement{Name: "sched_skew_baseline_qps", Unit: "qps", Value: skewBase.QPS},
		Measurement{Name: "sched_skew_rr_p99_ms", Unit: "ms", Value: float64(skewRR.P99) / 1e6},
		Measurement{Name: "sched_skew_rr_qps", Unit: "qps", Value: skewRR.QPS},
		Measurement{Name: "sched_skew_jsq_p99_ms", Unit: "ms", Value: float64(skewJSQ.P99) / 1e6},
		Measurement{Name: "sched_skew_jsq_qps", Unit: "qps", Value: skewJSQ.QPS},
		Measurement{Name: "sched_skew_hedge_p99_ms", Unit: "ms", Value: float64(skewHedge.P99) / 1e6},
		Measurement{Name: "sched_skew_hedge_qps", Unit: "qps", Value: skewHedge.QPS},
		Measurement{Name: "sched_skew_rr_p99_x", Unit: "x", Value: float64(skewRR.P99) / float64(skewBase.P99)},
		Measurement{Name: "sched_skew_hedge_p99_x", Unit: "x", Value: float64(skewHedge.P99) / float64(skewBase.P99)},
		// Hedge counters from the hedged skew run, for the record (not
		// gated: at smoke durations hedges can legitimately be zero).
		Measurement{Name: "sched_skew_hedges_issued", Unit: "count", Value: float64(skewHedge.Stats.HedgesIssued)},
		Measurement{Name: "sched_skew_hedges_won", Unit: "count", Value: float64(skewHedge.Stats.HedgesWon)},
		// Multi-tenant QoS: the quiet tenant's p99 solo / FIFO-contended /
		// fair-contended, plus ratios to solo. The headline: the FIFO _x
		// ratio is unbounded (whatever backlog the heavy fleet builds),
		// the fair _x ratio stays ≤ ~2. heavy_sheds > 0 shows the
		// admission gate carrying its half of the bound; quiet_sheds
		// should stay 0 (the protected tenant is never turned away).
		Measurement{Name: "tenant_fairness_solo_p99_ms", Unit: "ms", Value: float64(fair.SoloP99) / 1e6},
		Measurement{Name: "tenant_fairness_fifo_p99_ms", Unit: "ms", Value: float64(fair.FIFOP99) / 1e6},
		Measurement{Name: "tenant_fairness_fair_p99_ms", Unit: "ms", Value: float64(fair.FairP99) / 1e6},
		Measurement{Name: "tenant_fairness_fifo_p99_x", Unit: "x", Value: float64(fair.FIFOP99) / float64(fair.SoloP99)},
		Measurement{Name: "tenant_fairness_fair_p99_x", Unit: "x", Value: float64(fair.FairP99) / float64(fair.SoloP99)},
		Measurement{Name: "tenant_fairness_heavy_sheds", Unit: "count", Value: float64(fair.HeavySheds)},
		Measurement{Name: "tenant_fairness_quiet_sheds", Unit: "count", Value: float64(fair.QuietSheds)},
		Measurement{Name: "tenant_fairness_heavy_issued", Unit: "count", Value: float64(fair.HeavyIssued)},
		Measurement{Name: "tenant_fairness_quiet_issued", Unit: "count", Value: float64(fair.QuietIssued)},
	)
	return rep
}
