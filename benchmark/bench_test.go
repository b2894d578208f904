package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"clipper/internal/adapter/stream"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	// 1000 samples: rank 990, nine beyond it — one short.
	if _, err := percentile(sorted, 0.99); err == nil {
		t.Error("p99 of 1000 samples accepted with 9 samples beyond it")
	}
	sorted = append(sorted, 1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009,
		1010, 1011, 1012, 1013, 1014, 1015, 1016, 1017, 1018, 1019)
	v, err := percentile(sorted, 0.99)
	if err != nil || v != 1009 {
		t.Errorf("p99 of 1020 samples = %v, %v; want 1009", v, err)
	}
	if v, err := percentile(sorted, 0.5); err != nil || v != 510 {
		t.Errorf("p50 = %v, %v; want 510", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("p50 of nothing accepted")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 9, 3, 7}); got != 5 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 = quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles of five = %v, %v; want 1.5, 4.5", q1, q3)
	}
}

func TestGroupMedianIgnoresAStall(t *testing.T) {
	// Five seconds at 2400 predicts/s: ten groups, ten throughput
	// windows. A 100 ms stall two seconds in delays the ops due during it.
	const perSec, secs = 2 * groupOps, 5
	durNs := int64(secs) * int64(time.Second)
	var ops []opRecord
	for i := 0; i < perSec*secs; i++ {
		t0 := int64(i) * int64(time.Second) / perSec
		lat := int64(time.Millisecond)
		if stall := t0 - 2*int64(time.Second); stall >= 0 && stall < int64(100*time.Millisecond) {
			lat = int64(100*time.Millisecond) - stall
		}
		ops = append(ops, opRecord{t0: t0, lat: lat, status: statusOK})
	}
	// A feedback op and a failed op are counted in no latency group.
	ops = append(ops, opRecord{t0: 1, lat: int64(time.Second), kind: opFeedback, status: statusOK},
		opRecord{t0: 2, lat: int64(time.Second), status: statusFailed})
	ws, err := reduceWindows(ops, durNs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws.p99) != secs*perSec/groupOps || ws.samples != groupOps {
		t.Fatalf("%d groups of %d, want %d of %d", len(ws.p99), ws.samples, secs*perSec/groupOps, groupOps)
	}
	if got := median(ws.p99); got != 1 {
		t.Errorf("median of group p99s = %v ms, want 1", got)
	}
	if ws.p99[4] < 90 {
		t.Errorf("p99 of the stalled group = %v ms, want the stall", ws.p99[4])
	}
	if len(ws.qps) != 2*secs {
		t.Fatalf("%d throughput windows, want %d", len(ws.qps), 2*secs)
	}
	// Throughput counts ops by completion: the first window lacks the ops
	// of its last millisecond, which complete after it.
	if ws.qps[0] >= perSec || median(ws.qps) != perSec {
		t.Errorf("window qps = %v", ws.qps)
	}
	// Too few predicts for a p99 is an error, not a silent number; enough
	// for one short group is one group.
	if _, err := reduceWindows(ops[:1000], durNs, nil); err == nil {
		t.Error("p99 of 1000 predicts accepted")
	}
	if ws, err = reduceWindows(ops[:1150], durNs, nil); err != nil || len(ws.p99) != 1 || ws.samples != 1150 {
		t.Errorf("1150 predicts: %d groups of %d, %v; want one group of 1150", len(ws.p99), ws.samples, err)
	}
}

func TestPlansRepeatPerSeed(t *testing.T) {
	for _, w := range workloads {
		a := openPlan(w, subSeed(7, phLo, 0), w.loRate/numConns, int64(time.Second))
		b := openPlan(w, subSeed(7, phLo, 0), w.loRate/numConns, int64(time.Second))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different plans", w.name)
		}
		c := openPlan(w, subSeed(8, phLo, 0), w.loRate/numConns, int64(time.Second))
		if reflect.DeepEqual(a.due, c.due) || reflect.DeepEqual(a.input, c.input) {
			t.Errorf("%s: different seeds gave the same arrivals or inputs", w.name)
		}
		other := openPlan(w, subSeed(7, phLo, 1), w.loRate/numConns, int64(time.Second))
		if reflect.DeepEqual(a.due, other.due) {
			t.Errorf("%s: both connections got the same arrivals", w.name)
		}
		for i, due := range a.due {
			if due < 0 || due >= int64(time.Second) || (i > 0 && due < a.due[i-1]) {
				t.Fatalf("%s: arrival %d at %d ns out of order or range", w.name, i, due)
			}
		}
	}
}

func TestFeedbackRefersToAnEarlierPredict(t *testing.T) {
	w := findWorkload("ensemble_feedback")
	p := genPlan(w, 3, 20000, 0)
	feedback := 0
	for i := range p.kind {
		if p.kind[i] != opFeedback {
			continue
		}
		feedback++
		found := false
		for j := i - fbMaxBack; j <= i-fbMinBack && !found; j++ {
			found = j >= 0 && p.kind[j] == opPredict && p.input[j] == p.input[i] && p.ctx[j] == p.ctx[i]
		}
		if !found {
			t.Fatalf("feedback %d joins no predict %d..%d ops earlier", i, fbMinBack, fbMaxBack)
		}
	}
	if frac := float64(feedback) / float64(len(p.kind)); frac < 0.17 || frac > 0.23 {
		t.Errorf("feedback share = %.3f, want about 0.2", frac)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{start: 100, end: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one inside", []span{{start: 120, end: 150}}, 70},
		{"overlapping children count once", []span{{start: 120, end: 150}, {start: 140, end: 160}}, 60},
		{"clipped to the parent", []span{{start: 50, end: 110}, {start: 190, end: 400}}, 80},
		{"outside", []span{{start: 300, end: 400}}, 100},
		{"covering", []span{{start: 0, end: 500}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRPCSelfPairsByBatchID(t *testing.T) {
	spans := []span{
		{kind: spRPCCall, id: 10, start: 0, end: 100},
		{kind: spCompute, id: 11, parent: 10, start: 20, end: 80},
		// Two calls in flight with the same first-row bits: ambiguous, skipped.
		{kind: spRPCCall, id: 20, start: 0, end: 100},
		{kind: spRPCCall, id: 20, start: 10, end: 110},
		{kind: spCompute, id: 21, parent: 20, start: 30, end: 70},
		// The same bits again later: told apart by time.
		{kind: spRPCCall, id: 10, start: 500, end: 560},
		{kind: spCompute, id: 11, parent: 10, start: 510, end: 550},
	}
	mean, paired := rpcSelfNs(spans)
	if paired != 2 || mean != 30 {
		t.Errorf("rpc self = %v over %d pairs, want 30 over 2", mean, paired)
	}
}

// TestStreamSendAllocs holds the generator to its rule: sending allocates
// nothing per request of its own. The one allocation left is the reply
// closure inside stream.Conn.Go.
func TestStreamSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			io.Copy(io.Discard, c) // swallow requests, never reply
		}
	}()
	conn, err := stream.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const ops = 4000
	w := findWorkload("zipf_cache")
	n := &node{w: w, ctxNames: []string{""}, pool: [][]float64{make([]float64, inputDim)}}
	c := &streamClient{n: n, conn: conn, start: time.Now()}
	c.plan = &plan{input: make([]int32, ops+1), kind: make([]uint8, ops+1), ctx: make([]uint16, ops+1)}
	c.rec = make([]opRecord, ops+1)
	c.free = make(chan *slot, ops+1)
	slots := make([]*slot, ops+1)
	for i := range slots {
		slots[i] = c.newSlot()
	}
	seq := 0
	avg := testing.AllocsPerRun(ops, func() {
		c.send(slots[seq], seq, int64(seq))
		seq++
	})
	if avg > 1 {
		t.Errorf("stream send path allocates %.1f times per op, want at most 1", avg)
	}
}

func TestSmokeRunHasNoFailedOps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a node for three seconds")
	}
	r := runTimed(findWorkload("zipf_cache"), 1, 3, 1)
	if r.failed != 0 || r.attempted == 0 {
		t.Errorf("attempted %d, failed %d", r.attempted, r.failed)
	}
	// On a slow build (-race) a one-second phase can hold too few predicts
	// for a p99; that is a refusal to report, not a failed op.
	for _, p := range r.problems {
		t.Log(p)
	}
}

// TestBenchmarkJSONMatchesCode reads ../BENCHMARK.json as the driver does
// and checks that every workload and metric it names is one the code
// emits, under the same unit and direction, and fits the name rule.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := describe()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from what `-describe` prints:\n got %+v\nwant %+v", got, want)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the name rule", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s breaks the unit rule", u, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range got.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("bound of %s out of (0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range got.PerLayer {
		check(m.Name, m.Unit)
	}
	if len(got.Workloads) < 2 || len(got.Workloads) > 8 || len(got.EndToEnd) > 16 || len(got.PerLayer) > 128 {
		t.Error("more workloads or metrics than the contract allows")
	}
	runs := 4 + 22*len(got.Workloads)
	if perRun := 3420 / runs; perRun < got.RunSeconds+6 {
		t.Errorf("%d runs leave %d s each, too few for %d s measured plus set-up", runs, perRun, got.RunSeconds)
	}
}
