package main

import (
	"fmt"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer, and the value is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the q-quantile of sorted (ascending) by nearest
// rank. It refuses when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	rank := int(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	if beyond := n - 1 - rank; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d beyond it", q*100, n, minBeyond)
	}
	return sorted[rank], nil
}

// median returns the middle of vs (mean of the middle two when even); it
// sorts a copy.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of vs by the exclusive
// method — what Python's statistics.quantiles(vs, n=4) returns, which is
// what the driver computes spreads with.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		n := len(s)
		if n == 1 {
			return s[0]
		}
		h := p * float64(n+1) // 1-based position
		j := int(h)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// groupOps is how many consecutive predicts, in the order they were due,
// one latency group holds: a p99 over it has eleven samples beyond it.
// Groups are short on purpose (a tenth of a second to a second at the
// rates used): a hypervisor stall of 50 ms spoils the p99 of the one group
// it lands in, and the median over groups never sees it, where it would
// move the p99 of a two-second window.
const groupOps = 1200

// rateWinNs is the length of one throughput window of a phase.
const rateWinNs = int64(500 * time.Millisecond)

// rateWindows is how many throughput windows a phase of durNs has.
func rateWindows(durNs int64) int {
	return max(1, int(durNs/rateWinNs))
}

// windowStat is one phase reduced to windows. What gets reported is the
// median over them, so a disturbed stretch of the phase cannot move it.
type windowStat struct {
	qps      []float64 // successful ops per second in each throughput window, by completion time
	cpuUs    []float64 // process CPU per successful op in the same windows, µs
	p50, p99 []float64 // predict latency of each group in ms
	samples  int       // predicts behind each of those percentiles
}

// reduceWindows cuts a phase's ops into throughput windows of equal
// length (ops counted by completion time) and its predicts into groups of
// groupOps by due time, so a stall is charged to the ops it delayed. A
// phase with fewer predicts than one group is one group, which the
// percentile rule then accepts or refuses.
func reduceWindows(ops []opRecord, durNs int64, cpuWinNs []int64) (windowStat, error) {
	var ws windowStat
	wins := rateWindows(durNs)
	winNs := durNs / int64(wins)
	done := make([]int, wins)
	type sample struct{ t0, lat int64 }
	var predicts []sample
	for i := range ops {
		o := &ops[i]
		if o.status != statusOK {
			continue
		}
		if w := (o.t0 + o.lat) / winNs; w >= 0 && w < int64(wins) {
			done[w]++
		}
		if o.kind == opPredict {
			predicts = append(predicts, sample{o.t0, o.lat})
		}
	}
	for w := 0; w < wins; w++ {
		ws.qps = append(ws.qps, float64(done[w])/(float64(winNs)/1e9))
		if len(cpuWinNs) == wins && done[w] > 0 {
			ws.cpuUs = append(ws.cpuUs, float64(cpuWinNs[w])/1e3/float64(done[w]))
		}
	}
	sort.Slice(predicts, func(i, j int) bool { return predicts[i].t0 < predicts[j].t0 })
	ws.samples = min(groupOps, len(predicts))
	lats := make([]float64, ws.samples)
	for g := 0; g < max(1, len(predicts)/groupOps); g++ {
		for i := range lats {
			lats[i] = float64(predicts[g*groupOps+i].lat) / 1e6
		}
		sort.Float64s(lats)
		p50, err := percentile(lats, 0.50)
		if err != nil {
			return ws, fmt.Errorf("group %d: %w", g, err)
		}
		p99, err := percentile(lats, 0.99)
		if err != nil {
			return ws, fmt.Errorf("group %d: %w", g, err)
		}
		ws.p50 = append(ws.p50, p50)
		ws.p99 = append(ws.p99, p99)
	}
	return ws, nil
}
