package main

import (
	"math"
	"math/rand"
)

// Op kinds in a plan.
const (
	opPredict  = 0
	opFeedback = 1
)

// closedPlanLen is the length of a closed-loop plan; the pacer cycles
// through it, so it only has to be long against the cache (1024–4096
// entries) and the input pool (8000).
const closedPlanLen = 1 << 17

// Feedback refers back to a predict issued between fbMinBack and
// fbMaxBack ops earlier on the same connection: far enough that the
// predict has completed (the closed window is at most 16 on the feedback
// workload), near enough that the join still finds it in the cache.
const (
	fbMinBack = 24
	fbMaxBack = 64
)

// plan is everything one connection sends in one phase, generated from
// the seed before the phase starts: the send path only indexes it.
type plan struct {
	input []int32  // index into the input pool
	kind  []uint8  // opPredict | opFeedback
	ctx   []uint16 // selection context index
	due   []int64  // open loop: ns after phase start; nil for closed loop
}

func (p *plan) len() int { return len(p.input) }

// subSeed derives the seed of one (phase, connection) stream from the run
// seed, so streams are independent and each is reproducible on its own.
func subSeed(seed int64, phase, conn int) int64 {
	return seed*1000003 + int64(phase)*1009 + int64(conn)*31 + 7
}

// genPlan draws n ops for w. rate > 0 adds Poisson arrival offsets at
// that per-connection rate.
func genPlan(w *workload, seed int64, n int, rate float64) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{
		input: make([]int32, n),
		kind:  make([]uint8, n),
		ctx:   make([]uint16, n),
	}
	var inZipf, ctxZipf *rand.Zipf
	if w.zipfS > 0 {
		inZipf = rand.NewZipf(rng, w.zipfS, 1, poolSize-1)
	}
	if w.contexts > 0 {
		ctxZipf = rand.NewZipf(rng, 1.1, 1, uint64(w.contexts-1))
	}
	for i := 0; i < n; i++ {
		if w.feedbackFrac > 0 && i >= fbMaxBack && rng.Float64() < w.feedbackFrac {
			// Feedback on what this connection predicted a little earlier.
			j := i - fbMinBack - rng.Intn(fbMaxBack-fbMinBack+1)
			for j > i-fbMaxBack && p.kind[j] != opPredict {
				j--
			}
			if p.kind[j] == opPredict {
				p.kind[i] = opFeedback
				p.input[i], p.ctx[i] = p.input[j], p.ctx[j]
				continue
			}
		}
		if inZipf != nil {
			p.input[i] = int32(inZipf.Uint64())
		} else {
			p.input[i] = int32(rng.Intn(poolSize))
		}
		if ctxZipf != nil {
			p.ctx[i] = uint16(ctxZipf.Uint64())
		}
	}
	if rate > 0 {
		p.due = make([]int64, n)
		t := 0.0
		for i := range p.due {
			t += rng.ExpFloat64() / rate
			p.due[i] = int64(t * 1e9)
		}
	}
	return p
}

// openPlan draws the Poisson arrivals of one connection over durNs at
// rate ops/s: the op count is whatever the seed's arrival process yields.
func openPlan(w *workload, seed int64, rate float64, durNs int64) *plan {
	// Draw with headroom, then cut at the phase end.
	n := int(rate*float64(durNs)/1e9*1.1) + 64
	p := genPlan(w, seed, n, rate)
	cut := n
	for cut > 0 && p.due[cut-1] >= durNs {
		cut--
	}
	p.input, p.kind, p.ctx, p.due = p.input[:cut], p.kind[:cut], p.ctx[:cut], p.due[:cut]
	return p
}

// quantize rounds to three decimals, so an input has one short JSON
// spelling that parses back to the same float64 the binary adapters send.
func quantize(x []float64) {
	for i, v := range x {
		x[i] = math.Round(v*1000) / 1000
	}
}
