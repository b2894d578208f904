package batching

// The paper's thesis is that the serving tier learns each container's
// latency/throughput trade-off instead of being hand-tuned; §4.3 applies it
// to batch size (AIMD, quantile regression). This file applies it to the
// number above batch size: how many batches a replica is given at once (the
// pipeline window, QueueConfig.InFlight = 0).
//
// The window loop asks one question, which the paper's linear latency model
// (§4.3.1) answers at any load: does one more batch in flight make batches
// slower than their size explains? A container that evaluates one batch at a
// time queues the second behind the first and every batch takes twice as
// long; one with P lanes shows nothing until P+1. Throughput cannot answer
// it — in an open loop it equals the offered load whatever the window is.
//
// A pinned window (InFlight > 0: every paper figure) has no Adaptive.

import (
	"sync"
	"time"
)

// The control law's constants: properties of the loop, not of a
// deployment, so not configuration.
const (
	// startWindow is where a measured window starts: the pinned default
	// every queue ran with before windows were measured.
	startWindow = 4
	// stepDiv sizes a probe, s = max(1, ⌊W/stepDiv⌋), judged against
	// s/(2W) ≈ 1/16 at any W: pauses, ±10 % jitter and timer lateness move a
	// 2W-batch period's mean by ±2–3 %, which swamps 1/(2W) above W = 16.
	stepDiv = 8
	// maxRejects caps a rest at 2^16 periods, a million batches: long
	// enough to be free, short enough that a replica that changed is found.
	maxRejects = 16
	// periodFloor is the least number of batches a line is fitted to or a
	// probe judged on. A straggler's pause, clipped at 2×, adds 1/16 to a
	// 16-batch mean: half of the 1/8 a probe at the start window is judged
	// against, so one pause alone cannot turn a verdict. Wider windows use
	// 2·W, so each slot is seen twice.
	periodFloor = 16
)

// period accumulates the window-bound batches of one control period: what
// an ordinary-least-squares line through (size, latency) needs.
type period struct {
	k                float64 // batches
	sn, sl, snn, snl float64 // Σn, Σlat, Σn², Σn·lat (seconds)
}

func (p *period) add(n, lat float64) {
	p.k++
	p.sn += n
	p.sl += lat
	p.snn += n * n
	p.snl += n * lat
}

// fit returns the least-squares line lat = a + b·n through the period,
// constrained to a, b ≥ 0 (a batch costs something, a row never speeds one
// up): a period whose sizes barely vary has no slope to find, and an
// unconstrained fit would invent one from the jitter.
func (p period) fit() (a, b float64) {
	n, l := p.sn/p.k, p.sl/p.k
	if sxx := p.snn - p.k*n*n; sxx > 0 {
		b = (p.snl - p.k*n*l) / sxx
	}
	b = max(0, min(b, l/n))
	return l - b*n, b
}

// AdaptiveSnapshot reports the controller's current operating point.
type AdaptiveSnapshot struct {
	// InFlight is the current pipeline window.
	InFlight int
	// BatchLatency is the load model's smoothed per-batch latency.
	BatchLatency time.Duration
	// Verdict is the last judged probe's outcome, "keep" or "revert" ("" until
	// one has been judged); Ratio is what it was judged on, the probe
	// period's mean latency over the line's prediction for its batch sizes.
	Verdict string
	Ratio   float64
	// FitA and FitB are the line the next probe is judged against:
	// latency = FitA + FitB·rows.
	FitA time.Duration
	FitB time.Duration
}

// Adaptive sizes one queue's pipeline window. NewQueue builds one for every
// queue whose window is not pinned; the queue ticks it once per completed
// batch. All methods are safe for concurrent use.
type Adaptive struct {
	mu    sync.Mutex
	sem   *winSem    // the queue's window semaphore
	model *LoadModel // the queue's load model

	// Window loop: the line (a, b) is fitted at win, or win−dir·step probing.
	win     int
	dir     int  // the current or next probe's direction, ±1
	step    int  // the current probe's size
	probing bool // win is a probe awaiting judgment
	skip    int  // periods to let pass: settling after a move, resting after a rejection
	rejects uint // consecutive rejected probes
	cur     period
	a, b    float64 // seconds
	verdict string
	ratio   float64
}

func newAdaptive(sem *winSem, m *LoadModel) *Adaptive {
	return &Adaptive{sem: sem, model: m, win: sem.curLimit(), dir: 1}
}

// Snapshot reports the controller's operating point for telemetry.
func (a *Adaptive) Snapshot() AdaptiveSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdaptiveSnapshot{
		InFlight:     a.win,
		BatchLatency: seconds(a.model.batchLat.Value()),
		Verdict:      a.verdict,
		Ratio:        a.ratio,
		FitA:         seconds(a.a),
		FitB:         seconds(a.b),
	}
}

// tick folds one completed batch of n rows — the queue calls it right after
// the batch was folded into the load model. bound says the batch left with
// the window's last free slot: only such batches show what the window does
// to latency, and only they advance the window loop, so a window wider than
// the load needs is never moved; any other batch returns before the lock.
// The window semaphore is resized under the controller's lock, so a stale
// decision can never overwrite a newer limit.
func (a *Adaptive) tick(n int, lat time.Duration, bound bool) {
	if !bound {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// Clipped like the robust cell itself: a 30 ms pause is one sample,
	// not the fit.
	y := lat.Seconds()
	if r := a.model.robustLat.Value(); r > 0 {
		y = min(y, 2*r)
	}
	a.cur.add(float64(n), y)
	if int(a.cur.k) >= max(periodFloor, 2*a.win) {
		a.endPeriod()
		a.sem.setLimit(a.win)
	}
}

// endPeriod is the window law. A probe of W±s settles for one period and is
// judged on the next: its batches' mean latency over what the line fitted at
// W predicts for their sizes. Growing is kept under 1 + s/(2W), shrinking
// under 1 − s/(2W): P lanes show (P+s)/P once W passes P by s, and half that
// step is the most a period's mean can resolve. A kept probe's period is the
// next line; a rejected one is undone, the direction flips, and the loop
// rests, twice as long per consecutive rejection, before fitting again.
// There is no ceiling: a window the load cannot fill has no window-bound
// batches, so the most batches the load keeps in flight bounds it (+ s).
func (a *Adaptive) endPeriod() {
	p := a.cur
	a.cur = period{}
	if a.skip > 0 {
		a.skip--
		return
	}
	if a.probing {
		base := a.win - a.dir*a.step
		a.ratio = p.sl / (a.a*p.k + a.b*p.sn)
		if a.ratio >= 1+float64(a.dir*a.step)/float64(2*base) {
			a.verdict = "revert"
			a.win, a.dir, a.probing = base, -a.dir, false
			a.skip = 1 << a.rejects
			a.rejects = min(a.rejects+1, maxRejects)
			return
		}
		a.verdict, a.rejects = "keep", 0
	}
	a.a, a.b = p.fit()
	if a.step = max(1, a.win/stepDiv); a.win-a.step < 1 {
		a.dir = 1
	}
	a.win += a.dir * a.step
	a.probing, a.skip = true, 1
}
