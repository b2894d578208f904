package batching

// The paper's thesis is that an adaptive control layer lets the serving
// tier track each container's latency/throughput tradeoff without manual
// tuning; §4.3 applies it to batch size (AIMD, quantile regression). This
// file extends the same idea to the two knobs above batch size that PR 2
// and PR 3 introduced as static configuration: the dispatch pipeline
// window (QueueConfig.InFlight) and the per-replica RPC connection pool's
// routing target (rpc.Pool). Adaptive closes both loops from runtime
// signals:
//
//   - The queue's load model (load.go) — smoothed per-batch latency and
//     the completed-query counter, read once per control period — drives
//     the window: additive grow probes that keep the window only while
//     the throughput gain is real, revert when it is not, downward probes
//     that shed window that buys nothing, and a multiplicative backoff
//     when latency inflates with no transfer-bound signal (compute
//     saturation).
//   - The pool's queued-behind-write counters (rpc.PoolStats) drive the
//     connection target: batches queueing behind each other's frame writes
//     mean the link, not the model, is the bottleneck (transfer-bound), so
//     the target grows; a quiet write path lets it shrink back. The pool
//     keeps parked connections open, so the target moves with no redial
//     churn.
//
// Static configurations never construct an Adaptive and are untouched —
// the paper-figure experiments keep pinning InFlight/Conns.

import (
	"sync"
	"time"

	"clipper/internal/rpc"
)

// PoolTuner is the surface Adaptive drives on a pooled replica connection.
// *container.Remote implements it; a single-connection replica satisfies
// it trivially (a pool of one that cannot grow).
type PoolTuner interface {
	// PoolStats snapshots the replica's connection telemetry.
	PoolStats() rpc.PoolStats
	// SetPoolTarget sets the pool's routing target, clamped to
	// [1, Conns], and returns the applied value.
	SetPoolTarget(n int) int
}

// AdaptiveConfig parameterizes NewAdaptive. Zero values select defaults.
// One Adaptive instance controls exactly one queue (and its replica's
// pool); do not share instances across deploys.
type AdaptiveConfig struct {
	// MinInFlight / MaxInFlight bound the pipeline window; 0 selects 1
	// and 64.
	MinInFlight int
	MaxInFlight int
	// InitialInFlight is the starting window; 0 selects MinInFlight.
	InitialInFlight int
	// MinConns bounds the pool routing target from below; 0 selects 1.
	// The upper bound is the pool's dialed connection count.
	MinConns int
	// InitialConns is the starting pool target; 0 selects MinConns.
	InitialConns int
	// ProbeBatches is the number of completed batches per control
	// period; 0 selects 8. Longer periods smooth noise, shorter ones
	// converge faster.
	ProbeBatches int
}

// The control law's constants: properties of the loop, not of a
// deployment, so not configuration.
const (
	// gainFrac is the minimum fractional throughput gain that justifies
	// keeping a grown window (and the maximum loss a shrink may cost).
	gainFrac = 0.05
	// inflate is the emergency threshold: batch latency beyond this
	// factor of the baseline with no transfer-bound signal triggers the
	// multiplicative window backoff.
	inflate = 2.0
	// backoff is the multiplicative window decrease factor.
	backoff = 0.75
	// queueFrac is the queued-behind-write fraction of writes that marks
	// a period transfer-bound.
	queueFrac = 0.1
	// waitFrac is the minimum average queued-behind-write time per write,
	// as a fraction of the smoothed batch latency, for a period to count
	// as transfer-bound. This keeps microsecond write collisions on a
	// compute-bound replica (tiny frames, busy model) from masquerading
	// as a saturated wire.
	waitFrac = 0.01
	// quietPeriods is the number of consecutive calm periods before the
	// pool target shrinks by one.
	quietPeriods = 8
	// holdPeriods is the number of periods to sit still after a reverted
	// probe before probing again.
	holdPeriods = 4
)

func (cfg AdaptiveConfig) withDefaults() AdaptiveConfig {
	if cfg.MinInFlight <= 0 {
		cfg.MinInFlight = 1
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.MaxInFlight < cfg.MinInFlight {
		cfg.MaxInFlight = cfg.MinInFlight
	}
	if cfg.InitialInFlight <= 0 {
		cfg.InitialInFlight = cfg.MinInFlight
	}
	if cfg.InitialInFlight < cfg.MinInFlight {
		cfg.InitialInFlight = cfg.MinInFlight
	}
	if cfg.InitialInFlight > cfg.MaxInFlight {
		cfg.InitialInFlight = cfg.MaxInFlight
	}
	if cfg.MinConns <= 0 {
		cfg.MinConns = 1
	}
	if cfg.InitialConns < cfg.MinConns {
		cfg.InitialConns = cfg.MinConns
	}
	if cfg.ProbeBatches <= 0 {
		cfg.ProbeBatches = 8
	}
	return cfg
}

// probePhase tracks where the window control loop is in its probe cycle.
type probePhase int

const (
	// phaseSettle discards the first period after any window or pool
	// change: its measurements mix the old and new configuration.
	phaseSettle probePhase = iota
	// phaseJudge compares the settled measurements against the pre-probe
	// baseline and keeps or reverts the probe.
	phaseJudge
	// phaseHold sits at a stable window for holdPeriods before the next
	// probe.
	phaseHold
)

// sample is one control period's settled measurement.
type sample struct {
	tput float64 // completed queries per second
	lat  float64 // the load model's per-batch latency at period end, seconds
}

// AdaptiveSnapshot reports the controller's current operating point.
type AdaptiveSnapshot struct {
	// InFlight is the current pipeline window target.
	InFlight int
	// PoolTarget is the current pool routing target (0 when no pool is
	// attached).
	PoolTarget int
	// TransferBound reports whether the last control period saw batches
	// queueing behind frame writes.
	TransferBound bool
	// Throughput is the last settled period's completed queries/sec.
	Throughput float64
	// BatchLatency is the load model's smoothed per-batch latency.
	BatchLatency time.Duration
}

// Adaptive sizes a queue's pipeline window and its replica's RPC pool
// routing target at runtime. It estimates nothing itself: the queue ticks
// it once per completed batch, and on ProbeBatches boundaries it reads
// the queue's load model. All methods are safe for concurrent use.
type Adaptive struct {
	cfg AdaptiveConfig

	mu    sync.Mutex
	pool  PoolTuner
	sem   *winSem    // the bound queue's window semaphore (nil until bound)
	model *LoadModel // the bound queue's load model (nil until bound)

	win     int // current window target
	prevWin int // window the baseline sample was measured at
	prev    sample
	phase   probePhase
	hold    int
	growDir bool // next probe direction: true = grow

	batches       int       // ticks this period
	periodStart   time.Time // zero until the first tick
	lastCompleted int64     // model.completed at the last period boundary

	// Pool loop state.
	connTarget    int
	lastWrites    int64
	lastQueued    int64
	lastWait      time.Duration
	quiet         int
	transferBound bool
	lastTput      float64
}

// NewAdaptive returns a controller starting at the configured initial
// window. Attach the replica's connection pool with AttachPool to also
// drive the pool target.
func NewAdaptive(cfg AdaptiveConfig) *Adaptive {
	cfg = cfg.withDefaults()
	return &Adaptive{
		cfg:     cfg,
		win:     cfg.InitialInFlight,
		prevWin: cfg.InitialInFlight,
		phase:   phaseSettle,
		growDir: true,
	}
}

// AttachPool connects the replica's pool to the controller and applies the
// initial connection target. Called by core when deploying an adaptive
// replica; harmless to skip for in-process predictors.
func (a *Adaptive) AttachPool(p PoolTuner) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pool = p
	st := p.PoolStats()
	a.connTarget = p.SetPoolTarget(a.cfg.InitialConns)
	a.lastWrites = st.Writes
	a.lastQueued = st.WriteQueued
	a.lastWait = st.WriteWait
}

// Window returns the current pipeline window target.
func (a *Adaptive) Window() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.win
}

// bind hands the controller its queue's window semaphore and load model.
// Window changes are applied under the controller's lock, so a worker
// observing a stale decision can never overwrite a newer limit (winSem's
// mutex is a leaf; no lock cycle).
func (a *Adaptive) bind(sem *winSem, m *LoadModel) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sem, a.model = sem, m
	a.applyWindow()
}

// batchLatency is the bound model's smoothed per-batch latency in
// seconds (0 unbound or cold). Callers hold a.mu.
func (a *Adaptive) batchLatency() float64 {
	if a.model == nil {
		return 0
	}
	return a.model.batchLat.Value()
}

// applyWindow pushes the current target to the bound semaphore. Callers
// hold a.mu.
func (a *Adaptive) applyWindow() { a.sem.setLimit(a.win) }

// Snapshot reports the controller's operating point for telemetry.
func (a *Adaptive) Snapshot() AdaptiveSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdaptiveSnapshot{
		InFlight:      a.win,
		PoolTarget:    a.connTarget,
		TransferBound: a.transferBound,
		Throughput:    a.lastTput,
		BatchLatency:  seconds(a.batchLatency()),
	}
}

// tick counts one completed batch — the queue calls it right after the
// batch was folded into the load model — and on a period boundary runs
// the control loops against the model. The bound queue's dispatch
// semaphore is resized in the same critical section (bind).
func (a *Adaptive) tick() {
	a.mu.Lock()
	defer a.mu.Unlock()

	if a.periodStart.IsZero() {
		a.periodStart = time.Now()
	}
	a.batches++
	if a.batches < a.cfg.ProbeBatches {
		return
	}

	// Control period boundary: throughput is the model's completed count
	// over the period's wall time.
	now := time.Now()
	completed := a.model.completed.Load()
	tput := 0.0
	if elapsed := now.Sub(a.periodStart).Seconds(); elapsed > 0 {
		tput = float64(completed-a.lastCompleted) / elapsed
	}
	a.periodStart, a.lastCompleted, a.batches, a.lastTput = now, completed, 0, tput

	if a.drivePool() {
		// The transport capacity just moved under the window loop's
		// feet; re-settle before judging any pending probe.
		if a.phase == phaseJudge {
			a.phase = phaseSettle
		}
		return
	}
	a.driveWindow(sample{tput: tput, lat: a.batchLatency()})
	a.applyWindow() // under a.mu: stale decisions can't clobber newer ones
}

// drivePool runs one pool-target decision: grow while batches spend real
// time queued behind each other's frame writes (transfer-bound), shrink
// after a sustained quiet spell. Reports whether the target changed.
func (a *Adaptive) drivePool() bool {
	if a.pool == nil {
		return false
	}
	st := a.pool.PoolStats()
	writesDelta := st.Writes - a.lastWrites
	queuedDelta := st.WriteQueued - a.lastQueued
	waitDelta := st.WriteWait - a.lastWait
	a.lastWrites, a.lastQueued, a.lastWait = st.Writes, st.WriteQueued, st.WriteWait
	if writesDelta <= 0 || queuedDelta < 0 || waitDelta < 0 {
		// No traffic, or a redialed connection reset its counters;
		// nothing to learn this period.
		return false
	}
	// Transfer-bound needs both signals: enough writes queued (count) and
	// the queueing costing real time relative to a batch (so microsecond
	// collisions of tiny frames on a compute-bound replica don't count).
	frac := float64(queuedDelta) / float64(writesDelta)
	avgWait := waitDelta.Seconds() / float64(writesDelta)
	a.transferBound = frac >= queueFrac && avgWait >= a.batchLatency()*waitFrac
	if a.transferBound {
		a.quiet = 0
		if st.Target < st.Conns {
			a.connTarget = a.pool.SetPoolTarget(st.Target + 1)
			return true
		}
		return false
	}
	a.quiet++
	if a.quiet >= quietPeriods && st.Target > a.cfg.MinConns {
		a.connTarget = a.pool.SetPoolTarget(st.Target - 1)
		a.quiet = 0
		return true
	}
	return false
}

// driveWindow runs one window decision on a settled period measurement.
func (a *Adaptive) driveWindow(cur sample) {
	// Emergency backoff, any phase: latency blew past the baseline with
	// no transfer-bound signal — the container is compute-saturated, so
	// shed window multiplicatively rather than by -1 probes.
	if a.prev.lat > 0 && cur.lat > a.prev.lat*inflate &&
		!a.transferBound && a.win > a.cfg.MinInFlight {
		a.win = max(a.cfg.MinInFlight, int(float64(a.win)*backoff))
		a.prevWin = a.win
		a.prev = sample{} // re-baseline at the reduced window
		a.phase = phaseSettle
		return
	}

	switch a.phase {
	case phaseSettle:
		a.phase = phaseJudge
	case phaseJudge:
		a.judge(cur)
	case phaseHold:
		a.hold--
		if a.hold <= 0 {
			a.startProbe()
		}
	}
}

// judge compares a settled period against the pre-probe baseline and
// keeps, extends, or reverts the probe.
func (a *Adaptive) judge(cur sample) {
	if a.prev.lat == 0 || a.win == a.prevWin {
		// No baseline yet (startup or post-backoff): record one and
		// start probing.
		a.prev = cur
		a.prevWin = a.win
		a.startProbe()
		return
	}
	switch {
	case a.win > a.prevWin: // grow probe under judgment
		if cur.tput >= a.prev.tput*(1+gainFrac) {
			// The wider window bought real throughput: keep it and
			// keep climbing.
			a.accept(cur)
			a.growDir = true
			a.startProbe()
		} else {
			// No real gain: the window is past the knee — revert.
			// Keeping "harmless" width instead would ratchet (each
			// accepted step re-baselines latency, so the next step
			// always looks harmless too) and buys only queueing delay.
			a.win = a.prevWin
			a.growDir = false
			a.rest()
		}
	default: // shrink probe under judgment
		if cur.tput >= a.prev.tput*(1-gainFrac) {
			// The narrower window cost nothing: a smaller window at
			// equal throughput is strictly better (less queueing, less
			// memory) — keep descending. The throughput baseline is NOT
			// lowered to the post-shrink sample: re-baselining each
			// accepted step would let a shallow curve (~gainFrac lost
			// per step) ratchet the window all the way down, compounding
			// small losses the grow path could never win back. Keeping
			// the descent-start baseline bounds the whole descent's loss
			// to gainFrac.
			cur.tput = a.prev.tput
			a.accept(cur)
			a.growDir = false
			a.startProbe()
		} else {
			// Throughput dropped: that window was load-bearing.
			a.win = a.prevWin
			a.growDir = true
			a.rest()
		}
	}
}

// accept records cur as the new stable baseline.
func (a *Adaptive) accept(cur sample) {
	a.prev = cur
	a.prevWin = a.win
}

// rest parks the loop at the current window for holdPeriods.
func (a *Adaptive) rest() {
	a.hold = holdPeriods
	a.phase = phaseHold
}

// startProbe nudges the window one step in the preferred direction,
// falling back to the other direction at the bounds. The probe settles for
// one period before being judged.
func (a *Adaptive) startProbe() {
	switch {
	case a.growDir && a.win < a.cfg.MaxInFlight:
		a.win++
	case a.win > a.cfg.MinInFlight:
		a.win--
	case a.win < a.cfg.MaxInFlight:
		a.win++
	default:
		a.rest()
		return
	}
	a.phase = phaseSettle
}
