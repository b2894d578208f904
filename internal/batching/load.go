package batching

import (
	"math"
	"sync/atomic"
	"time"

	"clipper/internal/metrics"
)

// This file is the replica's one load model. Every controller that needs
// to know how busy or how fast a replica is — JSQ dispatch, QoS admission
// and the hedger in internal/core, the window/pool controller in
// adaptive.go, the collector's hold rule — reads it, with atomic loads
// only; nothing else in the tree estimates a replica's service time. Occupancy moves at every queue
// transition; the estimates are written in two places only: observe, once per
// completed batch, and sampleArrivals, once per batch the collector starts.

// tailDevs is k in Tail = mean + k·dev. Two mean absolute deviations above
// the mean sits near the 90th–95th percentile for the latency shapes seen
// here (p94 of a normal, p91 of an exponential) — late enough that a
// hedge timer rarely fires on a healthy request, early enough to rescue
// a stuck one.
const tailDevs = 2

// LoadModel is one replica queue's occupancy and speed. The zero value is
// a cold model.
type LoadModel struct {
	queued          atomic.Int64 // requests submitted, not yet claimed by the collector
	inflightBatches atomic.Int64 // batches currently inside the container
	inflightReqs    atomic.Int64 // requests claimed into a batch and not yet answered
	completed       atomic.Int64 // requests answered since the queue started

	// All α = 0.2, seeded by the first sample (metrics.EWMA's zero value).
	perQuery   metrics.EWMA // batch latency / batch size, seconds
	batchLat   metrics.EWMA // batch latency, seconds
	sojourn    metrics.EWMA // oldest request's queue wait + batch latency, seconds
	sojournDev metrics.EWMA // mean absolute deviation of the sojourn series
	// robustLat is batchLat with each sample clipped at 2× the current
	// mean, so a 30 ms pause moves it by a fifth of itself, not by 6 ms;
	// the collector's hold rule times the next completion with it.
	robustLat metrics.EWMA

	// The arrival rate is arrN / arrGap — smoothed arrivals per collector
	// sample over smoothed seconds per sample: a short interval is no spike.
	arrivals     atomic.Int64 // enqueues since the collector's last sample
	arrN, arrGap metrics.EWMA
	arrAt        time.Time // collector-owned: when that sample was
	// Dispatches the collector held the last slot for, and for how long.
	holds, holdNanos atomic.Int64
}

// LoadStats is a point-in-time snapshot of one queue's load model.
type LoadStats struct {
	// Queued is the number of requests buffered in the queue, not yet
	// claimed into a batch.
	Queued int
	// InFlightBatches is the number of batches currently inside the
	// container RPC.
	InFlightBatches int
	// InFlightQueries is the number of queries claimed into a batch and
	// not yet answered: being collected, or inside the container.
	InFlightQueries int
	// Completed is the total queries answered since the queue started.
	Completed int64
	// PerQueryService is the EWMA of recent per-query service time
	// (batch latency divided by batch size). Zero until the first batch
	// completes — the scheduler treats that as a cold estimate.
	PerQueryService time.Duration
	// BatchLatency is the EWMA of recent per-batch latency; zero while
	// cold.
	BatchLatency time.Duration
	// Tail is the high estimate of a request's sojourn (queue wait plus
	// batch latency): smoothed mean plus tailDevs mean deviations. Zero
	// while cold.
	Tail time.Duration
	// ArrivalRate is the smoothed rate of enqueues per second, zero while
	// cold. Holds counts the dispatches for which the collector held the
	// pipeline's last free slot, HoldTime for how long in total.
	ArrivalRate float64
	Holds       int64
	HoldTime    time.Duration
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Stats snapshots the model.
func (m *LoadModel) Stats() LoadStats {
	return LoadStats{
		Queued:          int(m.queued.Load()),
		InFlightBatches: int(m.inflightBatches.Load()),
		InFlightQueries: int(m.inflightReqs.Load()),
		Completed:       m.completed.Load(),
		PerQueryService: seconds(m.perQuery.Value()),
		BatchLatency:    seconds(m.batchLat.Value()),
		Tail:            m.Tail(),
		ArrivalRate:     m.arrivalRate(),
		Holds:           m.holds.Load(),
		HoldTime:        time.Duration(m.holdNanos.Load()),
	}
}

// Cost returns the estimated completion time of one more query submitted
// now: (queued + in-flight + 1) queries ahead of it, drained at window
// queries per smoothed per-query service time. That rate holds whether the
// replica evaluates its window's batches side by side or one after another:
// a serial container's per-query time already carries the wait inside it.
// ok is false while the estimate is cold (no batch has completed yet), in
// which case the caller should fall back to round-robin to warm it.
func (m *LoadModel) Cost(window int) (cost time.Duration, ok bool) {
	per := m.perQuery.Value()
	if per <= 0 {
		return 0, false
	}
	depth := m.queued.Load() + m.inflightReqs.Load() + 1
	return time.Duration(depth) * seconds(per) / time.Duration(window), true
}

// Tail returns the high estimate of request sojourn, zero while cold.
func (m *LoadModel) Tail() time.Duration {
	return seconds(m.sojourn.Value() + tailDevs*m.sojournDev.Value())
}

// arrivalRate is the smoothed enqueue rate per second, zero while cold.
func (m *LoadModel) arrivalRate() float64 {
	if gap := m.arrGap.Value(); gap > 0 {
		return m.arrN.Value() / gap
	}
	return 0
}

// sampleArrivals folds the enqueues since the previous call into the
// arrival rate. Only the collector calls it.
func (m *LoadModel) sampleArrivals(now time.Time) {
	n := m.arrivals.Swap(0)
	if !m.arrAt.IsZero() {
		m.arrN.Observe(float64(n))
		m.arrGap.Observe(now.Sub(m.arrAt).Seconds())
	}
	m.arrAt = now
}

// observe folds one completed batch into the model: n queries answered in
// lat, the oldest of which had waited oldestWait in the queue before
// dispatch. This is the only writer of the estimates. Concurrent pipeline
// workers may interleave; each cell is a CAS, and a deviation taken
// against a mean one sample stale is still a deviation of the series.
func (m *LoadModel) observe(n int, lat, oldestWait time.Duration) {
	m.completed.Add(int64(n))
	m.perQuery.Observe(lat.Seconds() / float64(n))
	m.batchLat.Observe(lat.Seconds())
	clipped := lat.Seconds()
	if mean := m.robustLat.Value(); mean > 0 {
		clipped = math.Min(clipped, 2*mean)
	}
	m.robustLat.Observe(clipped)
	x := (oldestWait + lat).Seconds()
	if mean := m.sojourn.Value(); mean > 0 {
		m.sojournDev.Observe(math.Abs(x - mean))
	} else {
		m.sojournDev.Observe(x / 2) // Jacobson/Karels seed: no spread seen yet
	}
	m.sojourn.Observe(x)
}

// LoadStats snapshots the queue's load model.
func (q *Queue) LoadStats() LoadStats { return q.load.Stats() }

// EstimateCost is the load model's price for one more query on this
// replica at its current window; see LoadModel.Cost.
func (q *Queue) EstimateCost() (cost time.Duration, ok bool) { return q.load.Cost(q.win.curLimit()) }

// take accounts for r leaving the queue and reports whether the collector
// won it (false: a racing Cancel withdrew it first). A won request is in
// flight from this instant — counted before it stops being counted as
// queued, so a concurrent Cost never sees it in neither.
func (q *Queue) take(r *Request) bool {
	won := r.claim()
	if won {
		q.load.inflightReqs.Add(1)
	}
	q.load.queued.Add(-1)
	return won
}
