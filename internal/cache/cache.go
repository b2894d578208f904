// Package cache implements Clipper's prediction cache (paper §4.2): a
// fixed-capacity function cache for Predict(model, x) keyed by model id and
// query hash, and a subscription mechanism so that concurrent requests for
// the same uncomputed entry trigger exactly one model evaluation.
//
// The cache serves two roles in Clipper: partial pre-materialization of
// popular queries, and an efficient join between recent predictions and
// subsequently arriving feedback for the model selection layer. One
// eviction rule serves both. Each shard is two segments: every new entry
// enters a strict-FIFO probation ring (a quarter of the shard), and when a
// later insert pushes it out it is promoted into a second-chance CLOCK ring
// (the protected segment, reference bit clear on arrival) if it was hit
// while on probation or the protected ring still has a free slot, else
// evicted. Hits in either segment only set the reference bit. So a key
// asked for once leaves after a quarter-shard of insertions instead of
// surviving two CLOCK sweeps (popularity), and the last ⌊shardCap/4⌋ keys
// inserted into a shard are always resident (the feedback join).
//
// To keep the Predict hot path scalable, the cache is lock-striped into
// power-of-two shards (sized from GOMAXPROCS): each shard owns its own
// two rings, index, and pending-subscriber table behind an independent
// mutex, so concurrent queries for different keys proceed without
// contending on a single global lock. Keys are routed to shards by mixing
// Key.QueryID, reusing the HashQuery content hash already computed on the
// request path. Hit/miss counters are per-shard atomics aggregated by
// Stats, so totals stay exact under concurrency.
package cache

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"clipper/internal/container"
)

// Key identifies one cached prediction: a model (name+version) and a query
// content hash.
type Key struct {
	Model   string
	Version int
	QueryID uint64
}

// Odd 64-bit multipliers of the query hash, one per lane.
const (
	hashK0 = 0x9E3779B97F4A7C15
	hashK1 = 0xBF58476D1CE4E5B9
	hashK2 = 0x94D049BB133111EB
	hashK3 = 0xD6E8FEB86659FD93
)

// foldMul multiplies to 128 bits and folds the halves together.
func foldMul(a, k uint64) uint64 {
	hi, lo := bits.Mul64(a, k)
	return hi ^ lo
}

// hashStep absorbs one 8-byte word into a lane: multiply-fold of
// state⊕word, rotate, add.
func hashStep(state, word, k uint64) uint64 {
	return bits.RotateLeft64(foldMul(state^word, k), 29) + k
}

// HashQuery returns a content hash of a feature vector, suitable for
// Key.QueryID. Equal vectors always hash equal (bit-for-bit equal: 0.0
// and -0.0 differ); distinct vectors collide with probability ~2^-64.
// It takes 8 bytes per step over four independent lanes seeded with the
// length, so it costs about a nanosecond per element. The value is
// consistent within a process only: nothing persists or ships it.
func HashQuery(x []float64) uint64 {
	n := uint64(len(x))
	a, b, c, d := n*hashK0+hashK1, n*hashK1+hashK2, n*hashK2+hashK3, n*hashK3+hashK0
	for len(x) >= 4 {
		a = hashStep(a, math.Float64bits(x[0]), hashK0)
		b = hashStep(b, math.Float64bits(x[1]), hashK1)
		c = hashStep(c, math.Float64bits(x[2]), hashK2)
		d = hashStep(d, math.Float64bits(x[3]), hashK3)
		x = x[4:]
	}
	for _, v := range x {
		a = hashStep(a, math.Float64bits(v), hashK0)
	}
	h := foldMul(a^bits.RotateLeft64(b, 17), hashK1) ^ foldMul(c^bits.RotateLeft64(d, 41), hashK2)
	h ^= h >> 32
	h *= hashK3
	return h ^ h>>29
}

// slot is one cached entry in either segment.
type slot struct {
	key   Key
	value container.Prediction
	used  bool // reference bit: hit since it entered this segment
}

// shard is one independently locked cache stripe. slots[:nprob] is the
// probation FIFO ring, slots[nprob:] the protected CLOCK ring; entries are
// never removed except by eviction, so each segment fills from its first
// slot and a live count says which slots hold entries. The trailing pad
// spaces shards out to separate cache lines: without it, one shard's hot
// hit/miss atomics share a line with its neighbor's mutex in the
// contiguous shard array, and the resulting false sharing costs more than
// the striping saves.
type shard struct {
	mu      sync.Mutex
	slots   []slot
	index   map[Key]int // key -> slot
	nprob   int         // probation slots
	phead   int         // next probation slot to write: the oldest entry once full
	plen    int         // live probation entries
	hand    int         // CLOCK hand, relative to slots[nprob:]
	protLen int         // live protected entries
	// pending holds one entry per in-flight computation: the followers'
	// completions, nil while only the leader has asked.
	pending map[Key][]func(container.Prediction, bool)

	promotions int64 // probation -> protected moves (under mu)
	evictions  int64 // entries dropped from either segment (under mu)

	hits   atomic.Int64
	misses atomic.Int64

	_ [8]byte // pad to 128 bytes (two 64-byte lines)
}

// probationDiv fixes the probation ring at a quarter of its shard. It is
// a constant, not a knob: an eighth buys 0.8 points of Zipf hit ratio and
// gives up the last of the feedback join (0.9998 on the benchmark's
// ensemble stream), a half gives the popular keys too little room.
const probationDiv = 4

// minShardCapacity is the smallest per-shard capacity worth striping:
// below it the eviction behavior of a stripe degenerates (a handful of
// slots thrash), so small caches collapse to fewer shards — down to one,
// which gives the capacities unit tests use exact single-shard semantics.
const minShardCapacity = 64

// Cache is a lock-striped prediction cache with probation+CLOCK eviction,
// safe for concurrent use. Construct with New or newSharded.
type Cache struct {
	shards []shard
	shift  uint // shard index = mix(QueryID) >> shift
	cap    int
}

// New returns a cache holding up to capacity predictions across an
// automatically sized set of shards (next power of two ≥ 4×GOMAXPROCS,
// reduced so every shard keeps useful rings). Capacity below 1 is
// raised to 1.
func New(capacity int) *Cache {
	return newSharded(capacity, 0)
}

// newSharded returns a cache holding up to capacity predictions split over
// the given number of shards. shards is rounded up to a power of two;
// shards <= 0 selects the automatic sizing used by New. Shard counts that
// would leave a shard with fewer than minShardCapacity slots are reduced,
// so newSharded(n, 1) is always exactly a single-mutex cache (the baseline
// the parallel benchmarks compare against).
func newSharded(capacity, shards int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	if shards <= 0 {
		shards = 4 * runtime.GOMAXPROCS(0)
	}
	n := nextPow2(shards)
	for n > 1 && capacity/n < minShardCapacity {
		n >>= 1
	}
	c := &Cache{
		shards: make([]shard, n),
		shift:  uint(64 - log2(n)),
		cap:    capacity,
	}
	// Per-shard capacities sum exactly to the configured total; the
	// remainder goes to the leading shards one slot each.
	base, rem := capacity/n, capacity%n
	for i := range c.shards {
		scap := base
		if i < rem {
			scap++
		}
		s := &c.shards[i]
		s.slots = make([]slot, scap)
		s.index = make(map[Key]int, scap)
		s.nprob = max(1, scap/probationDiv)
		s.pending = make(map[Key][]func(container.Prediction, bool))
	}
	return c
}

// nextPow2 returns the smallest power of two >= v (v >= 1).
func nextPow2(v int) int {
	return 1 << bits.Len(uint(v-1))
}

// log2 returns log2 of a power of two.
func log2(v int) uint {
	return uint(bits.TrailingZeros(uint(v)))
}

// shardFor routes a key to its shard. The QueryID is already a content
// hash on the request path (HashQuery), so routing only applies a cheap
// Fibonacci mix and takes the high bits — this keeps small or sequential
// synthetic ids (as used by tests and ablations) spread across shards
// without rehashing the feature vector.
func (c *Cache) shardFor(key Key) *shard {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	return &c.shards[(key.QueryID*0x9E3779B97F4A7C15)>>c.shift]
}

// Fetch returns the cached prediction for key, if present, marking the
// entry recently used. This is the paper's non-blocking fetch.
func (c *Cache) Fetch(key Key) (container.Prediction, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	if i, ok := s.index[key]; ok {
		s.slots[i].used = true
		v := s.slots[i].value
		s.mu.Unlock()
		s.hits.Add(1)
		return v, true
	}
	s.mu.Unlock()
	s.misses.Add(1)
	return container.Prediction{}, false
}

// Request is the paper's non-blocking request: it checks for the entry
// and, when absent, claims its computation. Exactly one of the three
// outcomes is true:
//
//   - hit, with the value, when the entry is cached;
//   - leader when the caller is the first requester and is responsible for
//     computing the value and calling Put (or Abort);
//   - follower when a computation is already in flight; the caller may
//     Follow it.
func (c *Cache) Request(key Key) (val container.Prediction, hit, leader, follower bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	if i, ok := s.index[key]; ok {
		s.slots[i].used = true
		v := s.slots[i].value
		s.mu.Unlock()
		s.hits.Add(1)
		return v, true, false, false
	}
	_, inflight := s.pending[key]
	if !inflight {
		s.pending[key] = nil
	}
	s.mu.Unlock()
	s.misses.Add(1)
	return container.Prediction{}, false, !inflight, inflight
}

// Follow registers done with key's in-flight computation: it fires exactly
// once — with the value on the leader's goroutine when it Puts, with
// ok=false when it Aborts — and must not block. If the computation ended
// between Request and Follow, done fires inline: with the value when it is
// cached, else with ok=false.
func (c *Cache) Follow(key Key, done func(container.Prediction, bool)) {
	s := c.shardFor(key)
	s.mu.Lock()
	if followers, inflight := s.pending[key]; inflight {
		s.pending[key] = append(followers, done)
		s.mu.Unlock()
		return
	}
	i, ok := s.index[key]
	var v container.Prediction
	if ok {
		v = s.slots[i].value
	}
	s.mu.Unlock()
	done(v, ok)
}

// Put stores a prediction and completes the followers registered via Follow.
func (c *Cache) Put(key Key, value container.Prediction) {
	s := c.shardFor(key)
	s.mu.Lock()
	s.insertLocked(key, value)
	followers := s.pending[key]
	delete(s.pending, key)
	s.mu.Unlock()
	for _, done := range followers {
		done(value, true)
	}
}

// Abort cancels an in-flight computation claimed via Request, completing
// its followers without a value. The leader calls it when the model
// evaluation fails.
func (c *Cache) Abort(key Key) {
	s := c.shardFor(key)
	s.mu.Lock()
	followers := s.pending[key]
	delete(s.pending, key)
	s.mu.Unlock()
	for _, done := range followers {
		done(container.Prediction{}, false)
	}
}

// insertLocked adds an entry at the tail of the probation ring, or
// refreshes one already resident (which counts as a hit). When the ring is
// full its oldest entry makes room: promoted if it was hit on probation or
// the protected ring has a free slot, evicted otherwise.
func (s *shard) insertLocked(key Key, value container.Prediction) {
	if i, ok := s.index[key]; ok {
		s.slots[i].value = value
		s.slots[i].used = true
		return
	}
	in := &s.slots[s.phead]
	switch nprot := len(s.slots) - s.nprob; {
	case s.plen < s.nprob:
		s.plen++
	case nprot > 0 && (in.used || s.protLen < nprot):
		s.promoteLocked(in)
	default:
		delete(s.index, in.key)
		s.evictions++
	}
	*in = slot{key: key, value: value}
	s.index[key] = s.phead
	s.phead = (s.phead + 1) % s.nprob
}

// promoteLocked copies e into the protected ring with its reference bit
// clear: into a free slot while there is one, else over the first entry
// the hand finds unreferenced, clearing bits as it passes (the second
// chance).
func (s *shard) promoteLocked(e *slot) {
	prot := s.slots[s.nprob:]
	i := s.protLen
	if i < len(prot) {
		s.protLen++
	} else {
		for prot[s.hand].used {
			prot[s.hand].used = false
			s.hand = (s.hand + 1) % len(prot)
		}
		i = s.hand
		s.hand = (s.hand + 1) % len(prot)
		delete(s.index, prot[i].key)
		s.evictions++
	}
	prot[i] = slot{key: e.key, value: e.value}
	s.index[e.key] = s.nprob + i
	s.promotions++
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.index)
		s.mu.Unlock()
	}
	return n
}

// Capacity returns the maximum number of entries.
func (c *Cache) Capacity() int { return c.cap }

// Shards returns the number of lock stripes.
func (c *Cache) Shards() int { return len(c.shards) }

// Stats returns cumulative hit and miss counts, aggregated exactly across
// shards.
func (c *Cache) Stats() (hits, misses int64) {
	for i := range c.shards {
		hits += c.shards[i].hits.Load()
		misses += c.shards[i].misses.Load()
	}
	return hits, misses
}

// ShardStat is one lock stripe's live telemetry, for the per-shard
// Prometheus series: exact cumulative hits/misses (per-shard atomics),
// the stripe's current live-entry count and how many of those are on
// probation, and the cumulative work of the eviction policy.
type ShardStat struct {
	Hits       int64
	Misses     int64
	Entries    int
	Probation  int   // live entries in the probation ring (≤ Entries)
	Promotions int64 // entries moved from probation to the protected ring
	Evictions  int64 // entries dropped, from either segment
}

// ShardStats snapshots every stripe in index order, taking each shard's
// mutex briefly for the entry and policy counts — cheap enough for
// scrape-time collection, never called on the hot path.
func (c *Cache) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out[i] = ShardStat{
			Hits:       s.hits.Load(),
			Misses:     s.misses.Load(),
			Entries:    len(s.index),
			Probation:  s.plen,
			Promotions: s.promotions,
			Evictions:  s.evictions,
		}
		s.mu.Unlock()
	}
	return out
}

// HitRate returns hits / (hits+misses), or 0 before any lookups.
func (c *Cache) HitRate() float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
