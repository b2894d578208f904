package cache

import (
	"math/rand"
	"testing"
)

// These tests hold the eviction policy to counts, not to times: hit
// ratios on seeded streams, the residency guarantee the feedback join
// relies on, and equality with a naive model of the rule.

// refClock is the policy this package had before probation, kept here
// only as the yardstick: one second-chance ring, new entries inserted
// with the reference bit already set.
type refClock struct {
	keys  []uint64
	used  []bool
	index map[uint64]int
	hand  int
}

func newRefClock(n int) *refClock {
	return &refClock{keys: make([]uint64, n), used: make([]bool, n), index: make(map[uint64]int, n)}
}

// lookup reports a hit, inserting k on a miss.
func (r *refClock) lookup(k uint64) bool {
	if i, ok := r.index[k]; ok {
		r.used[i] = true
		return true
	}
	full := len(r.index) == len(r.keys)
	for full && r.used[r.hand] {
		r.used[r.hand] = false
		r.hand = (r.hand + 1) % len(r.keys)
	}
	if full {
		delete(r.index, r.keys[r.hand])
	}
	r.keys[r.hand], r.used[r.hand] = k, true
	r.index[k] = r.hand
	r.hand = (r.hand + 1) % len(r.keys)
	return false
}

// lookup is the serving path's use of the cache: fetch, insert on a miss.
func lookup(c *Cache, id uint64) bool {
	if _, ok := c.Fetch(key(id)); ok {
		return true
	}
	c.Put(key(id), pred(int(id)))
	return false
}

// hitRatios drives both policies with the same ids — warm-up first, then
// counted lookups — and returns each one's hit ratio.
func hitRatios(c *Cache, ref *refClock, next func() uint64, warm, n int) (got, clock float64) {
	var hits, refHits int
	for i := 0; i < warm+n; i++ {
		id := next()
		h, rh := lookup(c, id), ref.lookup(id)
		if i < warm {
			continue
		}
		if h {
			hits++
		}
		if rh {
			refHits++
		}
	}
	return float64(hits) / float64(n), float64(refHits) / float64(n)
}

// The benchmark's zipf_cache key stream: Zipf(1.1) over 8000 ids into
// 1024 entries. The static optimum (the top 1024 ids resident) is 0.858.
func TestZipfHitRatioBeatsClock(t *testing.T) {
	for _, shards := range []int{1, 8} {
		rng := rand.New(rand.NewSource(1))
		z := rand.NewZipf(rng, 1.1, 1, 7999)
		got, clock := hitRatios(newSharded(1024, shards), newRefClock(1024), z.Uint64, 200_000, 1_200_000)
		t.Logf("shards=%d: hit ratio %.4f, reference CLOCK %.4f", shards, got, clock)
		if got < 0.825 {
			t.Errorf("shards=%d: Zipf(1.1) hit ratio %.4f, want ≥ 0.825", shards, got)
		}
		if clock > 0.80 {
			t.Errorf("reference CLOCK hit ratio %.4f, want ≤ 0.80: the yardstick moved", clock)
		}
	}
}

// Uniform keys give a policy nothing to keep: the hit ratio is the share
// of the pool that fits, for this policy as for any other.
func TestUniformHitRatioIsCapacityShare(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	next := func() uint64 { return uint64(rng.Intn(8000)) }
	got, clock := hitRatios(newSharded(1024, 8), newRefClock(1024), next, 200_000, 1_200_000)
	t.Logf("hit ratio %.4f, reference CLOCK %.4f", got, clock)
	if want := 1024.0 / 8000; got < want-0.01 || got > want+0.01 {
		t.Fatalf("uniform hit ratio %.4f, want %.3f ± 0.01", got, want)
	}
}

// The contract the feedback join relies on: the last max(1, ⌊n/4⌋) keys
// inserted into a shard are resident — an entry survives ⌊n/4⌋−1 further
// insertions into its shard — whatever mix of hits comes in between.
func TestRecentInsertsStayResident(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		c := newSharded(n, 1)
		window := max(1, n/probationDiv)
		var inserted []uint64
		for op := 0; op < 4000; op++ {
			if len(inserted) > 0 && rng.Intn(3) > 0 {
				// A hit or a miss on an earlier key, recent ones more often.
				back := rng.Intn(min(len(inserted), 1+rng.Intn(4*n)))
				c.Fetch(key(inserted[len(inserted)-1-back]))
				continue
			}
			id := uint64(len(inserted))
			c.Put(key(id), pred(int(id)))
			inserted = append(inserted, id)
			for _, recent := range inserted[max(0, len(inserted)-window):] {
				if _, ok := c.shards[0].index[key(recent)]; !ok {
					t.Fatalf("seed %d, capacity %d: key %d gone after %d further inserts, guaranteed %d",
						seed, n, recent, id-recent, window-1)
				}
			}
		}
	}
}

// An entry pushed out of probation unreferenced is still promoted while
// the protected ring has room, so a cold start fills the whole cache.
func TestNoUnderFillWithoutHits(t *testing.T) {
	for _, tc := range []struct{ capacity, shards int }{
		{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {64, 1}, {1000, 1}, {1024, 8},
	} {
		c := newSharded(tc.capacity, tc.shards)
		// Single shard: exactly Capacity() inserts fill it. Striped: ids
		// spread unevenly, so insert until the emptiest shard is full too.
		n := tc.capacity
		if len(c.ShardStats()) > 1 {
			n *= 4
		}
		for i := 0; i < n; i++ {
			c.Put(key(uint64(i)), pred(i))
		}
		if liveEntries(c) != c.Capacity() {
			t.Errorf("capacity %d over %d shard(s): %d entries after %d distinct inserts",
				tc.capacity, len(c.ShardStats()), liveEntries(c), n)
		}
	}
}

// refModel is the rule written naively: probation is a queue, oldest
// first; protected is a ring with a hand; lookups scan.
type refModel struct {
	nprob, nprot int
	prob, prot   []refEntry
	hand         int
	inserted     int64 // puts of a key not resident
}

type refEntry struct {
	id    uint64
	label int
	hit   bool
}

func (m *refModel) find(id uint64) *refEntry {
	for _, seg := range [][]refEntry{m.prob, m.prot} {
		for i := range seg {
			if seg[i].id == id {
				return &seg[i]
			}
		}
	}
	return nil
}

func (m *refModel) fetch(id uint64) (int, bool) {
	if e := m.find(id); e != nil {
		e.hit = true
		return e.label, true
	}
	return 0, false
}

func (m *refModel) put(id uint64, label int) {
	if e := m.find(id); e != nil {
		e.label, e.hit = label, true
		return
	}
	if len(m.prob) == m.nprob {
		old := m.prob[0]
		m.prob = m.prob[1:]
		promoted := refEntry{id: old.id, label: old.label}
		switch {
		case len(m.prot) < m.nprot:
			m.prot = append(m.prot, promoted)
		case old.hit && m.nprot > 0:
			for m.prot[m.hand].hit {
				m.prot[m.hand].hit = false
				m.hand = (m.hand + 1) % m.nprot
			}
			m.prot[m.hand] = promoted
			m.hand = (m.hand + 1) % m.nprot
		}
	}
	m.prob = append(m.prob, refEntry{id: id, label: label})
	m.inserted++
}

// The ring implementation against the naive model: same resident set and
// same values after every one of 20 k mixed operations, 50 seeds,
// capacities from 1 (probation only) up.
func TestPolicyMatchesNaiveModel(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(48)
		if seed < 4 {
			n = int(seed) + 1 // capacities 1-4: probation-only, then 1+rest
		}
		c := newSharded(n, 1)
		s := &c.shards[0]
		m := &refModel{nprob: max(1, n/probationDiv)}
		m.nprot = n - m.nprob
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(4*n))
		for op := 0; op < 20_000; op++ {
			id := zipf.Uint64()
			switch rng.Intn(3) {
			case 0:
				v, ok := c.Fetch(key(id))
				label, wantOK := m.fetch(id)
				if ok != wantOK || (ok && v.Label != label) {
					t.Fatalf("seed %d op %d: Fetch(%d) = %d,%v, model %d,%v", seed, op, id, v.Label, ok, label, wantOK)
				}
			case 1:
				c.Put(key(id), pred(op))
				m.put(id, op)
			default: // the serving path: Request, and Put as the leader
				v, hit, leader, _ := c.Request(key(id))
				label, wantHit := m.fetch(id)
				if hit != wantHit || (hit && v.Label != label) || leader == hit {
					t.Fatalf("seed %d op %d: Request(%d) = %d,%v leader=%v, model %d,%v", seed, op, id, v.Label, hit, leader, label, wantHit)
				}
				if leader {
					c.Put(key(id), pred(op))
					m.put(id, op)
				}
			}
			if len(s.index) != len(m.prob)+len(m.prot) || s.plen != len(m.prob) {
				t.Fatalf("seed %d op %d (capacity %d): %d resident, %d on probation; model %d+%d",
					seed, op, n, len(s.index), s.plen, len(m.prob), len(m.prot))
			}
			for _, seg := range [][]refEntry{m.prob, m.prot} {
				for _, e := range seg {
					if i, ok := s.index[key(e.id)]; !ok || s.slots[i].value.Label != e.label || s.slots[i].used != e.hit {
						t.Fatalf("seed %d op %d (capacity %d): model holds %+v, cache index says %d,%v", seed, op, n, e, i, ok)
					}
				}
			}
		}
		// Every key ever inserted is resident or was evicted exactly once,
		// and the protected ring holds only promoted entries.
		st := c.ShardStats()[0]
		if int64(st.Entries)+st.Evictions != m.inserted || st.Probation != len(m.prob) ||
			st.Promotions < int64(len(m.prot)) || st.Promotions > m.inserted {
			t.Fatalf("seed %d: ShardStats %+v after %d inserts, model %d+%d", seed, st, m.inserted, len(m.prob), len(m.prot))
		}
	}
}
