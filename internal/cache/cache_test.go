package cache

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"clipper/internal/container"
)

// liveEntries is the cache's live entry count, summed over its stripes.
func liveEntries(c *Cache) int {
	n := 0
	for _, st := range c.ShardStats() {
		n += st.Entries
	}
	return n
}

func key(id uint64) Key { return Key{Model: "m", Version: 1, QueryID: id} }

func pred(label int) container.Prediction { return container.Prediction{Label: label} }

func TestHashQueryDeterministicAndDiscriminating(t *testing.T) {
	a := HashQuery([]float64{1, 2, 3})
	b := HashQuery([]float64{1, 2, 3})
	c := HashQuery([]float64{1, 2, 4})
	if a != b {
		t.Fatal("equal vectors must hash equal")
	}
	if a == c {
		t.Fatal("distinct vectors should hash distinct")
	}
	if HashQuery(nil) != HashQuery([]float64{}) {
		t.Fatal("nil and empty should hash equal")
	}
}

func TestHashQueryProperty(t *testing.T) {
	f := func(x []float64) bool {
		cp := append([]float64(nil), x...)
		return HashQuery(x) == HashQuery(cp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Near-identical vectors must not collide: each family below differs
// from its neighbours in the least a query can — one element by one ULP,
// only the length, only the sign of a zero.
func TestHashQueryNoCollisionsAmongNeighbours(t *testing.T) {
	seen := make(map[uint64]struct{}, 1<<20)
	add := func(what string, x []float64) {
		h := HashQuery(x)
		if _, dup := seen[h]; dup {
			t.Fatalf("collision in %s family at vector %d", what, len(seen))
		}
		seen[h] = struct{}{}
	}
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 30)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range x { // 30 elements × 32 k steps of one ULP
		was := x[i]
		for step := 0; step < 1<<15; step++ {
			x[i] = math.Nextafter(x[i], math.Inf(1))
			add("one-ULP", x)
		}
		x[i] = was
	}
	zeros := make([]float64, 1<<12)
	for n := range zeros { // all-zero vectors of every length
		add("length", zeros[:n])
	}
	signs := make([]float64, 16)
	for mask := 1; mask < 1<<16; mask++ { // every placement of -0.0 among 16 zeros
		for i := range signs {
			signs[i] = 0
			if mask>>i&1 == 1 {
				signs[i] = math.Copysign(0, -1)
			}
		}
		add("signed-zero", signs)
	}
	if len(seen) < 1_000_000 {
		t.Fatalf("only %d vectors hashed", len(seen))
	}
}

// The hash runs once per query on the cache-hit path and must not
// allocate. Its speed (BenchmarkHashQuery784: ≈ 0.8 µs, FNV-1a through
// hash.Hash was 9 µs) is recorded in CHANGES.md, not asserted: a timing
// bound loose enough for a shared runner under -race says nothing.
func TestHashQueryDoesNotAllocate(t *testing.T) {
	x := make([]float64, 784)
	if n := testing.AllocsPerRun(100, func() { HashQuery(x) }); n != 0 {
		t.Fatalf("HashQuery allocates %v per call", n)
	}
}

func TestPutFetch(t *testing.T) {
	c := New(4)
	if _, ok := c.Fetch(key(1)); ok {
		t.Fatal("empty cache must miss")
	}
	c.Put(key(1), pred(7))
	v, ok := c.Fetch(key(1))
	if !ok || v.Label != 7 {
		t.Fatalf("Fetch = %+v, %v", v, ok)
	}
	if liveEntries(c) != 1 || c.Capacity() != 4 {
		t.Fatalf("entries=%d Cap=%d", liveEntries(c), c.Capacity())
	}
}

func TestPutOverwrite(t *testing.T) {
	c := New(2)
	c.Put(key(1), pred(1))
	c.Put(key(1), pred(2))
	v, _ := c.Fetch(key(1))
	if v.Label != 2 {
		t.Fatalf("Label = %d", v.Label)
	}
	if liveEntries(c) != 1 {
		t.Fatalf("entries = %d", liveEntries(c))
	}
}

func TestEvictionCapacity(t *testing.T) {
	c := New(3)
	for i := uint64(0); i < 10; i++ {
		c.Put(key(i), pred(int(i)))
	}
	if liveEntries(c) != 3 {
		t.Fatalf("entries = %d, want 3", liveEntries(c))
	}
	// The most recent insert always survives.
	if _, ok := c.Fetch(key(9)); !ok {
		t.Fatal("most recent entry evicted")
	}
}

func TestHotEntrySurvivesEviction(t *testing.T) {
	// Fill the cache, touch one entry repeatedly, then insert new keys:
	// the hot entry must survive eviction pressure (the second chance the
	// paper relies on for hot items).
	c := New(4)
	for i := uint64(0); i < 4; i++ {
		c.Put(key(i), pred(int(i)))
	}
	for j := 0; j < 3; j++ {
		if _, ok := c.Fetch(key(2)); !ok {
			t.Fatal("hot entry missing during warm-up")
		}
		c.Put(key(100+uint64(j)), pred(0)) // evicts a cold entry
		if _, ok := c.Fetch(key(2)); !ok {
			t.Fatalf("hot entry evicted after %d inserts", j+1)
		}
	}
}

func TestCapacityOne(t *testing.T) {
	c := New(0) // clamped to 1
	if c.Capacity() != 1 {
		t.Fatalf("Capacity = %d", c.Capacity())
	}
	c.Put(key(1), pred(1))
	c.Put(key(2), pred(2))
	if _, ok := c.Fetch(key(1)); ok {
		t.Fatal("capacity-1 cache should have evicted key 1")
	}
	if _, ok := c.Fetch(key(2)); !ok {
		t.Fatal("capacity-1 cache lost the latest entry")
	}
}

// follow registers a follower of key's in-flight computation and returns a
// channel that receives the leader's value, or is closed without one on Abort.
func follow(c *Cache, k Key) <-chan container.Prediction {
	ch := make(chan container.Prediction, 1)
	c.Follow(k, func(v container.Prediction, ok bool) {
		if ok {
			ch <- v
		}
		close(ch)
	})
	return ch
}

func TestRequestLeaderElection(t *testing.T) {
	c := New(4)
	if _, hit, leader, follower := c.Request(key(5)); hit || !leader || follower {
		t.Fatalf("first requester: hit=%v leader=%v follower=%v", hit, leader, follower)
	}
	var chs []<-chan container.Prediction
	for i := 2; i <= 3; i++ {
		if _, hit, leader, follower := c.Request(key(5)); hit || leader || !follower {
			t.Fatalf("requester %d must follow: hit=%v leader=%v follower=%v", i, hit, leader, follower)
		}
		chs = append(chs, follow(c, key(5)))
	}
	c.Put(key(5), pred(9))
	for i, ch := range chs {
		select {
		case v, ok := <-ch:
			if !ok || v.Label != 9 {
				t.Fatalf("follower %d got %+v ok=%v", i, v, ok)
			}
		case <-time.After(time.Second):
			t.Fatalf("follower %d not completed", i)
		}
	}
	// After Put, requests hit, and a late Follow completes inline with the value.
	v, hit, _, _ := c.Request(key(5))
	if !hit || v.Label != 9 {
		t.Fatalf("post-Put Request: hit=%v v=%+v", hit, v)
	}
	if v, ok := <-follow(c, key(5)); !ok || v.Label != 9 {
		t.Fatalf("Follow after Put got %+v ok=%v", v, ok)
	}
}

func TestAbortCompletesFollowers(t *testing.T) {
	c := New(4)
	if _, _, leader, _ := c.Request(key(1)); !leader {
		t.Fatal("expected leadership")
	}
	if _, _, leader, _ := c.Request(key(1)); leader {
		t.Fatal("expected a follower")
	}
	ch := follow(c, key(1))
	c.Abort(key(1))
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("aborted follower received a value")
		}
	case <-time.After(time.Second):
		t.Fatal("aborted follower not completed")
	}
	// A Follow that lost the race with Abort completes inline without a value.
	if _, ok := <-follow(c, key(1)); ok {
		t.Fatal("Follow after Abort received a value")
	}
	// Leadership is available again after abort.
	if _, _, leader, _ := c.Request(key(1)); !leader {
		t.Fatal("leadership not released after Abort")
	}
}

func TestStatsAndHitRate(t *testing.T) {
	c := New(4)
	c.Put(key(1), pred(1))
	c.Fetch(key(1))
	c.Fetch(key(2))
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d", h, m)
	}
	if got := c.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %v", got)
	}
	empty := New(4)
	if empty.HitRate() != 0 {
		t.Fatal("empty HitRate should be 0")
	}
}

func TestShardStats(t *testing.T) {
	c := newSharded(256, 4)
	const n = 64
	for i := 0; i < n; i++ {
		c.Put(key(uint64(i)), pred(i))
		c.Fetch(key(uint64(i)))     // hit
		c.Fetch(key(uint64(i + n))) // miss
	}
	sts := c.ShardStats()
	if len(sts) != 4 {
		t.Fatalf("ShardStats len = %d", len(sts))
	}
	var hits, misses int64
	entries := 0
	for _, st := range sts {
		hits += st.Hits
		misses += st.Misses
		entries += st.Entries
	}
	h, m := c.Stats()
	if hits != h || misses != m {
		t.Fatalf("per-shard sums (%d,%d) != aggregate (%d,%d)", hits, misses, h, m)
	}
	if entries != n {
		t.Fatalf("per-shard entries %d, want the %d keys put", entries, n)
	}
	if hits != n || misses != n {
		t.Fatalf("hits=%d misses=%d, want %d each", hits, misses, n)
	}
}

func TestConcurrentSingleLeaderPerKey(t *testing.T) {
	c := New(64)
	const goroutines = 16
	var leaders int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, hit, leader, _ := c.Request(key(42))
			if hit {
				return
			}
			if leader {
				mu.Lock()
				leaders++
				mu.Unlock()
				c.Put(key(42), pred(1))
				return
			}
			select {
			case <-follow(c, key(42)):
			case <-time.After(2 * time.Second):
				t.Error("waiter starved")
			}
		}()
	}
	close(start)
	wg.Wait()
	if leaders != 1 {
		t.Fatalf("leaders = %d, want exactly 1", leaders)
	}
}

func TestConcurrentPutFetchManyKeys(t *testing.T) {
	c := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(uint64(g*1000 + i))
				c.Put(k, pred(i))
				if v, ok := c.Fetch(k); ok && v.Label != i {
					t.Errorf("corrupt value for %v: %d", k, v.Label)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if liveEntries(c) > c.Capacity() {
		t.Fatalf("%d entries exceed capacity %d", liveEntries(c), c.Capacity())
	}
}

func TestLenNeverExceedsCapacityProperty(t *testing.T) {
	f := func(keys []uint64, capacity uint8) bool {
		cap := int(capacity%16) + 1
		c := New(cap)
		for _, k := range keys {
			c.Put(key(k), pred(int(k)))
		}
		return liveEntries(c) <= cap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctModelsDoNotCollide(t *testing.T) {
	c := New(8)
	k1 := Key{Model: "a", Version: 1, QueryID: 7}
	k2 := Key{Model: "b", Version: 1, QueryID: 7}
	k3 := Key{Model: "a", Version: 2, QueryID: 7}
	c.Put(k1, pred(1))
	c.Put(k2, pred(2))
	c.Put(k3, pred(3))
	for i, k := range []Key{k1, k2, k3} {
		v, ok := c.Fetch(k)
		if !ok || v.Label != i+1 {
			t.Fatalf("key %d: %+v ok=%v", i, v, ok)
		}
	}
}

func TestShardCapacitySumsToTotal(t *testing.T) {
	for _, tc := range []struct{ capacity, shards int }{
		{1, 0}, {3, 0}, {100, 0}, {1 << 16, 0},
		{1000, 4}, {1 << 12, 8}, {130, 2}, {1 << 16, 7},
	} {
		c := newSharded(tc.capacity, tc.shards)
		sum := 0
		for i := range c.shards {
			s := &c.shards[i]
			prob, prot := len(s.slots[:s.nprob]), len(s.slots[s.nprob:])
			if prob != max(1, (prob+prot)/probationDiv) {
				t.Fatalf("cap=%d shards=%d: shard %d splits %d+%d", tc.capacity, tc.shards, i, prob, prot)
			}
			sum += prob + prot
		}
		if sum != tc.capacity || c.Capacity() != tc.capacity {
			t.Fatalf("cap=%d shards=%d: slot sum=%d Capacity=%d",
				tc.capacity, tc.shards, sum, c.Capacity())
		}
		if n := len(c.ShardStats()); n&(n-1) != 0 || n < 1 {
			t.Fatalf("shard count %d not a power of two", n)
		}
	}
	// Tiny caches must collapse to a single shard, so small capacities
	// have exact single-shard eviction semantics.
	if n := len(New(4).ShardStats()); n != 1 {
		t.Fatalf("len(New(4).ShardStats()) = %d, want 1", n)
	}
	if n := len(newSharded(1<<16, 1).ShardStats()); n != 1 {
		t.Fatalf("len(newSharded(_, 1).ShardStats()) = %d, want 1", n)
	}
}

func TestKeysSpreadAcrossShards(t *testing.T) {
	c := newSharded(1<<12, 8)
	if len(c.ShardStats()) != 8 {
		t.Fatalf("want 8 shards, got %d", len(c.ShardStats()))
	}
	load := func(ids func(i int) uint64, n int) (lo, hi int) {
		per := make([]int, len(c.shards))
		for i := 0; i < n; i++ {
			s := c.shardFor(key(ids(i)))
			for j := range c.shards {
				if s == &c.shards[j] {
					per[j]++
				}
			}
		}
		return slices.Min(per), slices.Max(per)
	}
	// Content-hashed random vectors: max/min shard load ≤ 1.5.
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 16)
	lo, hi := load(func(int) uint64 {
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		return HashQuery(x)
	}, 1<<16)
	if float64(hi) > 1.5*float64(lo) {
		t.Fatalf("hashed vectors: shard load min=%d max=%d", lo, hi)
	}
	// Small sequential ids (tests, ablations) must spread too.
	if lo, _ := load(func(i int) uint64 { return uint64(i) }, 256); lo == 0 {
		t.Fatal("sequential ids leave a shard empty")
	}
}

// The pad keeps neighbouring shards' hot fields on separate cache lines.
func TestShardIsWholeCacheLines(t *testing.T) {
	if sz := unsafe.Sizeof(shard{}); sz%64 != 0 {
		t.Fatalf("sizeof(shard) = %d, not a multiple of 64: fix the pad", sz)
	}
}

// TestConcurrentShardedStress drives Request leader/follower single-flight,
// Put wakeups, Abort, and Fetch across shards simultaneously. Run under
// -race. It also proves Stats stays exact: every Fetch/Request increments
// exactly one of hits/misses.
func TestConcurrentShardedStress(t *testing.T) {
	c := newSharded(1<<12, 8)
	if len(c.ShardStats()) < 2 {
		t.Fatalf("stress test needs multiple shards, got %d", len(c.ShardStats()))
	}
	const (
		goroutines = 16
		iters      = 400
		keySpace   = 64
	)
	var ops atomic.Int64 // total Fetch+Request calls issued
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			<-start
			for i := 0; i < iters; i++ {
				k := key(uint64(rng.Intn(keySpace)))
				switch rng.Intn(3) {
				case 0:
					c.Fetch(k)
					ops.Add(1)
				case 1:
					c.Put(k, pred(i))
				default:
					_, hit, leader, _ := c.Request(k)
					ops.Add(1)
					if hit {
						continue
					}
					if leader {
						if rng.Intn(8) == 0 {
							c.Abort(k)
						} else {
							c.Put(k, pred(i))
						}
						continue
					}
					select {
					case <-follow(c, k): // value or abort-close both release us
					case <-time.After(5 * time.Second):
						t.Error("follower starved: leader never Put/Abort")
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	h, m := c.Stats()
	if h+m != ops.Load() {
		t.Fatalf("Stats lost updates: hits=%d misses=%d, want sum %d", h, m, ops.Load())
	}
	if liveEntries(c) > c.Capacity() {
		t.Fatalf("%d entries exceed capacity %d", liveEntries(c), c.Capacity())
	}
}

func BenchmarkCachePutFetch(b *testing.B) {
	c := New(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := key(uint64(i % 8192))
		if _, ok := c.Fetch(k); !ok {
			c.Put(k, pred(i))
		}
	}
}

// benchmarkCacheParallel runs the mixed Fetch/Put hot-path workload from
// BenchmarkCachePutFetch concurrently across GOMAXPROCS goroutines.
func benchmarkCacheParallel(b *testing.B, c *Cache) {
	b.ReportAllocs()
	var gid atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		// Per-goroutine key streams with overlapping ranges: mostly hits
		// with steady insert pressure, like a Zipf-warmed serving cache.
		i := gid.Add(1) * 1_000_003
		for pb.Next() {
			i++
			k := key(i % 16384)
			if _, ok := c.Fetch(k); !ok {
				c.Put(k, pred(int(i)))
			}
		}
	})
}

// BenchmarkCacheParallel compares the lock-striped cache against a
// single-mutex baseline (newSharded with one shard) under parallel load:
//
//	go test ./internal/cache/ -bench=CacheParallel -cpu=8
func BenchmarkCacheParallel(b *testing.B) {
	b.Run("sharded", func(b *testing.B) {
		benchmarkCacheParallel(b, New(1<<16))
	})
	b.Run("single-mutex", func(b *testing.B) {
		benchmarkCacheParallel(b, newSharded(1<<16, 1))
	})
}

func BenchmarkHashQuery784(b *testing.B) {
	x := make([]float64, 784)
	for i := range x {
		x[i] = float64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HashQuery(x)
	}
}

func ExampleCache() {
	c := New(2)
	k := Key{Model: "svm", Version: 1, QueryID: HashQuery([]float64{1, 2})}
	c.Put(k, container.Prediction{Label: 3})
	v, ok := c.Fetch(k)
	fmt.Println(v.Label, ok)
	// Output: 3 true
}
