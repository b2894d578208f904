package batching

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The DRR fairness property: over any window where every tenant stays
// backlogged, tenant i's share of dequeues is weight_i / Σ weights,
// within one max-batch. The tests below pin that property directly: they
// park the serial collector inside a gated model, preload each tenant's
// sub-queue deeper than its largest possible share, release a fixed
// number of batches, and compare TenantStats served counts against the
// ideal split. Run with -race: the collector, the submitters, and the
// stats reader all touch the queue concurrently.

// fairHarness parks q's collector inside m on a one-request primer batch
// from tenant, so subsequent submissions preload sub-queues without any
// of them being collected.
func fairHarness(t *testing.T, m *gateModel, q *Queue, tenant string) {
	t.Helper()
	if _, err := startTicket(context.Background(), q, tenant, []float64{0}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for m.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("collector never dispatched the primer batch")
		}
		time.Sleep(time.Millisecond)
	}
}

// releaseBatches lets exactly n parked batches run and waits until the
// collector has assembled (and parked on) the following batch, so the
// served counters are quiescent when the caller snapshots them.
func releaseBatches(t *testing.T, m *gateModel, n int) {
	t.Helper()
	start := m.calls.Load()
	for i := 0; i < n; i++ {
		m.release <- struct{}{}
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.calls.Load() < start+int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("collector stalled: %d calls, want %d", m.calls.Load(), start+int64(n))
		}
		time.Sleep(time.Millisecond)
	}
}

// assertFairShares checks every tenant's served count against its ideal
// weight share of the total, within one max-batch.
func assertFairShares(t *testing.T, q *Queue, weights map[string]int, maxBatch int) {
	t.Helper()
	stats := q.TenantStats()
	var total, wsum int64
	for _, ts := range stats {
		total += ts.Served
	}
	for _, w := range weights {
		wsum += int64(w)
	}
	for _, ts := range stats {
		w, ok := weights[ts.Tenant]
		if !ok {
			t.Fatalf("unexpected tenant %q in stats", ts.Tenant)
		}
		if ts.Weight != w {
			t.Errorf("tenant %q weight = %d, want %d", ts.Tenant, ts.Weight, w)
		}
		want := total * int64(w) / wsum
		diff := ts.Served - want
		if diff < 0 {
			diff = -diff
		}
		if diff > int64(maxBatch) {
			t.Errorf("tenant %q served %d of %d, want %d±%d (weight %d/%d)",
				ts.Tenant, ts.Served, total, want, maxBatch, w, wsum)
		}
	}
}

func TestDRRWeightedShares(t *testing.T) {
	const (
		maxBatch = 16
		batches  = 20
		preload  = 400 // > the heaviest tenant's share of (batches+1)*maxBatch
	)
	weights := map[string]int{"bronze": 1, "silver": 2, "gold": 5}
	names := make([]string, 0, len(weights))
	for name := range weights {
		names = append(names, name)
	}
	sort.Strings(names)

	m := newGateModel()
	q := NewQueue(m, QueueConfig{Controller: NewFixed(maxBatch), InFlight: 1})
	defer func() {
		close(m.release) // free-run the model so Close can drain
		q.Close()
	}()

	for _, name := range names {
		q.SetTenantWeight(name, weights[name])
	}
	fairHarness(t, m, q, names[0])

	ctx := context.Background()
	for i := 0; i < preload; i++ {
		for _, name := range names {
			if _, err := startTicket(ctx, q, name, []float64{float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	releaseBatches(t, m, batches)
	assertFairShares(t, q, weights, maxBatch)

	// Every tenant must still be backlogged (the property's precondition)
	// and unspent credit stays bounded by one round of that tenant's weight.
	for _, ts := range q.TenantStats() {
		if ts.Queued == 0 {
			t.Errorf("tenant %q drained mid-measurement; preload too small", ts.Tenant)
		}
		if ts.Deficit < 0 || ts.Deficit > ts.Weight {
			t.Errorf("tenant %q deficit = %d, want 0..%d", ts.Tenant, ts.Deficit, ts.Weight)
		}
	}
}

// TestDRRRandomizedArrivals re-checks the share property over seeded
// random weights and shuffled cross-tenant arrival orders: DRR fairness
// must not depend on who enqueued first.
func TestDRRRandomizedArrivals(t *testing.T) {
	const (
		maxBatch = 16
		batches  = 16
		preload  = 350
	)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		names := []string{"a", "b", "c", "d"}
		weights := make(map[string]int, len(names))
		for _, name := range names {
			weights[name] = 1 + rng.Intn(5)
		}

		m := newGateModel()
		q := NewQueue(m, QueueConfig{Controller: NewFixed(maxBatch), InFlight: 1})
		for _, name := range names {
			q.SetTenantWeight(name, weights[name])
		}
		fairHarness(t, m, q, names[0])

		// Shuffle the arrival order across tenants, preload per tenant
		// unchanged so everyone stays backlogged.
		arrivals := make([]string, 0, preload*len(names))
		for i := 0; i < preload; i++ {
			arrivals = append(arrivals, names...)
		}
		rng.Shuffle(len(arrivals), func(i, j int) {
			arrivals[i], arrivals[j] = arrivals[j], arrivals[i]
		})
		ctx := context.Background()
		for i, name := range arrivals {
			if _, err := startTicket(ctx, q, name, []float64{float64(i)}); err != nil {
				t.Fatal(err)
			}
		}

		releaseBatches(t, m, batches)
		assertFairShares(t, q, weights, maxBatch)

		close(m.release)
		q.Close()
	}
}

// TestDefaultTenantSharesRotation: untagged Submit traffic waits in the ""
// default tenant, which takes its turn in the DRR rotation beside named
// tenants and is counted like them.
func TestDefaultTenantSharesRotation(t *testing.T) {
	m := newGateModel()
	close(m.release) // free-running model
	q := NewQueue(m, QueueConfig{Controller: NewFixed(8), InFlight: 2})
	defer q.Close()

	q.SetTenantWeight("tagged", 3)
	ctx := context.Background()
	done := make(chan error, 8)
	for i := 0; i < 4; i++ {
		go func(i int) {
			_, err := q.Submit(ctx, []float64{float64(i)})
			done <- err
		}(i)
		go func(i int) {
			tk, err := startTicket(ctx, q, "tagged", []float64{float64(i)})
			if err == nil {
				err = (<-tk.Done()).Err
			}
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("submission starved beside a weighted tenant")
		}
	}

	var untagged, tagged int64
	for _, ts := range q.TenantStats() {
		switch ts.Tenant {
		case "":
			untagged = ts.Served
		case "tagged":
			tagged = ts.Served
		default:
			t.Fatalf("unexpected tenant %q", ts.Tenant)
		}
	}
	if untagged != 4 || tagged != 4 {
		t.Fatalf("served untagged=%d tagged=%d, want 4 and 4", untagged, tagged)
	}
}

// TestTenantCloseFailsQueued: requests parked in tenant sub-queues at
// Close get exactly one errQueueClosed result (drainClosed), and
// cancelled ones get none.
func TestTenantCloseFailsQueued(t *testing.T) {
	m := newGateModel()
	q := NewQueue(m, QueueConfig{Controller: NewFixed(1), InFlight: 1})

	q.SetTenantWeight("t", 2)
	fairHarness(t, m, q, "t")

	ctx := context.Background()
	pending, err := startTicket(ctx, q, "t", []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	gone, err := startTicket(ctx, q, "other", []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if !gone.Cancel() {
		t.Fatal("cancel of a sub-queued request failed")
	}

	go q.Close()
	close(m.release)
	select {
	case res := <-pending.Done():
		if res.Err != nil && res.Err != errQueueClosed {
			t.Fatalf("pending err = %v, want nil or errQueueClosed", res.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("tenant-queued ticket never resolved on close")
	}
	select {
	case res := <-pending.Done():
		t.Fatalf("pending delivered twice: %+v", res)
	default:
	}
	select {
	case res := <-gone.Done():
		t.Fatalf("cancelled ticket delivered %+v at close", res)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestTenantDepthBound: each sub-queue holds at most queueDepth requests.
// Start to a full one is refused at once with ErrQueueFull, while a Start to
// another tenant on the same replica goes straight in.
func TestTenantDepthBound(t *testing.T) {
	m := newGateModel()
	q := NewQueue(m, QueueConfig{Controller: NewFixed(1), InFlight: 1})
	defer q.Close()
	defer m.freeRun()         // first, so a failed assertion cannot hang Close
	fairHarness(t, m, q, "A") // the collector is parked inside the model

	bg := context.Background()
	for i := 0; i < queueDepth; i++ {
		if _, err := startTicket(bg, q, "A", []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var refused Request
	if err := q.Start(bg, "A", &refused, []float64{-1}, func(Result) { t.Error("a refused Start fired its done") }); err != ErrQueueFull {
		t.Fatalf("Start on a full sub-queue: err = %v, want ErrQueueFull", err)
	}
	if refused.Cancel() {
		t.Error("a refused Start left its request cancellable")
	}
	if _, err := startTicket(bg, q, "B", []float64{-2}); err != nil {
		t.Fatalf("Start on tenant B behind a full tenant A: %v", err)
	}
	if got := q.LoadStats().Queued; got != queueDepth+1 {
		t.Fatalf("Queued = %d, want %d (A full, one in B, the refused Start not counted)", got, queueDepth+1)
	}
}

// refTakeDRR is takeDRR as the textbook writes it — one round of credit per
// visit, no bulk path — kept here as the reference the production version
// must be indistinguishable from.
func refTakeDRR(q *Queue, batch *[]*Request, max int) {
	empties := 0
	for len(*batch) < max && empties < len(q.tenOrder) {
		if q.drrPos >= len(q.tenOrder) {
			q.drrPos = 0
		}
		t := q.tenOrder[q.drrPos]
		if t.n == 0 {
			t.deficit = 0
			q.drrPos++
			empties++
			continue
		}
		empties = 0
		if !q.drrMid {
			t.deficit += t.weight
		}
		q.drrMid = false
		for t.deficit > 0 && t.n > 0 {
			if len(*batch) >= max {
				q.drrMid = true
				return
			}
			if r := q.pop(t); q.take(r) {
				*batch = append(*batch, r)
				t.served++
				t.deficit--
			}
		}
		if t.n == 0 {
			t.deficit = 0
		}
		q.drrPos++
	}
}

// TestTakeDRRMatchesReference: over seeded random pushes, cancels, weight
// changes and batch caps — most of the time with a single backlogged
// tenant, the case takeDRR serves in bulk — takeDRR and refTakeDRR pop the
// same requests in the same order and leave the same rotation state.
func TestTakeDRRMatchesReference(t *testing.T) {
	bare := func() *Queue {
		q := &Queue{tenants: make(map[string]*tenantQueue)}
		q.tenantLocked("")
		return q
	}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := bare(), bare()
		names := []string{"", "a", "b"}
		id := 0
		for step := 0; step < 200; step++ {
			name := ""
			if rng.Intn(4) == 0 {
				name = names[rng.Intn(len(names))]
			}
			switch rng.Intn(4) {
			case 0: // reweight
				w := 1 + rng.Intn(5)
				for _, q := range []*Queue{got, want} {
					q.tenantLocked(name).weight = int64(w)
				}
			case 1, 2: // push a burst, some of it already cancelled
				for n := 1 + rng.Intn(12); n > 0; n-- {
					id++
					cancelled := rng.Intn(5) == 0
					for _, q := range []*Queue{got, want} {
						r := &Request{x: []float64{float64(id)}}
						r.state.Store(reqQueued)
						if cancelled {
							r.Cancel()
						}
						q.push(q.tenantLocked(name), r)
					}
				}
			case 3: // collect a batch
				max := 1 + rng.Intn(10)
				var gb, wb []*Request
				got.takeDRR(&gb, max)
				refTakeDRR(want, &wb, max)
				if len(gb) != len(wb) {
					t.Fatalf("seed %d step %d: batch of %d, reference %d", seed, step, len(gb), len(wb))
				}
				for i := range gb {
					if gb[i].x[0] != wb[i].x[0] {
						t.Fatalf("seed %d step %d: row %d is request %v, reference %v", seed, step, i, gb[i].x[0], wb[i].x[0])
					}
				}
				if got.drrPos != want.drrPos || got.drrMid != want.drrMid {
					t.Fatalf("seed %d step %d: rotation (%d,%v), reference (%d,%v)", seed, step, got.drrPos, got.drrMid, want.drrPos, want.drrMid)
				}
				for i, tq := range got.tenOrder {
					if ref := want.tenOrder[i]; tq.deficit != ref.deficit || tq.n != ref.n || tq.served != ref.served {
						t.Fatalf("seed %d step %d: tenant %q (deficit %d, n %d, served %d), reference (%d, %d, %d)",
							seed, step, tq.name, tq.deficit, tq.n, tq.served, ref.deficit, ref.n, ref.served)
					}
				}
			}
		}
	}
}
