package batching

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"clipper/internal/container"
)

// refFIFO is the queue a replica would have if there were no tenants at
// all: rows leave in submit order, up to max at a time, minus the ones
// their submitter withdrew.
type refFIFO struct{ rows []int }

func (f *refFIFO) push(id int) { f.rows = append(f.rows, id) }
func (f *refFIFO) withdraw(id int) {
	i := sort.SearchInts(f.rows, id) // ids are pushed in increasing order
	f.rows = append(f.rows[:i], f.rows[i+1:]...)
}

// batchRecorder is a predictor that records the rows of every batch, in
// the order it saw them.
type batchRecorder struct {
	mu      sync.Mutex
	batches [][]int
}

func (b *batchRecorder) Info() container.Info { return container.Info{Name: "rec", Version: 1} }

func (b *batchRecorder) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	rows := make([]int, len(xs))
	out := make([]container.Prediction, len(xs))
	for i, x := range xs {
		rows[i] = int(x[0])
		out[i].Label = rows[i]
	}
	b.mu.Lock()
	b.batches = append(b.batches, rows)
	b.mu.Unlock()
	time.Sleep(50 * time.Microsecond) // let a backlog (and cancellable requests) form
	return out, nil
}

// TestDefaultTenantIsFIFO: DRR over the one default tenant is
// indistinguishable from refFIFO to the only observers there are. The
// predictor sees exactly the rows that were not withdrawn, in submit
// order, in batches no larger than MaxBatch — in call order at InFlight 1,
// and as contiguous in-order runs (batches overlap in time) at InFlight 4 —
// and every submitter that did not withdraw gets its own row's Result.
func TestDefaultTenantIsFIFO(t *testing.T) {
	const maxBatch = 8
	for _, inFlight := range []int{1, 4} {
		for _, timeout := range []time.Duration{0, 200 * time.Microsecond} {
			t.Run(fmt.Sprintf("inflight=%d/timeout=%v", inFlight, timeout), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(inFlight)*1000 + int64(timeout)))
				rec := &batchRecorder{}
				q := NewQueue(rec, QueueConfig{Controller: NewFixed(maxBatch), BatchTimeout: timeout, InFlight: inFlight})
				var ref refFIFO
				live := map[int]*ticket{}
				id := 0
				for burst := 0; burst < 60; burst++ {
					var tks []*ticket
					for n := 1 + rng.Intn(3*maxBatch); n > 0; n-- {
						id++
						tk, err := startTicket(context.Background(), q, "", []float64{float64(id)})
						if err != nil {
							t.Fatal(err)
						}
						ref.push(id)
						live[id] = tk
						tks = append(tks, tk)
					}
					for i, tk := range tks {
						if rng.Intn(4) == 0 && tk.Cancel() {
							rid := id - len(tks) + 1 + i
							ref.withdraw(rid)
							delete(live, rid)
						}
					}
					if rng.Intn(3) == 0 {
						time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
					}
				}
				for rid, tk := range live {
					select {
					case res := <-tk.Done():
						if res.Err != nil || res.Pred.Label != rid {
							t.Fatalf("request %d got %+v", rid, res)
						}
					case <-time.After(5 * time.Second):
						t.Fatalf("request %d never delivered", rid)
					}
				}
				q.Close()

				batches := rec.batches
				if inFlight > 1 {
					// Concurrent batches reach the recorder in any order;
					// each must still be one contiguous run of the FIFO.
					sort.Slice(batches, func(i, j int) bool { return batches[i][0] < batches[j][0] })
				}
				var seen []int
				for _, b := range batches {
					if len(b) > maxBatch {
						t.Fatalf("batch of %d rows exceeds MaxBatch %d", len(b), maxBatch)
					}
					seen = append(seen, b...)
				}
				if len(seen) != len(ref.rows) {
					t.Fatalf("predictor saw %d rows, reference FIFO holds %d", len(seen), len(ref.rows))
				}
				for i := range seen {
					if seen[i] != ref.rows[i] {
						t.Fatalf("row %d: predictor saw request %d, reference FIFO says %d", i, seen[i], ref.rows[i])
					}
				}
				t.Logf("%d submitted, %d withdrawn, %d batches", id, id-len(seen), len(batches))
			})
		}
	}
}
