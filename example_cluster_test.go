package clipper_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"clipper"
	"clipper/internal/dataset"
	"clipper/internal/frameworks"
	"clipper/internal/models"
)

// TestExampleCluster is the paper's replica-scaling deployment (§4.4.1,
// Figure 6): model containers run as separate RPC servers — standing in for
// Docker containers on other machines — and the Clipper node dials each
// one, batches independently per replica, and spreads queries across the
// fleet. The REST frontend serves external clients while the test drives
// load in-process.
//
// What to look at: clipper.ServeContainer hosts each replica on its own TCP
// server; clipper.DialContainer(addr, timeout, 2) connects with two RPC
// connections per replica, so concurrent batch frames overlap on the wire
// and the replica survives losing one connection while it is redialed (see
// docs/ARCHITECTURE.md on the Conns knob). The admin API (POST
// /api/v1/admin/deploy) does the same dial-and-deploy at runtime.
// Throughput, latency and the split across replicas depend on the machine
// and are logged (go test -v); the test checks that every query is served,
// every replica takes a share, and the REST frontend answers.
func TestExampleCluster(t *testing.T) {
	// Train the model once, then host three replica containers on their
	// own TCP servers (in real deployments these are separate machines).
	ds := dataset.MNISTLike(1500, 42)
	train, test := ds.Split(0.8, 7)
	model := models.TrainLogisticRegression("digits", train, models.DefaultLinearConfig())
	t.Logf("model accuracy: %.3f", models.Accuracy(model, test.X, test.Y))

	cl := clipper.New(clipper.Config{CacheSize: -1}) // measure the replicas, not the cache
	defer cl.Close()

	const replicas = 3
	for i := 0; i < replicas; i++ {
		pred := frameworks.NewSimPredictor(model, frameworks.SKLearnLogisticRegression(), ds.Dim, int64(i))
		addr, stop, err := clipper.ServeContainer(pred, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { stop() })

		// Two pooled RPC connections per replica: batch frames round-robin
		// across them, and losing one connection degrades rather than
		// kills the replica (see docs/ARCHITECTURE.md on Conns).
		remote, err := clipper.DialContainer(addr, time.Second, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Deploy(remote, func() { remote.Close() },
			clipper.DefaultQueueConfig(20*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		t.Logf("replica %d serving on %s", i, addr)
	}

	app, err := cl.RegisterApp(clipper.AppConfig{
		Name: "digits", Models: []string{"digits"}, Policy: clipper.NewStaticPolicy(0),
		SLO: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Expose the REST API for external clients while we drive load
	// in-process.
	rest := clipper.NewRESTServer(cl)
	restAddr, err := rest.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rest.Close()
	t.Logf("REST API on http://%s", restAddr)

	// Closed-loop load across the replica fleet.
	ctx := context.Background()
	const workers, perWorker = 32, 50
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				x := test.X[(w*perWorker+i)%test.Len()]
				if _, err := app.Predict(ctx, x); err != nil {
					t.Errorf("predict: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	const total = workers * perWorker
	t.Logf("served %d predictions across %d replicas in %v (%.0f qps)",
		total, replicas, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	t.Logf("latency: %s", app.PredLatency.Snapshot())
	handled := int64(0)
	for i, q := range cl.ReplicaQueues("digits") {
		n := int64(q.BatchSizes.Sum())
		t.Logf("replica %d handled %d queries (mean batch %.1f)", i, n, q.BatchSizes.Mean())
		if n == 0 {
			t.Errorf("replica %d handled no queries", i)
		}
		handled += n
	}
	if handled != total {
		t.Errorf("replicas handled %d queries, want %d", handled, total)
	}

	// An external client reaches the same fleet over REST.
	body, _ := json.Marshal(map[string]any{"app": "digits", "input": test.X[0]})
	resp, err := http.Post("http://"+restAddr+"/api/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("REST predict: status %d", resp.StatusCode)
	}
}
