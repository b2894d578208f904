// Cluster serving — the paper's replica-scaling deployment (§4.4.1,
// Figure 6). Model containers run as separate RPC servers (standing in for
// Docker containers on other machines); the Clipper node dials them,
// batches independently per replica, and scales throughput by adding
// replicas. The REST frontend serves applications over the whole fleet.
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"clipper"
	"clipper/internal/dataset"
	"clipper/internal/frameworks"
	"clipper/internal/models"
)

func main() {
	// Train the model once, then host three replica containers on their
	// own TCP servers (in real deployments these are separate machines).
	ds := dataset.MNISTLike(1500, 42)
	train, test := ds.Split(0.8, 7)
	model := models.TrainLogisticRegression("digits", train, models.DefaultLinearConfig())
	fmt.Printf("model accuracy: %.3f\n", models.Accuracy(model, test.X, test.Y))

	const replicas = 3
	var stops []func() error
	defer func() {
		for _, s := range stops {
			s()
		}
	}()

	cl := clipper.New(clipper.Config{CacheSize: -1}) // measure the replicas, not the cache
	defer cl.Close()

	for i := 0; i < replicas; i++ {
		pred := frameworks.NewSimPredictor(model, frameworks.SKLearnLogisticRegression(), ds.Dim, int64(i))
		addr, stop, err := clipper.ServeContainer(pred, "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		stops = append(stops, stop)

		// Two pooled RPC connections per replica: batch frames round-robin
		// across them, and losing one connection degrades rather than
		// kills the replica (see docs/ARCHITECTURE.md on Conns).
		remote, err := clipper.DialContainer(addr, time.Second, 2)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := cl.Deploy(remote, func() { remote.Close() },
			clipper.DefaultQueueConfig(20*time.Millisecond)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replica %d serving on %s\n", i, addr)
	}

	app, err := cl.RegisterApp(clipper.AppConfig{
		Name: "digits", Models: []string{"digits"}, Policy: clipper.NewStaticPolicy(0),
		SLO: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Expose the REST API for external clients while we drive load
	// in-process.
	rest := clipper.NewRESTServer(cl)
	restAddr, err := rest.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer rest.Close()
	fmt.Printf("REST API on http://%s\n", restAddr)

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
					log.Printf("predict: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := workers * perWorker
	fmt.Printf("served %d predictions across %d replicas in %v (%.0f qps)\n",
		total, replicas, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	fmt.Printf("latency: %s\n", app.PredLatency.Snapshot())
	for i, q := range cl.ReplicaQueues("digits") {
		fmt.Printf("replica %d handled %d queries (mean batch %.1f)\n",
			i, int64(q.BatchSizes.Sum()), q.BatchSizes.Mean())
	}
}
