// Command clipper starts a Clipper serving node with a demonstration
// deployment: several models trained on a synthetic object-recognition
// task, an Exp4 ensemble application, and the protocol adapters.
//
// Usage:
//
//	clipper -addr :8080 -slo 20ms
//	clipper -addr :8080 -listen-stream :7001
//
// Then:
//
//	curl -s localhost:8080/api/v1/admin/applications
//	curl -s -X POST localhost:8080/api/v1/predict \
//	    -d '{"app":"demo","input":[0.1, ... 64 floats ...]}'
//	loadgen -proto stream -target localhost:7001 -rate 500
//
// Both listeners serve the same gateway core: the stream one carries
// predict and feedback, and an app registered over REST is served on both.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"clipper"
	"clipper/internal/adapter/httpjson"
	"clipper/internal/adapter/stream"
	"clipper/internal/dataset"
	"clipper/internal/frameworks"
	"clipper/internal/gateway"
	"clipper/internal/models"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "REST API listen address")
		streamAddr  = flag.String("listen-stream", "", "binary (stream) adapter listen address (empty disables)")
		slo         = flag.Duration("slo", 20*time.Millisecond, "prediction latency SLO")
		trainN      = flag.Int("train", 2000, "synthetic training examples")
		dim         = flag.Int("dim", 64, "feature dimensionality")
		classes     = flag.Int("classes", 10, "number of classes")
		containers  = flag.String("containers", "", "comma-separated remote model container addresses to deploy")
		conns       = flag.Int("container-conns", 1, "RPC connections per remote container, each redialed if lost (1 = the paper's single connection; more overlap large batch transfers)")
		storeAddr   = flag.String("store", "", "remote statestore address (empty = in-memory)")
		statePath   = flag.String("state-file", "", "durable local state file (ignored when -store is set)")
		noDemo      = flag.Bool("no-demo", false, "skip training/deploying the demo models")
		health      = flag.Duration("health-interval", time.Second, "replica health probe interval (0 disables)")
		schedName   = flag.String("sched", "jsq", "cross-replica dispatch policy: jsq (load-aware) or rr (round-robin)")
		hedge       = flag.Bool("hedge", false, "hedge straggling requests onto the fastest sibling replica")
		hedgeBudget = flag.Float64("hedge-budget", 0.1, "max hedges as a fraction of offered load (with -hedge)")
		shedName    = flag.String("shed-policy", "none", "demo app SLO admission policy: none, reject, or degrade (reject or degrade also tags its submissions as a QoS tenant)")
	)
	flag.Parse()

	policy, err := clipper.ParseSchedPolicy(*schedName)
	if err != nil {
		log.Fatal(err)
	}
	shed, err := clipper.ParseShedPolicy(*shedName)
	if err != nil {
		log.Fatal(err)
	}

	// Selection-state store: remote (the Redis role), durable file, or
	// in-memory.
	var store clipper.Store
	switch {
	case *storeAddr != "":
		s, err := clipper.DialStateStore(*storeAddr, 5*time.Second)
		if err != nil {
			log.Fatalf("dialing state store %s: %v", *storeAddr, err)
		}
		store = s
		log.Printf("using remote state store at %s", *storeAddr)
	case *statePath != "":
		s, err := clipper.OpenFileStore(*statePath)
		if err != nil {
			log.Fatalf("opening state file %s: %v", *statePath, err)
		}
		store = s
		log.Printf("using durable state file %s", *statePath)
	}

	cl := clipper.New(clipper.Config{Store: store, Scheduler: clipper.SchedulerConfig{
		Policy: policy,
		Hedge: clipper.HedgeConfig{
			Enabled:    *hedge,
			BudgetFrac: *hedgeBudget,
		},
	}})
	defer cl.Close()

	var names []string
	if !*noDemo {
		log.Printf("training demonstration models (n=%d dim=%d classes=%d)...", *trainN, *dim, *classes)
		ds := dataset.Gaussian(dataset.GaussianConfig{
			Name: "demo", N: *trainN, Dim: *dim, NumClasses: *classes,
			Separation: 3.0, Noise: 1.0, LabelNoise: 0.03, Seed: 42,
		})
		train, test := ds.Split(0.8, 7)

		type deployment struct {
			model   models.Model
			profile frameworks.Profile
		}
		deployments := []deployment{
			{models.TrainLinearSVM("linear-svm", train, models.DefaultLinearConfig()), frameworks.SKLearnLinearSVM()},
			{models.TrainLogisticRegression("log-regression", train, models.DefaultLinearConfig()), frameworks.SKLearnLogisticRegression()},
			{models.TrainRandomForest("random-forest", train, models.DefaultTreeConfig()), frameworks.SKLearnRandomForest()},
		}
		for i, d := range deployments {
			pred := frameworks.NewSimPredictor(d.model, d.profile, *dim, int64(i+1))
			if _, err := cl.Deploy(pred, nil, clipper.DefaultQueueConfig(*slo)); err != nil {
				log.Fatalf("deploy %s: %v", d.model.Name(), err)
			}
			acc := models.Accuracy(d.model, test.X, test.Y)
			log.Printf("deployed %-16s (test accuracy %.3f, profile %s)", d.model.Name(), acc, d.profile.Name)
			names = append(names, d.model.Name())
		}
	}

	// Attach remote model containers (the Docker-style deployment).
	if *containers != "" {
		for _, caddr := range strings.Split(*containers, ",") {
			caddr = strings.TrimSpace(caddr)
			if caddr == "" {
				continue
			}
			remote, err := clipper.DialContainer(caddr, 5*time.Second, *conns)
			if err != nil {
				log.Fatalf("dialing container %s: %v", caddr, err)
			}
			if _, err := cl.Deploy(remote, func() { remote.Close() }, clipper.DefaultQueueConfig(*slo)); err != nil {
				log.Fatalf("deploying container %s: %v", caddr, err)
			}
			log.Printf("deployed remote container %s (%s, %d conns)", remote.Info(), caddr, *conns)
			names = append(names, remote.Info().Name)
		}
	}
	if len(names) == 0 {
		log.Fatal("nothing to serve: pass -containers or drop -no-demo")
	}

	if shed != clipper.ShedNone {
		log.Printf("QoS on: shed policy %s", shed)
	}
	if _, err := cl.RegisterApp(clipper.AppConfig{
		Name:   "demo",
		Models: names,
		Policy: clipper.NewExp4(0.3),
		SLO:    *slo,
		Shed:   shed,
	}); err != nil {
		log.Fatalf("register app: %v", err)
	}

	if *health > 0 {
		mon := cl.StartHealthMonitor(*health)
		defer mon.Stop()
	}

	// One gateway core, one or two protocol adapters over it.
	gw := gateway.New(cl)
	rest := httpjson.New(gw)
	bound, err := rest.Listen(*addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	defer rest.Close()
	log.Printf("Clipper serving app %q on http://%s (SLO %v)", "demo", bound, *slo)
	log.Printf("Prometheus scrape endpoint: http://%s/metrics", bound)
	fmt.Printf("try: curl -s http://%s/api/v1/admin/applications\n", bound)

	type gracefulServer interface {
		Shutdown(context.Context) error
	}
	adapters := []gracefulServer{rest}
	if *streamAddr != "" {
		srv := stream.New(gw)
		b, err := srv.Listen(*streamAddr)
		if err != nil {
			log.Fatalf("listen stream %s: %v", *streamAddr, err)
		}
		adapters = append(adapters, srv)
		log.Printf("stream adapter on %s", b)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Print("shutting down (draining in-flight requests)")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range adapters {
		srv.Shutdown(ctx)
	}
}
