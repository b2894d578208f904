package main

import (
	"fmt"
	"strconv"
	"syscall"
	"time"

	"clipper/internal/adapter/stream"
	"clipper/internal/batching"
	"clipper/internal/container"
	"clipper/internal/core"
	"clipper/internal/dataset"
	"clipper/internal/frameworks"
	"clipper/internal/gateway"
	"clipper/internal/models"
	"clipper/internal/rpc"
	"clipper/internal/selection"
)

const numClasses = 10 // dataset.MNISTLike

// node is everything one run hosts in this process: the model containers
// on loopback TCP, the Clipper node that dials them, the stream
// adapter on loopback TCP, and the load generator's connections.
type node struct {
	w    *workload
	seed int64
	tr   *tracer // nil in a timed run: nothing is wrapped

	pool     [][]float64 // inputs the generator draws from
	truth    []int       // their dataset labels, sent as feedback
	oracle   []int32     // what model 0 answers offline, per input
	ctxNames []string

	models     []string
	containers []*rpc.Server
	remotes    []*container.Remote // traced runs: the replicas' RPC handles
	cl         *core.Clipper
	gw         *gateway.Gateway
	addr       string
	closeFront func() error
	clients    []*streamClient // one connection and one pacing goroutine each
}

func trainModel(kind string, ds *dataset.Dataset) models.Model {
	lin := models.LinearConfig{Epochs: 2, LearningRate: 0.05, Lambda: 1e-4, Seed: 1}
	switch kind {
	case "svm":
		return models.TrainLinearSVM("svm", ds, lin)
	case "logreg":
		return models.TrainLogisticRegression("logreg", ds, lin)
	case "bayes":
		return models.TrainNaiveBayes("bayes", ds)
	case "tree":
		return models.TrainDecisionTree("tree", ds, models.TreeConfig{MaxDepth: 6, MinLeaf: 4, Seed: 1})
	}
	panic("unknown model kind " + kind)
}

// setUp builds the node for w from seed and warms it. Its wall time is
// the setup_s metric: dataset and model training, container, node and
// adapter start, app registration, and a fixed count of warm-up requests.
func setUp(w *workload, seed int64, tr *tracer) (n *node, err error) {
	n = &node{w: w, seed: seed, tr: tr}
	defer func() {
		if err != nil {
			n.tearDown()
			n = nil
		}
	}()

	ds := dataset.MNISTLike(poolSize+trainSize, seed)
	for _, x := range ds.X {
		quantize(x)
	}
	n.pool, n.truth = ds.X[:poolSize], ds.Y[:poolSize]
	train := &dataset.Dataset{Name: ds.Name, Dim: ds.Dim, NumClasses: ds.NumClasses,
		X: ds.X[poolSize:], Y: ds.Y[poolSize:]}

	n.ctxNames = []string{""} // the global context
	if w.contexts > 0 {
		n.ctxNames = make([]string, w.contexts)
		for i := range n.ctxNames {
			n.ctxNames[i] = "u" + strconv.Itoa(i)
		}
	}

	store := tr.wrapStore(nil)
	n.cl = core.New(core.Config{CacheSize: w.cacheSize, Store: store})
	for mi, ms := range w.models {
		m := trainModel(ms.kind, train)
		if mi == 0 {
			n.oracle = make([]int32, poolSize)
			for i, x := range n.pool {
				n.oracle[i] = int32(m.Predict(x))
			}
		}
		n.models = append(n.models, m.Name())
		for r := 0; r < ms.replicas; r++ {
			sim := frameworks.NewSimPredictor(m, ms.profile, inputDim, seed+int64(100*mi+r))
			addr, srv, err := container.Serve(tr.wrapPredictor(sim), "127.0.0.1:0")
			if err != nil {
				return n, fmt.Errorf("serve %s: %w", m.Name(), err)
			}
			n.containers = append(n.containers, srv)
			qcfg := batching.QueueConfig{
				Controller: batching.NewAIMD(batching.AIMDConfig{SLO: time.Duration(sloNs)}),
				InFlight:   w.inFlight,
			}
			if err := n.deploy(addr, qcfg); err != nil {
				return n, fmt.Errorf("deploy %s: %w", m.Name(), err)
			}
		}
	}

	app := core.AppConfig{Name: appName, Models: n.models, Seed: seed,
		Policy: tr.wrapPolicy(selection.NewStatic(0))}
	if w.ensemble {
		app.Policy = tr.wrapPolicy(selection.NewExp4(0))
		app.SLO = time.Duration(sloNs)
		// Robust predictions (§5.2.1): when a stall makes every model
		// miss the deadline the reply is the default label, not -1.
		app.ConfidenceThreshold, app.DefaultLabel = 0.3, 0
	}
	if _, err := n.cl.RegisterApp(app); err != nil {
		return n, err
	}

	n.gw = gateway.New(n.cl)
	srv := stream.New(n.gw)
	if n.addr, err = srv.Listen("127.0.0.1:0"); err != nil {
		return n, err
	}
	n.closeFront = srv.Close
	for i := 0; i < numConns; i++ {
		c, err := dialStream(n, n.addr)
		if err != nil {
			return n, err
		}
		n.clients = append(n.clients, c)
	}

	// Warm-up is a count of requests, not a time: it fills the cache,
	// lets AIMD find its batch size, and fills the buffer pools. The
	// first half runs at a quarter of the window: AIMD starts at a batch
	// of one, and a full window against it would time every model out.
	for step, window := range []int{(w.window + 3) / 4, w.window} {
		warm := &phaseSpec{name: "warmup", count: w.warmup / numConns / 2, window: window}
		for i := 0; i < numConns; i++ {
			p := genPlan(w, subSeed(seed, phWarmup, 2*i+step), warm.count, 0)
			warm.plans = append(warm.plans, p)
		}
		for _, o := range n.runPhase(warm).all() {
			if o.status != statusOK {
				return n, fmt.Errorf("warm-up: op failed (status %d)", o.status)
			}
		}
	}
	return n, nil
}

// deploy adds one replica. A timed run uses DeployRemote as a deployment
// does; a traced run dials the same way and wraps the handle so the RPC
// call can be timed from outside.
func (n *node) deploy(addr string, qcfg batching.QueueConfig) error {
	if n.tr == nil {
		_, err := n.cl.DeployRemote(addr, time.Second, 1, qcfg)
		return err
	}
	remote, err := container.DialConns(addr, time.Second, 1)
	if err != nil {
		return err
	}
	if _, err := n.cl.Deploy(n.tr.wrapRemote(remote), func() { remote.Close() }, qcfg); err != nil {
		remote.Close()
		return err
	}
	n.remotes = append(n.remotes, remote)
	return nil
}

// selected is how many models the policy asks per predict.
func (n *node) selected() int {
	if n.w.ensemble {
		return len(n.models)
	}
	return 1
}

// tearDown stops everything setUp started, clients first.
func (n *node) tearDown() {
	for _, c := range n.clients {
		c.close()
	}
	if n.closeFront != nil {
		n.closeFront()
	}
	if n.cl != nil {
		n.cl.Close()
	}
	for _, srv := range n.containers {
		srv.Close()
	}
}

// cpuTimeNs is the process's user+system CPU time so far.
func cpuTimeNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
