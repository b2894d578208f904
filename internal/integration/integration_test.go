// Package integration exercises the complete Clipper deployment the way a
// production cluster runs it: model containers and the state store as
// separate TCP servers, the serving node connected to both, applications
// served over the REST API, health monitoring, and online learning — all
// in one process but across real sockets.
package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"clipper"
	"clipper/internal/adapter/httpjson"
	"clipper/internal/batching"
	"clipper/internal/container"
	"clipper/internal/core"
	"clipper/internal/dataset"
	"clipper/internal/frameworks"
	"clipper/internal/gateway"
	"clipper/internal/models"
	"clipper/internal/selection"
	"clipper/internal/statestore"
)

// cluster is a fully wired deployment for tests.
type cluster struct {
	cl       *core.Clipper
	rest     *httpjson.Server
	restAddr string
	stops    []func()
}

func (c *cluster) Close() {
	c.rest.Close()
	c.cl.Close()
	for _, s := range c.stops {
		s()
	}
}

// startCluster trains nModels models, hosts each as a TCP container,
// starts a TCP state store, and wires a Clipper node + REST frontend over
// them.
func startCluster(t *testing.T, train *dataset.Dataset, nModels int, policy selection.Policy) *cluster {
	t.Helper()
	c := &cluster{}

	// State store as its own server.
	storeSrv := statestore.NewServer(statestore.NewMemStore())
	storeAddr, err := storeSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.stops = append(c.stops, func() { storeSrv.Close() })
	storeClient, err := statestore.DialStore(storeAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.stops = append(c.stops, func() { storeClient.Close() })

	c.cl = core.New(core.Config{Store: storeClient})

	names := make([]string, nModels)
	for i := 0; i < nModels; i++ {
		sub := train.Subsample(train.Len()*3/4, int64(i+1))
		m := models.TrainLogisticRegression(fmt.Sprintf("model-%d", i), sub,
			models.LinearConfig{Epochs: 3, LearningRate: 0.05, Seed: int64(i + 1)})
		pred := frameworks.NewSimPredictor(m, frameworks.Profile{
			Name: m.Name(), Fixed: 100 * time.Microsecond, PerItem: 5 * time.Microsecond,
		}, train.Dim, int64(i))
		addr, srv, err := container.Serve(pred, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c.stops = append(c.stops, func() { srv.Close() })
		remote, err := container.DialConns(addr, time.Second, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.cl.Deploy(remote, func() { remote.Close() }, batching.QueueConfig{
			Controller: batching.NewAIMD(batching.AIMDConfig{SLO: 20 * time.Millisecond}),
		}); err != nil {
			t.Fatal(err)
		}
		names[i] = m.Name()
	}

	if _, err := c.cl.RegisterApp(core.AppConfig{
		Name: "app", Models: names, Policy: policy, SLO: 100 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	c.rest = httpjson.NewServer(c.cl)
	c.restAddr, err = c.rest.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func postJSON(t *testing.T, url string, body, out interface{}) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

func TestFullStackPredictFeedbackLearns(t *testing.T) {
	ds := dataset.Gaussian(dataset.GaussianConfig{
		Name: "int", N: 900, Dim: 24, NumClasses: 4, Separation: 4, Noise: 1, Seed: 5,
	})
	train, test := ds.Split(0.8, 2)
	c := startCluster(t, train, 3, selection.NewExp4(0.4))
	defer c.Close()

	base := "http://" + c.restAddr
	correct := 0
	const n = 100
	for i := 0; i < n; i++ {
		x, truth := test.X[i%test.Len()], test.Y[i%test.Len()]
		var pr httpjson.PredictResponse
		code := postJSON(t, base+"/api/v1/predict", gateway.PredictRequest{App: "app", Input: x}, &pr)
		if code != http.StatusOK {
			t.Fatalf("predict status %d", code)
		}
		if pr.Label == truth {
			correct++
		}
		code = postJSON(t, base+"/api/v1/feedback", gateway.FeedbackRequest{App: "app", Input: x, Label: truth}, nil)
		if code != http.StatusOK {
			t.Fatalf("feedback status %d", code)
		}
	}
	if acc := float64(correct) / n; acc < 0.6 {
		t.Fatalf("end-to-end accuracy %.2f too low", acc)
	}

	// The selection state lives in the external store, keyed per app.
	app, _ := c.cl.App("app")
	state, err := app.State("")
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Weights) != 3 {
		t.Fatalf("state = %+v", state)
	}
	keys, err := c.cl.Store().Keys("selstate/")
	if err != nil || len(keys) == 0 {
		t.Fatalf("state not in external store: %v %v", keys, err)
	}
}

func TestFullStackPersonalizationAcrossRestart(t *testing.T) {
	// Selection state persists in the external store: a "restarted"
	// serving node (new Clipper over the same store) keeps the learned
	// per-user state.
	ds := dataset.Gaussian(dataset.GaussianConfig{
		Name: "int", N: 600, Dim: 16, NumClasses: 3, Separation: 4, Noise: 1, Seed: 6,
	})
	train, _ := ds.Split(0.8, 2)

	store := statestore.NewMemStore() // shared across "restarts"
	build := func() (*core.Clipper, *core.Application) {
		cl := core.New(core.Config{Store: store})
		m := models.TrainLogisticRegression("m", train, models.DefaultLinearConfig())
		pred := frameworks.NewSimPredictor(m, frameworks.Profile{Name: "m"}, train.Dim, 1)
		if _, err := cl.Deploy(pred, nil, batching.QueueConfig{Controller: batching.NewFixed(8)}); err != nil {
			t.Fatal(err)
		}
		app, err := cl.RegisterApp(core.AppConfig{
			Name: "app", Models: []string{"m"}, Policy: selection.NewExp3(0.3),
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl, app
	}

	cl1, app1 := build()
	for i := 0; i < 10; i++ {
		if err := app1.FeedbackContext(context.Background(), "user-9", train.X[i], train.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := app1.State("user-9")
	// Simulate a restart: a fresh Clipper node over the same store. (cl1
	// is deliberately not Closed — Close would close the shared store.)
	_ = cl1

	_, app2 := build2(t, store, train)
	after, err := app2.State("user-9")
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Weights) != len(before.Weights) {
		t.Fatalf("state lost across restart: %v vs %v", after, before)
	}
	for i := range after.Weights {
		if after.Weights[i] != before.Weights[i] {
			t.Fatalf("state changed across restart: %v vs %v", after, before)
		}
	}
}

// build2 builds a second node over the same store with the same app name.
func build2(t *testing.T, store statestore.Store, train *dataset.Dataset) (*core.Clipper, *core.Application) {
	t.Helper()
	cl := core.New(core.Config{Store: store})
	m := models.TrainLogisticRegression("m", train, models.DefaultLinearConfig())
	pred := frameworks.NewSimPredictor(m, frameworks.Profile{Name: "m"}, train.Dim, 1)
	if _, err := cl.Deploy(pred, nil, batching.QueueConfig{Controller: batching.NewFixed(8)}); err != nil {
		t.Fatal(err)
	}
	app, err := cl.RegisterApp(core.AppConfig{
		Name: "app", Models: []string{"m"}, Policy: selection.NewExp3(0.3),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, app
}

func TestFullStackContainerFailureRecovery(t *testing.T) {
	// Two replicas of one model behind real sockets; kill one container
	// server; the health monitor detects it and the app keeps serving.
	ds := dataset.Gaussian(dataset.GaussianConfig{
		Name: "int", N: 400, Dim: 8, NumClasses: 2, Separation: 5, Noise: 1, Seed: 7,
	})
	train, test := ds.Split(0.8, 2)
	m := models.TrainLogisticRegression("m", train, models.DefaultLinearConfig())

	cl := core.New(core.Config{CacheSize: -1})
	defer cl.Close()

	var victimSrv interface{ Close() error }
	for i := 0; i < 2; i++ {
		pred := frameworks.NewSimPredictor(m, frameworks.Profile{Name: "m"}, train.Dim, int64(i))
		addr, srv, err := container.Serve(pred, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			victimSrv = srv
		} else {
			defer srv.Close()
		}
		remote, err := container.DialConns(addr, time.Second, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Deploy(remote, func() { remote.Close() }, batching.QueueConfig{
			Controller: batching.NewFixed(8),
		}); err != nil {
			t.Fatal(err)
		}
	}
	app, err := cl.RegisterApp(core.AppConfig{
		Name: "app", Models: []string{"m"}, Policy: selection.NewStatic(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := cl.StartHealthMonitor(10 * time.Millisecond)
	defer mon.Stop()

	// Baseline serving works.
	if _, err := app.Predict(context.Background(), test.X[0]); err != nil {
		t.Fatal(err)
	}

	victimSrv.Close()

	// Wait for detection.
	deadline := time.Now().Add(3 * time.Second)
	detected := false
	for time.Now().Before(deadline) {
		healthy := 0
		for _, st := range cl.ReplicaStatuses("m") {
			if st.Healthy {
				healthy++
			}
		}
		if healthy == 1 {
			detected = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !detected {
		t.Fatal("container death not detected")
	}
	// Serving continues on the survivor.
	for i := 0; i < 20; i++ {
		resp, err := app.Predict(context.Background(), test.X[i%test.Len()])
		if err != nil {
			t.Fatal(err)
		}
		if resp.Missing != 0 {
			t.Fatalf("prediction missing after failover: %+v", resp)
		}
	}
}

func TestFullStackPublicAPITypesInterop(t *testing.T) {
	// The public facade's aliases interoperate with the internal
	// packages (compile-time + runtime sanity).
	var _ clipper.Predictor = container.NewLabelFunc(
		container.Info{Name: "x", NumClasses: 2},
		func(x []float64) int { return 0 },
	)
	cl := clipper.New(clipper.Config{})
	defer cl.Close()
	p := container.NewLabelFunc(container.Info{Name: "fn", Version: 1, NumClasses: 2},
		func(x []float64) int { return 1 })
	if _, err := cl.Deploy(p, nil, clipper.QueueConfig{Controller: clipper.NewFixedBatch(8)}); err != nil {
		t.Fatal(err)
	}
	app, err := cl.RegisterApp(clipper.AppConfig{
		Name: "a", Models: []string{"fn"}, Policy: clipper.NewExp3(0.1),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := app.Predict(context.Background(), []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Label != 1 {
		t.Fatalf("resp = %+v", resp)
	}
}
