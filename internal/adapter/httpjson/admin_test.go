package httpjson

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"clipper/internal/batching"
	"clipper/internal/container"
	"clipper/internal/core"
	"clipper/internal/gateway"
	"clipper/internal/rpc"
	"clipper/internal/selection"
)

func TestAdminDeployEndpoint(t *testing.T) {
	s, cl := newTestServer(t)
	h := s.Handler()

	// Host a new model as a standalone container and deploy it through
	// the admin API.
	addr, srv, err := container.Serve(&fixedModel{name: "runtime-model", label: 7}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec := postJSON(t, h, "/api/v1/admin/deploy", gateway.DeployRequest{Addr: addr, SLOMillis: 10})
	if rec.Code != http.StatusOK {
		t.Fatalf("deploy status = %d body=%s", rec.Code, rec.Body)
	}
	var resp gateway.DeployResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Model != "runtime-model" || resp.ReplicaID == "" {
		t.Fatalf("resp = %+v", resp)
	}
	// The model is now deployed and servable.
	found := false
	for _, m := range cl.Models() {
		if m == "runtime-model" {
			found = true
		}
	}
	if !found {
		t.Fatalf("runtime-model not in %v", cl.Models())
	}
	// New applications can use it immediately and get served.
	app, err := cl.RegisterApp(core.AppConfig{
		Name: "runtime-app", Models: []string{"runtime-model"},
		Policy: selection.NewStatic(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	presp, err := app.Predict(context.Background(), []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if presp.Label != 7 {
		t.Fatalf("runtime-deployed model answered %d", presp.Label)
	}
}

func TestAdminDeployValidation(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	rec := postJSON(t, h, "/api/v1/admin/deploy", gateway.DeployRequest{})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("missing addr: %d", rec.Code)
	}
	rec = postJSON(t, h, "/api/v1/admin/deploy", gateway.DeployRequest{Addr: "127.0.0.1:1"})
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("unreachable container: %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/api/v1/admin/deploy", nil)
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: %d", rec2.Code)
	}
}

// versionedFixed is a fixedModel that reports an explicit version.
type versionedFixed struct {
	fixedModel
	version int
}

func (v *versionedFixed) Info() container.Info {
	info := v.fixedModel.Info()
	info.Version = v.version
	return info
}

// A container of a newer version of a deployed model rolls it over through
// /deploy: the reply is 200, the new version answers even a query cached
// under the old one, the old version is then refused, and the new version
// again adds a replica.
func TestAdminDeployRollsOverNewVersion(t *testing.T) {
	s, cl := newTestServer(t)
	h := s.Handler()
	app, err := cl.RegisterApp(core.AppConfig{Name: "solo", Models: []string{"m0"}, Policy: selection.NewStatic(0)})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{3, 4}
	if r, err := app.Predict(context.Background(), x); err != nil || r.Label != 1 {
		t.Fatalf("v1 predict = %+v, %v", r, err)
	}
	serve := func(p container.Predictor) string {
		addr, srv, err := container.Serve(p, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return addr
	}

	rec := postJSON(t, h, "/api/v1/admin/deploy", gateway.DeployRequest{Addr: serve(&versionedFixed{fixedModel{name: "m0", label: 9}, 2})})
	if rec.Code != http.StatusOK {
		t.Fatalf("v2 deploy status = %d body=%s", rec.Code, rec.Body)
	}
	var resp gateway.DeployResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Model != "m0" || resp.Version != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if n := len(cl.ReplicaStatuses("m0")); n != 1 {
		t.Fatalf("%d replicas after the roll-over, want 1", n)
	}
	if r, err := app.Predict(context.Background(), x); err != nil || r.Label != 9 {
		t.Fatalf("predict after the roll-over = %+v, %v; want v2's label 9", r, err)
	}

	rec = postJSON(t, h, "/api/v1/admin/deploy", gateway.DeployRequest{Addr: serve(&fixedModel{name: "m0", label: 1})})
	if rec.Code != http.StatusConflict {
		t.Fatalf("v1 deploy after v2 = %d, want %d", rec.Code, http.StatusConflict)
	}

	// v2 again scales out under a fresh replica ID, which the status map and
	// the exposition's replica labels are keyed by.
	rec = postJSON(t, h, "/api/v1/admin/deploy", gateway.DeployRequest{Addr: serve(&versionedFixed{fixedModel{name: "m0", label: 9}, 2})})
	if rec.Code != http.StatusOK {
		t.Fatalf("second v2 deploy status = %d body=%s", rec.Code, rec.Body)
	}
	if st := cl.ReplicaStatuses("m0"); len(st) != 2 {
		t.Fatalf("replicas after scaling v2 out = %v, want two distinct IDs", st)
	}
	if rec := doReq(t, h, http.MethodGet, "/metrics", ""); rec.Code != http.StatusOK {
		t.Fatalf("/metrics after scaling v2 out = %d: %s", rec.Code, rec.Body)
	}
}

func TestAdminReplicasEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()

	req := httptest.NewRequest(http.MethodGet, "/api/v1/admin/replicas?model=m0", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var statuses map[string]core.ReplicaStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 1 {
		t.Fatalf("statuses = %v", statuses)
	}
	for _, st := range statuses {
		if !st.Healthy {
			t.Fatal("fresh replica should be healthy")
		}
		// The test server pins nothing: the window is measured, and no
		// probe has been judged on a replica that served nothing.
		if st.Window != 4 || st.WindowPinned || st.WindowVerdict != "" {
			t.Fatalf("window = %d pinned=%v verdict=%q, want a measured window starting at 4", st.Window, st.WindowPinned, st.WindowVerdict)
		}
		// In-process replicas have no RPC pool to report.
		if st.TotalConns != 0 {
			t.Fatalf("in-process replica status = %+v", st)
		}
	}

	// All-models variant.
	req = httptest.NewRequest(http.MethodGet, "/api/v1/admin/replicas", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var all map[string]map[string]core.ReplicaStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("all = %v", all)
	}
}

// TestAdminReplicasLoadFields: after traffic, /replicas carries the
// scheduler's per-replica load estimate and hedge counters under stable
// JSON keys, so operators can watch dispatch decisions live.
func TestAdminReplicasLoadFields(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()

	// Distinct inputs defeat the prediction cache so every request
	// reaches the replicas and warms their service-time estimates.
	for i := 0; i < 8; i++ {
		rec := postJSON(t, h, "/api/v1/predict", gateway.PredictRequest{
			App: "demo", Input: []float64{float64(i)},
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("predict %d: status %d body=%s", i, rec.Code, rec.Body)
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/api/v1/admin/replicas?model=m0", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}

	// The keys are API surface: decode raw to pin their names.
	var raw map[string]map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for id, fields := range raw {
		for _, key := range []string{
			"window", "window_pinned",
			"queued", "in_flight_batches", "in_flight_queries",
			"completed_queries", "service_ewma_ms", "est_cost_ms",
			"hedges_from", "hedges_won",
		} {
			if _, ok := fields[key]; !ok {
				t.Fatalf("replica %s: JSON missing %q: %s", id, key, rec.Body)
			}
		}
	}

	var statuses map[string]core.ReplicaStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 1 {
		t.Fatalf("statuses = %v", statuses)
	}
	for _, st := range statuses {
		if st.CompletedQueries != 8 {
			t.Fatalf("completed_queries = %d, want 8", st.CompletedQueries)
		}
		if st.ServiceEWMAMillis <= 0 {
			t.Fatalf("service_ewma_ms = %v, want > 0 after traffic", st.ServiceEWMAMillis)
		}
		if st.EstCostMillis <= 0 {
			t.Fatalf("est_cost_ms = %v, want > 0 once warm", st.EstCostMillis)
		}
		if st.Queued != 0 || st.InFlightQueries != 0 {
			t.Fatalf("idle replica reports load: %+v", st)
		}
		if st.HedgesFrom != 0 || st.HedgesWon != 0 {
			t.Fatalf("hedge counters nonzero without hedging: %+v", st)
		}
	}
}

// TestAdminReplicasDegradedPool is the pool-aware health regression test:
// a replica that lost 1 of its 2 pooled connections must surface
// live_conns < total_conns through the replicas endpoint — visible
// degradation — while still reporting healthy and serving predictions on
// the surviving connection.
func TestAdminReplicasDegradedPool(t *testing.T) {
	s, cl := newTestServer(t)
	h := s.Handler()

	pred := &fixedModel{name: "pooled", label: 9}
	srv := rpc.NewServer(container.Handler(pred))
	defer srv.Close()
	var mu sync.Mutex
	var serverEnds []net.Conn
	dials := 0
	dial := func() (io.ReadWriteCloser, error) {
		mu.Lock()
		defer mu.Unlock()
		if dials >= 2 {
			// The lost connection must stay lost: fail redials so the
			// degraded state is stable for the test to observe.
			return nil, errors.New("container restarting")
		}
		dials++
		cliEnd, srvEnd := net.Pipe()
		serverEnds = append(serverEnds, srvEnd)
		go srv.ServeConn(srvEnd)
		return cliEnd, nil
	}
	remote, err := container.NewRemotePool(dial, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Deploy(remote, func() { remote.Close() },
		batching.QueueConfig{Controller: batching.NewFixed(4)}); err != nil {
		t.Fatal(err)
	}
	app, err := cl.RegisterApp(core.AppConfig{
		Name: "pooled-app", Models: []string{"pooled"}, Policy: selection.NewStatic(0),
	})
	if err != nil {
		t.Fatal(err)
	}

	getStatus := func() core.ReplicaStatus { return replicaStatus(t, h, "pooled") }

	if st := getStatus(); st.LiveConns != 2 || st.TotalConns != 2 {
		t.Fatalf("fresh pooled replica status = %+v, want 2/2 conns", st)
	}

	// Kill one of the two pooled connections.
	mu.Lock()
	serverEnds[0].Close()
	mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for getStatus().LiveConns != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("degradation never surfaced: %+v", getStatus())
		}
		time.Sleep(time.Millisecond)
	}
	st := getStatus()
	if st.TotalConns != 2 {
		t.Fatalf("total_conns = %d, want 2", st.TotalConns)
	}
	if !st.Healthy {
		t.Fatalf("degraded replica should still be healthy: %+v", st)
	}

	// And it still serves on the surviving connection. One prediction may
	// fail if it was in flight on the dying connection; retry once.
	presp, err := app.Predict(context.Background(), []float64{1})
	if err != nil {
		presp, err = app.Predict(context.Background(), []float64{1})
	}
	if err != nil {
		t.Fatal(err)
	}
	if presp.Label != 9 {
		t.Fatalf("label = %d, want 9", presp.Label)
	}
}

// replicaStatus reads the one replica of model through /replicas.
func replicaStatus(t *testing.T, h http.Handler, model string) core.ReplicaStatus {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/api/v1/admin/replicas?model="+model, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("replicas status = %d", rec.Code)
	}
	var statuses map[string]core.ReplicaStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 1 {
		t.Fatalf("statuses = %v", statuses)
	}
	for _, st := range statuses {
		return st
	}
	panic("unreachable")
}

// closableProxy forwards TCP connections to backend. down stops listening
// and severs every connection it carries, so the node side of a replica's
// socket reads end-of-stream and its redials are refused; up listens again
// on the same address. accepted holds a token once a connection has been
// accepted and forwarded, until the test takes it.
type closableProxy struct {
	addr, backend string
	accepted      chan struct{}

	mu    sync.Mutex
	ln    net.Listener
	conns []net.Conn
}

func newClosableProxy(t *testing.T, backend string) *closableProxy {
	p := &closableProxy{addr: "127.0.0.1:0", backend: backend, accepted: make(chan struct{}, 1)}
	p.up(t)
	t.Cleanup(p.down)
	return p
}

func (p *closableProxy) up(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.ln, p.addr = ln, ln.Addr().String()
	p.mu.Unlock()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			b, err := net.Dial("tcp", p.backend)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, c, b)
			p.mu.Unlock()
			go func() { io.Copy(b, c); b.Close() }()
			go func() { io.Copy(c, b); c.Close() }()
			select {
			case p.accepted <- struct{}{}:
			default:
			}
		}
	}()
}

func (p *closableProxy) down() {
	p.mu.Lock()
	ln, conns := p.ln, p.conns
	p.conns = nil
	p.mu.Unlock()
	ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

// waitFor spins until cond holds, failing the test after 5 s. The states it
// waits for follow a socket event within microseconds, so it yields rather
// than sleeps.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestAdminReplicaRedialsOneConn: a replica dialed with one connection is
// a pool of one, so losing its socket degrades it to 0/1 until the
// monitor redials, and then it serves again with no redeploy — ConnHealth
// and /replicas both go 1/1 → 0/1 → 1/1.
func TestAdminReplicaRedialsOneConn(t *testing.T) {
	s, cl := newTestServer(t)
	h := s.Handler()
	addr, srv, err := container.Serve(&fixedModel{name: "single", label: 5}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newClosableProxy(t, addr)

	remote, err := container.DialConns(proxy.addr, time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	<-proxy.accepted
	if _, err := cl.Deploy(remote, func() { remote.Close() },
		batching.QueueConfig{Controller: batching.NewFixed(4)}); err != nil {
		t.Fatal(err)
	}
	app, err := cl.RegisterApp(core.AppConfig{
		Name: "single-app", Models: []string{"single"}, Policy: selection.NewStatic(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	predict := func(x float64) { // a fresh input each time: no cache hit can answer
		t.Helper()
		resp, err := app.Predict(context.Background(), []float64{x})
		if err != nil || resp.Label != 5 {
			t.Fatalf("predict = %+v, %v; want label 5", resp, err)
		}
	}
	conns := func(wantLive int) {
		t.Helper()
		if live, total := remote.ConnHealth(); live != wantLive || total != 1 {
			t.Fatalf("ConnHealth = %d/%d, want %d/1", live, total, wantLive)
		}
		if st := replicaStatus(t, h, "single"); st.LiveConns != wantLive || st.TotalConns != 1 {
			t.Fatalf("/replicas conns = %d/%d, want %d/1", st.LiveConns, st.TotalConns, wantLive)
		}
	}

	predict(1)
	conns(1)

	proxy.down()
	waitFor(t, "the severed connection to count as lost", func() bool {
		live, _ := remote.ConnHealth()
		return live == 0
	})
	conns(0) // the proxy refuses redials, so 0/1 holds

	proxy.up(t)
	select {
	case <-proxy.accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("the lost connection was never redialed")
	}
	waitFor(t, "the redialed connection to be live", func() bool {
		live, _ := remote.ConnHealth()
		return live == 1
	})
	conns(1)
	predict(2)
}

// TestAdminDeployWindow deploys one container with the window left to be
// measured and one with it pinned, and checks the replicas endpoint tells
// them apart.
func TestAdminDeployWindow(t *testing.T) {
	s, cl := newTestServer(t)
	h := s.Handler()

	addr, srv, err := container.Serve(&fixedModel{name: "adaptive-model", label: 3}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, pin := range []int{0, 2} {
		rec := postJSON(t, h, "/api/v1/admin/deploy", gateway.DeployRequest{Addr: addr, SLOMillis: 10, Conns: 2, InFlight: pin})
		if rec.Code != http.StatusOK {
			t.Fatalf("deploy (in_flight %d) status = %d body=%s", pin, rec.Code, rec.Body)
		}
	}
	statuses := cl.ReplicaStatuses("adaptive-model")
	if len(statuses) != 2 {
		t.Fatalf("statuses = %v", statuses)
	}
	pinned := 0
	for _, st := range statuses {
		if st.LiveConns != 2 || st.TotalConns != 2 {
			t.Fatalf("conns = %d/%d, want 2/2: %+v", st.LiveConns, st.TotalConns, st)
		}
		switch {
		case st.WindowPinned && st.Window == 2:
			pinned++
		case st.WindowPinned || st.Window != 4:
			t.Fatalf("window = %d pinned=%v, want 2 pinned or a measured window starting at 4", st.Window, st.WindowPinned)
		}
	}
	if pinned != 1 {
		t.Fatalf("%d of 2 replicas pinned, want 1: %v", pinned, statuses)
	}
	app, err := cl.RegisterApp(core.AppConfig{
		Name: "adaptive-app", Models: []string{"adaptive-model"}, Policy: selection.NewStatic(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	presp, err := app.Predict(context.Background(), []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if presp.Label != 3 {
		t.Fatalf("label = %d, want 3", presp.Label)
	}
}

func TestAdminHealthEndpoint(t *testing.T) {
	s, cl := newTestServer(t)
	h := s.Handler()

	var replicaID string
	for id := range cl.ReplicaStatuses("m0") {
		replicaID = id
	}
	rec := postJSON(t, h, "/api/v1/admin/health", healthRequest{Replica: replicaID, Healthy: false})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body)
	}
	if health := cl.ReplicaStatuses("m0"); health[replicaID].Healthy {
		t.Fatal("mark-down not applied")
	}
	rec = postJSON(t, h, "/api/v1/admin/health", healthRequest{Replica: replicaID, Healthy: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if health := cl.ReplicaStatuses("m0"); !health[replicaID].Healthy {
		t.Fatal("mark-up not applied")
	}
	rec = postJSON(t, h, "/api/v1/admin/health", healthRequest{Replica: "nope", Healthy: true})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown replica: %d", rec.Code)
	}
}

func TestAdminDeployPooledConns(t *testing.T) {
	s, cl := newTestServer(t)
	h := s.Handler()

	addr, srv, err := container.Serve(&fixedModel{name: "pooled-model", label: 5}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec := postJSON(t, h, "/api/v1/admin/deploy", gateway.DeployRequest{Addr: addr, SLOMillis: 10, Conns: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("pooled deploy status = %d body=%s", rec.Code, rec.Body)
	}
	var resp gateway.DeployResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Model != "pooled-model" {
		t.Fatalf("deployed %q", resp.Model)
	}
	// The pooled replica serves predictions like any other.
	app, err := cl.RegisterApp(core.AppConfig{
		Name: "pooled", Models: []string{"pooled-model"}, Policy: selection.NewStatic(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	presp, err := app.Predict(context.Background(), []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if presp.Label != 5 {
		t.Fatalf("label = %d, want 5", presp.Label)
	}
}
