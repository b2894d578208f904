package httpjson

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"clipper/internal/batching"
	"clipper/internal/container"
	"clipper/internal/core"
	"clipper/internal/gateway"
	"clipper/internal/selection"
)

// slowModel answers after a fixed delay, so tests can warm the service
// EWMA past a tight SLO and trip the admission gate deterministically.
type slowModel struct {
	name  string
	label int
	delay time.Duration
}

func (m *slowModel) Info() container.Info {
	return container.Info{Name: m.name, Version: 1, NumClasses: 10}
}

func (m *slowModel) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	time.Sleep(m.delay)
	out := make([]container.Prediction, len(xs))
	for i := range out {
		out[i] = container.Prediction{Label: m.label}
	}
	return out, nil
}

func getJSONMap(t *testing.T, h http.Handler, path string) map[string]json.RawMessage {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d body=%s", path, rec.Code, rec.Body)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return out
}

// TestApplicationsEndpoint: /api/v1/admin/applications reports every
// app's QoS snapshot, and registering through the HTTP API carries the
// weight and shed policy into it.
func TestApplicationsEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()

	apps := getJSONMap(t, h, "/api/v1/admin/applications")
	var demo core.AppStatus
	if err := json.Unmarshal(apps["demo"], &demo); err != nil {
		t.Fatalf("demo status missing: %v (have %v)", err, apps)
	}
	if demo.QoS || demo.ShedPolicy != "none" {
		t.Fatalf("demo status = %+v, want non-QoS", demo)
	}

	rec := postJSON(t, h, "/api/v1/admin/apps", gateway.RegisterAppRequest{
		Name: "gold", Models: []string{"m0"}, Policy: "static:0",
		Weight: 4, ShedPolicy: "reject", SLOMillis: 50,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("register = %d body=%s", rec.Code, rec.Body)
	}
	apps = getJSONMap(t, h, "/api/v1/admin/applications")
	var gold core.AppStatus
	if err := json.Unmarshal(apps["gold"], &gold); err != nil {
		t.Fatal(err)
	}
	if !gold.QoS || gold.Weight != 4 || gold.ShedPolicy != "reject" || gold.SLOMillis != 50 {
		t.Fatalf("gold status = %+v, want QoS reject weight 4 slo 50ms", gold)
	}

	// Unknown shed policies are rejected at the door.
	rec = postJSON(t, h, "/api/v1/admin/apps", gateway.RegisterAppRequest{
		Name: "bad", Models: []string{"m0"}, ShedPolicy: "drop",
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad shed policy = %d, want 400", rec.Code)
	}
}

// TestPredictShed503: a query the admission gate rejects surfaces as
// HTTP 503, and the replica snapshot shows the app's tenant slice.
func TestPredictShed503(t *testing.T) {
	cl := core.New(core.Config{CacheSize: 128})
	t.Cleanup(cl.Close)
	if _, err := cl.Deploy(&slowModel{name: "slow", label: 5, delay: 20 * time.Millisecond}, nil,
		batching.QueueConfig{Controller: batching.NewFixed(4)}); err != nil {
		t.Fatal(err)
	}
	// Warm the service estimate through an ungated app first: the gate
	// admits everything while the cost estimate is cold.
	warm, err := cl.RegisterApp(core.AppConfig{
		Name: "warm", Models: []string{"slow"}, Policy: selection.NewStatic(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Predict(t.Context(), []float64{1}); err != nil {
		t.Fatal(err)
	}
	// A predict returns once its reply is delivered, but runBatch feeds the
	// load model only after every reply is out: wait for the count, or the
	// gate can still read a cold cost and admit.
	for q := cl.ReplicaQueues("slow")[0]; q.LoadStats().Completed != 1; {
		runtime.Gosched()
	}
	if _, err := cl.RegisterApp(core.AppConfig{
		Name: "gated", Models: []string{"slow"}, Policy: selection.NewStatic(0),
		SLO: time.Millisecond, Shed: core.ShedReject, Weight: 2,
	}); err != nil {
		t.Fatal(err)
	}

	h := NewServer(cl).Handler()
	rec := postJSON(t, h, "/api/v1/predict", gateway.PredictRequest{App: "gated", Input: []float64{2}})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed predict = %d body=%s, want 503", rec.Code, rec.Body)
	}

	replicas := getJSONMap(t, h, "/api/v1/admin/replicas?model=slow")
	if len(replicas) != 1 {
		t.Fatalf("got %d replicas, want 1", len(replicas))
	}
	for _, raw := range replicas {
		var st core.ReplicaStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if len(st.Tenants) != 1 || st.Tenants[0].Tenant != "gated" || st.Tenants[0].Weight != 2 {
			t.Fatalf("replica tenants = %+v, want gated with weight 2", st.Tenants)
		}
	}
}
