package httpjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clipper/internal/batching"
	"clipper/internal/container"
	"clipper/internal/core"
	"clipper/internal/gateway"
	"clipper/internal/selection"
)

// fixedModel predicts a constant label.
type fixedModel struct {
	name  string
	label int
}

func (f *fixedModel) Info() container.Info {
	return container.Info{Name: f.name, Version: 1, NumClasses: 10}
}

func (f *fixedModel) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	out := make([]container.Prediction, len(xs))
	for i := range out {
		out[i] = container.Prediction{Label: f.label}
	}
	return out, nil
}

func newTestServer(t *testing.T) (*Server, *core.Clipper) {
	t.Helper()
	cl := core.New(core.Config{CacheSize: 128})
	t.Cleanup(cl.Close)
	for i, name := range []string{"m0", "m1"} {
		if _, err := cl.Deploy(&fixedModel{name: name, label: i + 1}, nil,
			batching.QueueConfig{Controller: batching.NewFixed(4)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.RegisterApp(core.AppConfig{
		Name: "demo", Models: []string{"m0", "m1"}, Policy: selection.NewExp4(0.3),
	}); err != nil {
		t.Fatal(err)
	}
	return NewServer(cl), cl
}

func postJSON(t *testing.T, h http.Handler, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestPredictEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	rec := postJSON(t, s.Handler(), "/api/v1/predict", gateway.PredictRequest{
		App: "demo", Input: []float64{1, 2, 3},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// Two models predicting 1 and 2 with equal weight: tie breaks to 1.
	if resp.Label != 1 {
		t.Fatalf("Label = %d", resp.Label)
	}
	if resp.LatencyUS < 0 {
		t.Fatalf("LatencyUS = %d", resp.LatencyUS)
	}
}

func TestPredictValidation(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()

	rec := postJSON(t, h, "/api/v1/predict", gateway.PredictRequest{App: "demo"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty input: status = %d", rec.Code)
	}
	rec = postJSON(t, h, "/api/v1/predict", gateway.PredictRequest{App: "nope", Input: []float64{1}})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown app: status = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/api/v1/predict", nil)
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status = %d", rec2.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/api/v1/predict", strings.NewReader("{bad json"))
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, req)
	if rec3.Code != http.StatusBadRequest {
		t.Fatalf("bad json: status = %d", rec3.Code)
	}
}

func TestFeedbackEndpoint(t *testing.T) {
	s, cl := newTestServer(t)
	h := s.Handler()
	for i := 0; i < 10; i++ {
		rec := postJSON(t, h, "/api/v1/feedback", gateway.FeedbackRequest{
			App: "demo", Input: []float64{float64(i)}, Label: 1,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d body=%s", rec.Code, rec.Body)
		}
	}
	app, _ := cl.App("demo")
	state, err := app.State("")
	if err != nil {
		t.Fatal(err)
	}
	// m0 predicts 1 (always right here); its weight should dominate.
	if state.Weights[0] <= state.Weights[1] {
		t.Fatalf("feedback not applied: %v", state.Weights)
	}
}

func TestFeedbackValidation(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	rec := postJSON(t, h, "/api/v1/feedback", gateway.FeedbackRequest{App: "demo", Label: 1})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty input: status = %d", rec.Code)
	}
	rec = postJSON(t, h, "/api/v1/feedback", gateway.FeedbackRequest{App: "nope", Input: []float64{1}})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown app: status = %d", rec.Code)
	}
}

func TestContextualPredict(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	// Train context "u1" toward m1 (label 2).
	for i := 0; i < 10; i++ {
		postJSON(t, h, "/api/v1/feedback", gateway.FeedbackRequest{
			App: "demo", Context: "u1", Input: []float64{float64(100 + i)}, Label: 2,
		})
	}
	rec := postJSON(t, h, "/api/v1/predict", gateway.PredictRequest{
		App: "demo", Context: "u1", Input: []float64{555},
	})
	var resp PredictResponse
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp.Label != 2 {
		t.Fatalf("contextual Label = %d, want 2", resp.Label)
	}
	// Global context is untrained: equal weights tie-break to 1.
	rec = postJSON(t, h, "/api/v1/predict", gateway.PredictRequest{
		App: "demo", Input: []float64{556},
	})
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp.Label != 1 {
		t.Fatalf("global Label = %d, want 1", resp.Label)
	}
}

func TestAdminEndpoints(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
}

func TestListenAndServeRealSocket(t *testing.T) {
	s, _ := newTestServer(t)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	body, _ := json.Marshal(gateway.PredictRequest{App: "demo", Input: []float64{4, 5}})
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Post(fmt.Sprintf("http://%s/api/v1/predict", addr),
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Label != 1 {
		t.Fatalf("Label = %d", pr.Label)
	}
}
