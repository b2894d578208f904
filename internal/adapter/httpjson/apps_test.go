package httpjson

import (
	"net/http"
	"testing"

	"clipper/internal/gateway"
)

func TestRegisterAppEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()

	rec := postJSON(t, h, "/api/v1/admin/apps", gateway.RegisterAppRequest{
		Name: "runtime-app", Models: []string{"m0", "m1"}, Policy: "exp3", SLOMillis: 50,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body)
	}
	// The new app serves immediately.
	rec = postJSON(t, h, "/api/v1/predict", gateway.PredictRequest{App: "runtime-app", Input: []float64{1}})
	if rec.Code != http.StatusOK {
		t.Fatalf("predict on runtime app: %d %s", rec.Code, rec.Body)
	}
}

func TestRegisterAppPolicies(t *testing.T) {
	for _, policy := range []string{"", "exp3", "exp4", "static:1"} {
		p, err := gateway.ParsePolicy(policy)
		if err != nil || p == nil {
			t.Fatalf("policy %q: %v", policy, err)
		}
	}
	for _, bad := range []string{"nope", "static:x", "ucb1", "thompson", "epsilon-greedy"} {
		if _, err := gateway.ParsePolicy(bad); err == nil {
			t.Fatalf("policy %q accepted", bad)
		}
	}
}

func TestRegisterAppValidationErrors(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	rec := postJSON(t, h, "/api/v1/admin/apps", gateway.RegisterAppRequest{
		Name: "x", Models: []string{"m0"}, Policy: "bogus",
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad policy: %d", rec.Code)
	}
	rec = postJSON(t, h, "/api/v1/admin/apps", gateway.RegisterAppRequest{
		Name: "x", Models: []string{"missing-model"},
	})
	if rec.Code != http.StatusConflict {
		t.Fatalf("unknown model: %d", rec.Code)
	}
	// Duplicate name.
	rec = postJSON(t, h, "/api/v1/admin/apps", gateway.RegisterAppRequest{
		Name: "demo", Models: []string{"m0"},
	})
	if rec.Code != http.StatusConflict {
		t.Fatalf("duplicate app: %d", rec.Code)
	}
}
