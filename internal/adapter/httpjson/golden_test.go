package httpjson

// Wire-compat lock: these tests pin the HTTP surface byte-for-byte —
// paths, status codes, Content-Type, and exact JSON bodies (including
// json.Encoder's trailing newline). They are the contract the gateway
// refactor must not move; a failure here means a deployed client would
// see a different wire.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func doReq(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestGoldenWireFormat(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantBody   string // exact, including trailing newline
	}{
		{"predict GET method", http.MethodGet, "/api/v1/predict", "",
			405, "{\"error\":\"POST required\"}\n"},
		{"predict empty input", http.MethodPost, "/api/v1/predict", `{"app":"demo","input":[]}`,
			400, "{\"error\":\"empty input\"}\n"},
		{"predict unknown app", http.MethodPost, "/api/v1/predict", `{"app":"nope","input":[1]}`,
			404, "{\"error\":\"unknown app \\\"nope\\\"\"}\n"},
		{"predict bad JSON", http.MethodPost, "/api/v1/predict", `{`,
			400, "{\"error\":\"bad JSON: unexpected EOF\"}\n"},
		{"feedback ok", http.MethodPost, "/api/v1/feedback", `{"app":"demo","input":[1],"label":1}`,
			200, "{\"ok\":true}\n"},
		{"feedback GET method", http.MethodGet, "/api/v1/feedback", "",
			405, "{\"error\":\"POST required\"}\n"},
		{"healthz", http.MethodGet, "/healthz", "",
			200, "{\"ok\":true}\n"},
		{"models", http.MethodGet, "/api/v1/models", "",
			404, "404 page not found\n"},
		{"apps", http.MethodGet, "/api/v1/apps", "",
			404, "404 page not found\n"},
		{"deploy missing addr", http.MethodPost, "/api/v1/admin/deploy", `{}`,
			400, "{\"error\":\"addr required\"}\n"},
		{"predict-batch gone", http.MethodPost, "/api/v1/predict-batch", `{"app":"demo","inputs":[[1]]}`,
			404, "404 page not found\n"},
		{"admin health unknown replica", http.MethodPost, "/api/v1/admin/health", `{"replica":"ghost","healthy":true}`,
			404, "{\"error\":\"unknown replica ghost\"}\n"},
		{"register bad policy", http.MethodPost, "/api/v1/admin/apps", `{"name":"x","models":["m0"],"policy":"nope"}`,
			400, "{\"error\":\"unknown policy \\\"nope\\\"\"}\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := doReq(t, h, tc.method, tc.path, tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %q)", rec.Code, tc.wantStatus, rec.Body)
			}
			if got := rec.Body.String(); got != tc.wantBody {
				t.Fatalf("body = %q, want %q", got, tc.wantBody)
			}
			// JSON bodies are the API's; anything else is the mux's own
			// plain-text 404 for a path the API does not serve.
			wantCT := "application/json"
			if !json.Valid([]byte(tc.wantBody)) {
				wantCT = "text/plain; charset=utf-8"
			}
			if ct := rec.Header().Get("Content-Type"); ct != wantCT {
				t.Fatalf("Content-Type = %q, want %s", ct, wantCT)
			}
		})
	}
}

// TestGoldenPredictShape pins the success-body key set: degraded is
// omitted when false, everything else always present.
func TestGoldenPredictShape(t *testing.T) {
	s, _ := newTestServer(t)
	rec := doReq(t, s.Handler(), http.MethodPost, "/api/v1/predict", `{"app":"demo","input":[1,2]}`)
	if rec.Code != 200 {
		t.Fatalf("predict = %d body=%s", rec.Code, rec.Body)
	}
	var body map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"label", "confidence", "used_default", "missing", "latency_us"} {
		if _, ok := body[key]; !ok {
			t.Fatalf("predict body missing %q: %s", key, rec.Body)
		}
	}
	if _, ok := body["degraded"]; ok {
		t.Fatalf("degraded present on non-degraded response: %s", rec.Body)
	}
	if len(body) != 5 {
		t.Fatalf("predict body has %d keys, want 5: %s", len(body), rec.Body)
	}
}

// TestGoldenMetricsContentType pins the Prometheus exposition content
// type.
func TestGoldenMetricsContentType(t *testing.T) {
	s, _ := newTestServer(t)
	rec := doReq(t, s.Handler(), http.MethodGet, "/metrics", "")
	if rec.Code != 200 {
		t.Fatalf("metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
}
