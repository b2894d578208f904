package httpjson

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	promNameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*`)
	promSeriesRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? \S+$`)
	promLabelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// validatePromText is the Go twin of scripts/check_prom.sh: every series
// line must parse, reference a family whose HELP and TYPE lines came
// first, use legal label names, and be unique.
func validatePromText(t *testing.T, body string) {
	t.Helper()
	help := map[string]bool{}
	typ := map[string]bool{}
	seen := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			help[strings.Fields(line[7:])[0]] = true
			continue
		case strings.HasPrefix(line, "# TYPE "):
			typ[strings.Fields(line[7:])[0]] = true
			continue
		case strings.HasPrefix(line, "#") || line == "":
			continue
		}
		m := promSeriesRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: unparseable series %q", ln+1, line)
			continue
		}
		name := m[1]
		fam := name
		for _, suffix := range []string{"_sum", "_count", "_bucket"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && (help[base] || typ[base]) {
				fam = base
				break
			}
		}
		if !help[fam] || !typ[fam] {
			t.Errorf("line %d: series %q has no preceding HELP/TYPE", ln+1, name)
		}
		id := m[1]
		if m[2] != "" {
			id += m[2]
		}
		if seen[id] {
			t.Errorf("line %d: duplicate series %s", ln+1, id)
		}
		seen[id] = true
		if m[2] != "" {
			for _, pair := range splitPromLabels(m[2]) {
				if !promLabelRe.MatchString(pair) {
					t.Errorf("line %d: bad label name %q", ln+1, pair)
				}
			}
		}
	}
}

// splitPromLabels extracts the label names from a rendered {a="..",b=".."}
// block (values may contain escaped quotes and commas).
func splitPromLabels(block string) []string {
	var names []string
	s := block[1 : len(block)-1]
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			break
		}
		names = append(names, s[:eq])
		rest := s[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			break
		}
		i := 1
		for i < len(rest) {
			if rest[i] == '\\' {
				i += 2
				continue
			}
			if rest[i] == '"' {
				break
			}
			i++
		}
		s = strings.TrimPrefix(rest[min(i+1, len(rest)):], ",")
	}
	return names
}

// TestMetricsPrometheus: GET /metrics (no format param) serves valid
// Prometheus exposition covering the registered families, with the
// version-tagged content type.
func TestMetricsPrometheus(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	postJSON(t, h, "/api/v1/predict", PredictRequest{App: "demo", Input: []float64{1}})
	postJSON(t, h, "/api/v1/feedback", FeedbackRequest{App: "demo", Input: []float64{1}, Label: 1})

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}
	body := rec.Body.String()
	validatePromText(t, body)
	for _, want := range []string{
		`clipper_app_predictions_total{app="demo"} 1`,
		`clipper_app_feedbacks_total{app="demo"} 1`,
		`clipper_queue_queued{model="m0",replica="m0:v1/0"}`,
		`clipper_queue_max_batch{model="m0",replica="m0:v1/0"}`,
		`clipper_cache_hits_total`,
		`clipper_http_requests_total{path="/api/v1/predict"} 1`,
		`clipper_http_requests_total{path="/metrics"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q\nbody:\n%s", want, body)
		}
	}
	if !promNameRe.MatchString("clipper_cache_hits_total") {
		t.Fatal("self-check: name regexp broken")
	}
}

// TestMetricsPrometheusConcurrent scrapes the HTTP endpoint while the
// predict endpoint is being hammered — the frontend-level twin of the
// core scrape-under-load test, exercised under -race in CI.
func TestMetricsPrometheusConcurrent(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
					rec := postJSON(t, h, "/api/v1/predict",
						PredictRequest{App: "demo", Input: []float64{float64(g), float64(i)}})
					if rec.Code != http.StatusOK {
						t.Errorf("predict: %d", rec.Code)
						return
					}
					i++
				}
			}
		}(g)
	}
	for i := 0; i < 30; i++ {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("scrape %d: %d", i, rec.Code)
		}
	}
	close(stop)
	wg.Wait()

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	validatePromText(t, rec.Body.String())
}

// TestSecondServerKeepsScrapeWorking: a second REST server over the same
// Clipper must not poison the shared registry (the HTTP family is simply
// kept by the first server).
func TestSecondServerKeepsScrapeWorking(t *testing.T) {
	s, cl := newTestServer(t)
	s2 := NewServer(cl)
	for _, srv := range []*Server{s, s2} {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("scrape: %d", rec.Code)
		}
		validatePromText(t, rec.Body.String())
	}
	if got := cl.Metrics().Families(); len(got) == 0 {
		t.Fatal("no families registered")
	}
	var hits int
	for _, f := range cl.Metrics().Families() {
		if f == "clipper_http_requests_total" {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("http family registered %d times", hits)
	}
}
