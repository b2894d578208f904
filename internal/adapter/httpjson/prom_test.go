package httpjson

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"clipper/internal/gateway"
)

var (
	promNameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*`)
	promSeriesRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? \S+$`)
	promLabelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	promBucketRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)_bucket\{(.*?),?le="([^"]*)"\} (\S+)$`)
	promCountRe  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)_count(?:\{(.*)\})? (\S+)$`)
)

// distributionFamilies are the node's distributions, all histograms.
var distributionFamilies = []string{
	"clipper_batch_size", "clipper_batch_latency_seconds", "clipper_queue_delay_seconds",
	"clipper_app_latency_seconds", "clipper_gateway_latency_seconds",
}

// promHist is one histogram series as scraped: its le ladder in emitted
// order, its last bucket count, and its +Inf bucket.
type promHist struct {
	ladder []string
	prev   float64
	inf    string
}

// validatePromText is the Go twin of scripts/check_prom.sh: every series
// line must parse, reference a family whose HELP and TYPE lines came
// first, use legal label names, and be unique; no family is a summary,
// the distributions are histograms, each histogram series' buckets never
// fall as le rises, its le="+Inf" bucket equals its _count, and every
// series of a family carries the same le ladder.
func validatePromText(t *testing.T, body string) {
	t.Helper()
	help := map[string]bool{}
	typ := map[string]string{}
	seen := map[string]bool{}
	hists := map[string]*promHist{}
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			help[strings.Fields(line[7:])[0]] = true
			continue
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line[7:])
			typ[f[0]] = f[1]
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
			if base != name && (help[base] || typ[base] != "") {
				fam = base
				break
			}
		}
		if !help[fam] || typ[fam] == "" {
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
		if b := promBucketRe.FindStringSubmatch(line); b != nil && typ[b[1]] == "histogram" {
			key := b[1] + "{" + b[2] + "}"
			h := hists[key]
			if h == nil {
				h = &promHist{prev: -1}
				hists[key] = h
			}
			v, _ := strconv.ParseFloat(b[4], 64)
			if v < h.prev {
				t.Errorf("line %d: bucket count falls as le rises: %q", ln+1, line)
			}
			h.prev, h.ladder = v, append(h.ladder, b[3])
			if b[3] == "+Inf" {
				h.inf = b[4]
			}
		}
		if c := promCountRe.FindStringSubmatch(line); c != nil && typ[c[1]] == "histogram" {
			if h := hists[c[1]+"{"+c[2]+"}"]; h == nil || h.inf != c[3] {
				t.Errorf("line %d: _count %s does not equal its le=\"+Inf\" bucket", ln+1, line)
			}
		}
	}
	for fam, kind := range typ {
		if kind == "summary" {
			t.Errorf("family %s is a summary", fam)
		}
	}
	for _, fam := range distributionFamilies {
		if kind, ok := typ[fam]; ok && kind != "histogram" {
			t.Errorf("family %s is a %s, want histogram", fam, kind)
		}
	}
	ladders := map[string]string{}
	for key, h := range hists {
		fam, ladder := key[:strings.IndexByte(key, '{')], strings.Join(h.ladder, ",")
		if prev, ok := ladders[fam]; ok && prev != ladder {
			t.Errorf("family %s: series carry different le ladders", fam)
		}
		ladders[fam] = ladder
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
	postJSON(t, h, "/api/v1/predict", gateway.PredictRequest{App: "demo", Input: []float64{1}})
	postJSON(t, h, "/api/v1/feedback", gateway.FeedbackRequest{App: "demo", Input: []float64{1}, Label: 1})

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
		`clipper_gateway_requests_total{adapter="http",op="predict"} 1`,
		`clipper_gateway_requests_total{adapter="http",op="feedback"} 1`,
		`clipper_gateway_requests_total{adapter="http",op="metrics"} 1`,
		`clipper_gateway_latency_seconds_bucket{adapter="http",op="predict",le="+Inf"} 1`,
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
						gateway.PredictRequest{App: "demo", Input: []float64{float64(g), float64(i)}})
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
// Clipper must not poison the shared registry (the gateway families are
// simply kept by the first server's gateway).
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
		if f == "clipper_gateway_requests_total" {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("gateway family registered %d times", hits)
	}
}
