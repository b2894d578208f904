package integration

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"clipper/internal/adapter/httpjson"
	"clipper/internal/dataset"
	"clipper/internal/selection"
)

// TestFullStackMetricsScrape drives predictions through the full
// deployment (TCP model containers, TCP state store, REST frontend) while
// scraping GET /metrics concurrently, the way a Prometheus server would:
// the scrape must stay parseable under load and reflect the traffic.
func TestFullStackMetricsScrape(t *testing.T) {
	ds := dataset.Gaussian(dataset.GaussianConfig{
		Name: "metrics", N: 600, Dim: 16, NumClasses: 3, Separation: 4, Noise: 1, Seed: 11,
	})
	train, test := ds.Split(0.8, 2)
	c := startCluster(t, train, 2, selection.NewExp4(0.4))
	defer c.Close()
	base := "http://" + c.restAddr

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Fatalf("scrape content type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// Predict from several goroutines with scrapes interleaved.
	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				x := test.X[(w*perWorker+i)%test.Len()]
				raw, err := json.Marshal(httpjson.PredictRequest{App: "app", Input: x})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(base+"/api/v1/predict", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("predict status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		scrape()
		select {
		case <-done:
		default:
			continue
		}
		break
	}

	out := scrape()
	for _, want := range []string{
		"# TYPE clipper_queue_completed_queries_total counter",
		`clipper_queue_queued{model="model-0"`,
		`clipper_replica_healthy{model="model-1"`,
		"clipper_batch_latency_seconds_count",
		`clipper_app_predictions_total{app="app"} ` + fmt.Sprint(workers*perWorker),
		`clipper_gateway_requests_total{adapter="http",op="predict"} ` + fmt.Sprint(workers*perWorker),
		"clipper_cache_hits_total",
		"clipper_sched_submitted_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Every series line must parse and sit under its family's HELP/TYPE —
	// the same contract scripts/check_prom.sh enforces in CI against the
	// deployed binaries.
	help := map[string]bool{}
	typ := map[string]bool{}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			help[strings.Fields(line)[2]] = true
			continue
		case strings.HasPrefix(line, "# TYPE "):
			typ[strings.Fields(line)[2]] = true
			continue
		case line == "":
			t.Error("blank line in exposition")
			continue
		}
		id := line[:strings.LastIndexByte(line, ' ')]
		if seen[id] {
			t.Errorf("duplicate series %q", id)
		}
		seen[id] = true
		fam := id
		if i := strings.IndexByte(fam, '{'); i >= 0 {
			fam = fam[:i]
		}
		if !typ[fam] {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(fam, suf); typ[base] {
					fam = base
					break
				}
			}
		}
		if !typ[fam] || !help[fam] {
			t.Errorf("series %q lacks HELP/TYPE (family %q)", id, fam)
		}
	}
}
