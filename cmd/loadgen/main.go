// Command loadgen drives a Clipper node with a prediction workload over
// either protocol adapter and reports throughput and latency, like the
// serving drivers in the paper's evaluation.
//
// Usage:
//
//	loadgen -target http://localhost:8080 -app demo -rate 500 -duration 10s
//	loadgen -proto stream -target localhost:7001 -rate 500 -process diurnal
//	loadgen -proto stream -target localhost:7001 -rate 2000 -process flash
//	loadgen -target http://localhost:8080 -workers 32 -duration 10s
//
// With -rate the arrivals are open-loop (Poisson by default; -process
// selects diurnal or flash-crowd modulation) over a Zipf-popular user
// population, so offered load is fixed regardless of server speed and
// hot users re-query their own inputs (cache locality). With -workers
// (and rate 0) the load is a closed loop of that many clients.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"clipper/internal/adapter/stream"
	"clipper/internal/gateway"
	"clipper/internal/workload"
)

func main() {
	var (
		target   = flag.String("target", "http://localhost:8080", "Clipper endpoint: base URL for http, host:port for stream")
		proto    = flag.String("proto", "http", "protocol adapter: http or stream")
		app      = flag.String("app", "demo", "application name")
		dim      = flag.Int("dim", 64, "feature dimensionality")
		rate     = flag.Float64("rate", 0, "open-loop arrival rate (qps); 0 = closed loop")
		process  = flag.String("process", "poisson", "open-loop arrival process: poisson, diurnal, or flash")
		users    = flag.Int("users", 1000, "user population (Zipf-popular, one input vector each)")
		zipfS    = flag.Float64("zipf", 1.2, "user popularity skew exponent")
		workers  = flag.Int("workers", 16, "closed-loop worker count")
		duration = flag.Duration("duration", 10*time.Second, "load duration")
		feedback = flag.Float64("feedback", 0, "fraction of queries followed by feedback")
		seed     = flag.Int64("seed", 1, "input generation seed")
	)
	flag.Parse()

	// One deterministic input vector per user: a user's repeat queries are
	// byte-identical, so Zipf-popular users exercise the prediction cache
	// the way real per-user content queries do.
	inputs := workload.RandomInputs(*users, *dim, *seed)

	c, err := dialCaller(*proto, *target)
	if err != nil {
		log.Fatalf("dialing %s target %s: %v", *proto, *target, err)
	}
	defer c.close()

	call := func(user int) error {
		x := inputs[user%len(inputs)]
		label, err := c.predict(*app, x)
		if err != nil {
			return err
		}
		if *feedback > 0 && rand.Float64() < *feedback {
			c.feedback(*app, x, label)
		}
		return nil
	}

	log.Printf("driving %s (%s) app=%q process=%s for %v", *target, *proto, *app, *process, *duration)
	if *rate > 0 {
		res := workload.MeasureOpenLoop(context.Background(), workload.OpenLoopConfig{
			Process:  *process,
			Rate:     *rate,
			Duration: *duration,
			Seed:     *seed,
			Users:    *users,
			ZipfS:    *zipfS,
		}, call)
		fmt.Printf("issued=%d completed=%d errors=%d offered=%.1fqps served=%.1fqps\n",
			res.Issued, res.Completed, res.Errors, res.OfferedQPS, res.QPS)
		fmt.Printf("latency p50=%.2fms p95=%.2fms p99=%.2fms p999=%.2fms\n",
			ms(res.P50), ms(res.P95), ms(res.P99), ms(res.P999))
		return
	}

	// Closed loop: workers issue back-to-back, users drawn Zipf per query.
	// Calls ignore the window's context, so one still in flight when the
	// window closes finishes instead of counting as an error.
	userZipf := workload.NewZipf(*users, *zipfS, *seed)
	var errors atomic.Int64
	lat := workload.MeasureClosedLoop(*workers, 0, *duration, func(context.Context, int) error {
		err := call(userZipf.Rank())
		if err != nil {
			errors.Add(1)
		}
		return err
	})
	fmt.Printf("completed=%d errors=%d throughput=%.1f qps\n",
		lat.Count(), errors.Load(), float64(lat.Count())/duration.Seconds())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// caller abstracts one protocol adapter's predict/feedback calls.
type caller interface {
	predict(app string, x []float64) (int, error)
	feedback(app string, x []float64, label int)
	close()
}

func dialCaller(proto, target string) (caller, error) {
	switch proto {
	case "http":
		return &httpCaller{client: &http.Client{Timeout: 10 * time.Second}, base: target}, nil
	case "stream":
		c, err := stream.Dial(target, 5*time.Second)
		if err != nil {
			return nil, err
		}
		return &streamCaller{c: c}, nil
	default:
		return nil, fmt.Errorf("unknown proto %q (want http or stream)", proto)
	}
}

type httpCaller struct {
	client *http.Client
	base   string
}

func (h *httpCaller) predict(app string, x []float64) (int, error) {
	body, err := json.Marshal(gateway.PredictRequest{App: app, Input: x})
	if err != nil {
		return 0, err
	}
	resp, err := h.client.Post(h.base+"/api/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	var pr struct {
		Label int `json:"label"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return 0, err
	}
	return pr.Label, nil
}

func (h *httpCaller) feedback(app string, x []float64, label int) {
	body, err := json.Marshal(gateway.FeedbackRequest{App: app, Input: x, Label: label})
	if err != nil {
		return
	}
	resp, err := h.client.Post(h.base+"/api/v1/feedback", "application/json", bytes.NewReader(body))
	if err != nil {
		return
	}
	resp.Body.Close()
}

func (h *httpCaller) close() {}

type streamCaller struct{ c *stream.Conn }

func (s *streamCaller) predict(app string, x []float64) (int, error) {
	res, err := s.c.Predict(context.Background(), app, "", x)
	return res.Label, err
}

func (s *streamCaller) feedback(app string, x []float64, label int) {
	s.c.Feedback(context.Background(), app, "", label, x)
}

func (s *streamCaller) close() { s.c.Close() }
