package clipper_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"clipper"
	"clipper/internal/container"
)

// parityModel labels inputs by the parity of their first feature.
type parityModel struct{ name string }

func (m parityModel) Info() clipper.ModelInfo {
	return clipper.ModelInfo{Name: m.name, Version: 1, NumClasses: 2}
}

func (m parityModel) PredictBatch(xs [][]float64) ([]clipper.Prediction, error) {
	out := make([]clipper.Prediction, len(xs))
	for i, x := range xs {
		out[i] = clipper.Prediction{Label: int(x[0]) % 2}
	}
	return out, nil
}

func TestPublicAPIEndToEnd(t *testing.T) {
	cl := clipper.New(clipper.Config{})
	defer cl.Close()

	if _, err := cl.Deploy(parityModel{name: "parity"}, nil,
		clipper.DefaultQueueConfig(20*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	app, err := cl.RegisterApp(clipper.AppConfig{
		Name:   "demo",
		Models: []string{"parity"},
		Policy: clipper.NewExp3(0.1),
		SLO:    50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := app.Predict(context.Background(), []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Label != 1 {
		t.Fatalf("Label = %d", resp.Label)
	}
	if err := app.Feedback(context.Background(), []float64{7}, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIRemoteContainer(t *testing.T) {
	addr, stop, err := clipper.ServeContainer(parityModel{name: "remote-parity"}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	remote, err := clipper.DialContainer(addr, time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := clipper.New(clipper.Config{})
	defer cl.Close()
	if _, err := cl.Deploy(remote, func() { remote.Close() },
		clipper.QueueConfig{Controller: clipper.NewFixedBatch(4)}); err != nil {
		t.Fatal(err)
	}
	app, err := cl.RegisterApp(clipper.AppConfig{
		Name: "demo", Models: []string{"remote-parity"}, Policy: clipper.NewStaticPolicy(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := app.Predict(context.Background(), []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Label != 0 {
		t.Fatalf("Label = %d", resp.Label)
	}
}

func TestPublicAPIControllers(t *testing.T) {
	for _, c := range []clipper.Controller{
		clipper.NewAIMD(clipper.AIMDConfig{SLO: time.Millisecond}),
		clipper.NewQuantileReg(time.Millisecond),
		clipper.NewFixedBatch(3),
	} {
		if c.MaxBatch() < 1 {
			t.Fatalf("%s MaxBatch = %d", c.Name(), c.MaxBatch())
		}
	}
}

func TestPublicAPIPolicies(t *testing.T) {
	for _, p := range []clipper.Policy{
		clipper.NewExp3(0.1), clipper.NewExp4(0.3), clipper.NewStaticPolicy(0),
	} {
		s := p.Init(3)
		if len(s.Weights) != 3 {
			t.Fatalf("%s Init = %+v", p.Name(), s)
		}
	}
}

func TestPublicAPIStateStore(t *testing.T) {
	s := clipper.NewMemStore()
	defer s.Close()
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
}

func TestPublicAPIMetricsRegistry(t *testing.T) {
	cl := clipper.New(clipper.Config{})
	defer cl.Close()
	if _, err := cl.Deploy(parityModel{name: "parity"}, nil,
		clipper.DefaultQueueConfig(20*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	// Embedders can add their own families next to the clipper_ ones.
	err := cl.Metrics().Register("myapp_ticks_total", "embedder counter",
		clipper.MetricsCounter, func(dst []clipper.MetricsSeries) []clipper.MetricsSeries {
			return append(dst, clipper.MetricsSeries{
				Labels: []clipper.MetricsLabel{{Name: "source", Value: "test"}},
				Value:  3,
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := cl.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"myapp_ticks_total{source=\"test\"} 3",
		"clipper_queue_queued{model=\"parity\"",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
}

func ExampleNew() {
	cl := clipper.New(clipper.Config{})
	defer cl.Close()

	cl.Deploy(parityModel{name: "parity"}, nil, clipper.DefaultQueueConfig(20*time.Millisecond))
	app, _ := cl.RegisterApp(clipper.AppConfig{
		Name: "demo", Models: []string{"parity"}, Policy: clipper.NewStaticPolicy(0),
	})
	resp, _ := app.Predict(context.Background(), []float64{3})
	fmt.Println(resp.Label)
	// Output: 1
}

var _ container.Predictor = parityModel{} // the alias and origin interface are identical
