package adapter_test

// Adapter parity: the same predict/feedback inputs must yield
// semantically identical results — labels, flags, error codes, and error
// messages — over httpjson and stream, because both are shells over one
// gateway. The suite also covers the graceful-shutdown contract: Close
// during an in-flight predict still yields a response.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"clipper/internal/adapter/httpjson"
	"clipper/internal/adapter/stream"
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

// slowModel answers after a fixed delay: it warms the service EWMA past
// a tight SLO (tripping the admission gate deterministically) and holds
// requests in flight for the shutdown-drain tests.
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

// newParityNode builds one Clipper with the full cast of apps the suite
// probes: "fixed" (static policy, deterministic label), "warm" (ungated,
// over the slow model), "gated" (reject-shed), "soft" (degrade-shed).
func newParityNode(t *testing.T) *core.Clipper {
	t.Helper()
	cl := core.New(core.Config{CacheSize: 128})
	t.Cleanup(cl.Close)
	for i, name := range []string{"m0", "m1"} {
		if _, err := cl.Deploy(&fixedModel{name: name, label: i + 1}, nil,
			batching.QueueConfig{Controller: batching.NewFixed(4)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Deploy(&slowModel{name: "slow", label: 5, delay: 20 * time.Millisecond}, nil,
		batching.QueueConfig{Controller: batching.NewFixed(4)}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RegisterApp(core.AppConfig{
		Name: "fixed", Models: []string{"m0", "m1"}, Policy: selection.NewStatic(0),
	}); err != nil {
		t.Fatal(err)
	}
	// Warm the slow model's cost estimate through an ungated app: the
	// admission gate admits everything while the estimate is cold.
	warm, err := cl.RegisterApp(core.AppConfig{
		Name: "warm", Models: []string{"slow"}, Policy: selection.NewStatic(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Predict(context.Background(), []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RegisterApp(core.AppConfig{
		Name: "gated", Models: []string{"slow"}, Policy: selection.NewStatic(0),
		SLO: time.Millisecond, Shed: core.ShedReject,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RegisterApp(core.AppConfig{
		Name: "soft", Models: []string{"slow"}, Policy: selection.NewStatic(0),
		SLO: time.Millisecond, Shed: core.ShedDegrade, DefaultLabel: 7,
	}); err != nil {
		t.Fatal(err)
	}
	return cl
}

// outcome is one adapter-neutral call result for comparison.
type outcome struct {
	Code        gateway.Code
	Msg         string
	Label       int
	Confidence  float64
	UsedDefault bool
	Missing     int
	Degraded    bool
}

// caller drives one adapter.
type caller interface {
	name() string
	predict(app string, input []float64) outcome
	feedback(app string, input []float64, label int) outcome
}

func fromResult(res gateway.PredictResult, err error) outcome {
	if err != nil {
		return outcome{Code: gateway.CodeOf(err), Msg: err.Error()}
	}
	return outcome{
		Label:       res.Label,
		Confidence:  res.Confidence,
		UsedDefault: res.UsedDefault,
		Missing:     res.Missing,
		Degraded:    res.Degraded,
	}
}

type httpCaller struct {
	base string
	c    *http.Client
}

func (h *httpCaller) name() string { return "http" }

// httpStatusCode inverts Code.HTTPStatus for parity comparison.
func httpStatusCode(status int) gateway.Code {
	for c := gateway.CodeOK; c <= gateway.CodeInternal; c++ {
		if c.HTTPStatus() == status {
			return c
		}
	}
	return gateway.CodeInternal
}

func (h *httpCaller) post(path string, body, out any) outcome {
	raw, err := json.Marshal(body)
	if err != nil {
		return outcome{Code: gateway.CodeInternal, Msg: err.Error()}
	}
	resp, err := h.c.Post(h.base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return outcome{Code: gateway.CodeInternal, Msg: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return outcome{Code: httpStatusCode(resp.StatusCode), Msg: e.Error}
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return outcome{Code: gateway.CodeInternal, Msg: err.Error()}
		}
	}
	return outcome{}
}

func (h *httpCaller) predict(app string, input []float64) outcome {
	var pr httpjson.PredictResponse
	if o := h.post("/api/v1/predict", gateway.PredictRequest{App: app, Input: input}, &pr); o.Code != gateway.CodeOK {
		return o
	}
	return outcome{
		Label:       pr.Label,
		Confidence:  pr.Confidence,
		UsedDefault: pr.UsedDefault,
		Missing:     pr.Missing,
		Degraded:    pr.Degraded,
	}
}

func (h *httpCaller) feedback(app string, input []float64, label int) outcome {
	return h.post("/api/v1/feedback", gateway.FeedbackRequest{App: app, Input: input, Label: label}, nil)
}

type streamCaller struct{ c *stream.Conn }

func (s *streamCaller) name() string { return "stream" }

func (s *streamCaller) predict(app string, input []float64) outcome {
	return fromResult(s.c.Predict(context.Background(), app, "", input))
}

func (s *streamCaller) feedback(app string, input []float64, label int) outcome {
	err := s.c.Feedback(context.Background(), app, "", label, input)
	if err != nil {
		return outcome{Code: gateway.CodeOf(err), Msg: err.Error()}
	}
	return outcome{}
}

// startAdapters boots both adapters over one gateway and returns a
// connected caller per adapter.
func startAdapters(t *testing.T, cl *core.Clipper) []caller {
	t.Helper()
	gw := gateway.New(cl)

	hs := httpjson.New(gw)
	haddr, err := hs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hs.Close() })

	ss := stream.New(gw)
	saddr, err := ss.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })

	sc, err := stream.Dial(saddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })

	return []caller{
		&httpCaller{base: "http://" + haddr, c: &http.Client{Timeout: 5 * time.Second}},
		&streamCaller{c: sc},
	}
}

func TestAdapterParity(t *testing.T) {
	cl := newParityNode(t)
	callers := startAdapters(t, cl)

	cases := []struct {
		name string
		call func(c caller, i int) outcome
		want func(o outcome) string // non-empty = failure description
	}{
		{
			name: "predict ok",
			call: func(c caller, i int) outcome { return c.predict("fixed", []float64{float64(10 + i)}) },
			want: func(o outcome) string {
				if o.Code != gateway.CodeOK || o.Label != 1 || o.Degraded || o.UsedDefault {
					return "want label 1 from m0 via static:0"
				}
				return ""
			},
		},
		{
			name: "predict empty input",
			call: func(c caller, i int) outcome { return c.predict("fixed", nil) },
			want: func(o outcome) string {
				if o.Code != gateway.CodeBadRequest || o.Msg != "empty input" {
					return `want bad_request "empty input"`
				}
				return ""
			},
		},
		{
			name: "predict unknown app",
			call: func(c caller, i int) outcome { return c.predict("nope", []float64{1}) },
			want: func(o outcome) string {
				if o.Code != gateway.CodeNotFound || o.Msg != `unknown app "nope"` {
					return `want not_found unknown app "nope"`
				}
				return ""
			},
		},
		{
			name: "predict shed",
			call: func(c caller, i int) outcome { return c.predict("gated", []float64{float64(20 + i)}) },
			want: func(o outcome) string {
				if o.Code != gateway.CodeShed {
					return "want shed"
				}
				return ""
			},
		},
		{
			name: "predict degraded",
			call: func(c caller, i int) outcome { return c.predict("soft", []float64{float64(30 + i)}) },
			want: func(o outcome) string {
				if o.Code != gateway.CodeOK || !o.Degraded || !o.UsedDefault || o.Label != 7 {
					return "want degraded default label 7"
				}
				return ""
			},
		},
		{
			name: "feedback ok",
			call: func(c caller, i int) outcome { return c.feedback("fixed", []float64{float64(40 + i)}, 1) },
			want: func(o outcome) string {
				if o.Code != gateway.CodeOK {
					return "want ok"
				}
				return ""
			},
		},
		{
			name: "feedback empty input",
			call: func(c caller, i int) outcome { return c.feedback("fixed", nil, 1) },
			want: func(o outcome) string {
				if o.Code != gateway.CodeBadRequest || o.Msg != "empty input" {
					return `want bad_request "empty input"`
				}
				return ""
			},
		},
		{
			name: "feedback unknown app",
			call: func(c caller, i int) outcome { return c.feedback("nope", []float64{1}, 1) },
			want: func(o outcome) string {
				if o.Code != gateway.CodeNotFound || o.Msg != `unknown app "nope"` {
					return `want not_found unknown app "nope"`
				}
				return ""
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			outs := make([]outcome, len(callers))
			for i, c := range callers {
				outs[i] = tc.call(c, i)
				if why := tc.want(outs[i]); why != "" {
					t.Fatalf("%s: got %+v, %s", c.name(), outs[i], why)
				}
			}
			// Pairwise semantic equality across adapters. Error messages
			// must match verbatim; shed messages come from the same core
			// error either way.
			for i := 1; i < len(outs); i++ {
				if outs[i] != outs[0] {
					t.Fatalf("%s diverges from %s:\n  %+v\nvs\n  %+v",
						callers[i].name(), callers[0].name(), outs[i], outs[0])
				}
			}
		})
	}
}

// TestAdapterShutdownDrain: Close during an in-flight predict still
// yields that predict's response on every adapter — the graceful-drain
// contract.
func TestAdapterShutdownDrain(t *testing.T) {
	for _, proto := range []string{"http", "stream"} {
		t.Run(proto, func(t *testing.T) {
			cl := newParityNode(t)
			gw := gateway.New(cl)

			var addr string
			var closeSrv func() error
			switch proto {
			case "http":
				s := httpjson.New(gw)
				a, err := s.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				addr, closeSrv = a, s.Close
			case "stream":
				s := stream.New(gw)
				a, err := s.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				addr, closeSrv = a, s.Close
			}

			var c caller
			switch proto {
			case "http":
				c = &httpCaller{base: "http://" + addr, c: &http.Client{Timeout: 5 * time.Second}}
			case "stream":
				sc, err := stream.Dial(addr, time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer sc.Close()
				c = &streamCaller{c: sc}
			}

			// The "warm" app sits on the 20ms slow model: plenty of time to
			// initiate Close while the predict is in flight.
			var wg sync.WaitGroup
			var got outcome
			wg.Add(1)
			go func() {
				defer wg.Done()
				got = c.predict("warm", []float64{99})
			}()
			time.Sleep(5 * time.Millisecond)
			if err := closeSrv(); err != nil {
				t.Fatalf("close: %v", err)
			}
			wg.Wait()
			if got.Code != gateway.CodeOK || got.Label != 5 {
				t.Fatalf("in-flight predict during Close = %+v, want label 5", got)
			}
		})
	}
}

// TestRegisterOverHTTPServesOverStream: both adapters bind one gateway
// core, so an app registered over REST is served at once on the binary
// protocol.
func TestRegisterOverHTTPServesOverStream(t *testing.T) {
	callers := startAdapters(t, newParityNode(t))
	hc, sc := callers[0].(*httpCaller), callers[1]
	if o := hc.post("/api/v1/admin/apps", gateway.RegisterAppRequest{
		Name: "rt", Models: []string{"m0"}, Policy: "static:0",
	}, nil); o.Code != gateway.CodeOK {
		t.Fatalf("register over http = %+v", o)
	}
	if o := sc.predict("rt", []float64{1}); o.Code != gateway.CodeOK || o.Label != 1 {
		t.Fatalf("predict on rt over stream = %+v, want label 1 from m0", o)
	}
}
