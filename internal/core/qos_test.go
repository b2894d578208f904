package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"clipper/internal/selection"
)

// slowApp registers an app with the given shed policy over one 20ms
// model. A second, ungated app on the same model runs one unhurried
// prediction first (SLO 0: no straggler deadline), which warms the
// shared service EWMA and caches the model's answer for x=[1]. The queue
// delivers a batch's Results before it feeds the load model, so the warm
// predict can return while the estimate is still cold (a cold system
// admits): slowApp waits for that batch to finish its bookkeeping before
// registering the gated app. From then on the gated app's every prediction is predicted to cost
// ~20ms against its 1ms SLO.
func slowApp(t *testing.T, shed ShedPolicy) (*Clipper, *Application) {
	t.Helper()
	return slowAppSLO(t, shed, time.Millisecond)
}

// slowAppSLO is slowApp with the gated app's SLO chosen by the caller.
func slowAppSLO(t *testing.T, shed ShedPolicy, slo time.Duration) (*Clipper, *Application) {
	t.Helper()
	cl := newClipperWithModels(t, &stubModel{name: "slow", label: 5, delay: 20 * time.Millisecond})
	warm, err := cl.RegisterApp(AppConfig{
		Name: "warm", Models: []string{"slow"}, Policy: selection.NewStatic(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := warm.Predict(context.Background(), []float64{1}); err != nil || resp.Label != 5 {
		t.Fatalf("warm predict = %+v, %v; want label 5", resp, err)
	}
	waitIdle(t, cl.ReplicaQueues("slow")[0], 1)
	app, err := cl.RegisterApp(AppConfig{
		Name: "app", Models: []string{"slow"}, Policy: selection.NewStatic(0),
		SLO: slo, Shed: shed, DefaultLabel: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, app
}

func TestAdmitShedReject(t *testing.T) {
	_, app := slowApp(t, ShedReject)
	_, err := app.Predict(context.Background(), []float64{2})
	if !errors.Is(err, ErrSLOShed) {
		t.Fatalf("warm predict err = %v, want ErrSLOShed", err)
	}
	if got := app.Sheds.Value(); got != 1 {
		t.Fatalf("Sheds = %d, want 1", got)
	}
	if got := app.Degrades.Value(); got != 0 {
		t.Fatalf("Degrades = %d, want 0 under ShedReject", got)
	}
}

func TestAdmitShedDegrade(t *testing.T) {
	_, app := slowApp(t, ShedDegrade)

	// The cold predict cached the model's answer for x=[1]: a degraded
	// repeat is served from that stale entry, not the default label.
	resp, err := app.Predict(context.Background(), []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.UsedDefault || resp.Label != 5 {
		t.Fatalf("degraded cached predict = %+v, want Degraded stale-cache label 5", resp)
	}

	// An uncached query degrades all the way to the default label.
	resp, err = app.Predict(context.Background(), []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || !resp.UsedDefault || resp.Label != 9 {
		t.Fatalf("degraded uncached predict = %+v, want default label 9", resp)
	}

	if got := app.Degrades.Value(); got != 2 {
		t.Fatalf("Degrades = %d, want 2", got)
	}
	if got := app.Sheds.Value(); got != 0 {
		t.Fatalf("Sheds = %d, want 0 under ShedDegrade", got)
	}
	if got := app.Defaults.Value(); got != 1 {
		t.Fatalf("Defaults = %d, want 1 (only the uncached degrade)", got)
	}
}

// TestShedNoneNeverGates: the default policy serves every query
// best-effort no matter how badly the estimate busts the SLO — the
// paper-experiment configuration must be untouched by the QoS layer.
// (The 1ms SLO still bounds straggler waiting, so responses render at
// the deadline; the point is that none are shed or degraded.)
func TestShedNoneNeverGates(t *testing.T) {
	_, app := slowApp(t, ShedNone)
	for i := 0; i < 3; i++ {
		resp, err := app.Predict(context.Background(), []float64{float64(10 + i)})
		if err != nil || resp.Degraded {
			t.Fatalf("predict %d = %+v, %v; want best-effort service", i, resp, err)
		}
	}
	if app.Sheds.Value() != 0 || app.Degrades.Value() != 0 {
		t.Fatalf("ShedNone counted sheds=%d degrades=%d", app.Sheds.Value(), app.Degrades.Value())
	}
}

// TestAppStatuses: the admin snapshot carries the QoS configuration and
// the live counters.
func TestAppStatuses(t *testing.T) {
	cl, app := slowApp(t, ShedReject)
	if _, err := app.Predict(context.Background(), []float64{2}); !errors.Is(err, ErrSLOShed) {
		t.Fatalf("err = %v, want ErrSLOShed", err)
	}

	sts := cl.AppStatuses()
	st, ok := sts["app"]
	if !ok {
		t.Fatalf("AppStatuses missing app: %v", sts)
	}
	if !st.QoS || st.ShedPolicy != "reject" || st.SLOMillis != 1 {
		t.Fatalf("status = %+v, want QoS reject with 1ms SLO", st)
	}
	if st.Sheds != 1 {
		t.Fatalf("status sheds = %d, want 1", st.Sheds)
	}
	if warm, ok := sts["warm"]; !ok || warm.QoS || warm.Predictions != 1 {
		t.Fatalf("warm app status = %+v, %v; want non-QoS with 1 prediction", warm, ok)
	}
}

func TestParseShedPolicy(t *testing.T) {
	for in, want := range map[string]ShedPolicy{
		"": ShedNone, "none": ShedNone, "reject": ShedReject, "degrade": ShedDegrade,
	} {
		got, err := ParseShedPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseShedPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseShedPolicy("drop"); err == nil {
		t.Error("ParseShedPolicy accepted an unknown policy")
	}
}
