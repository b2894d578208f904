package core

import (
	"errors"
	"fmt"
	"time"

	"clipper/internal/cache"
	"clipper/internal/container"
	"clipper/internal/metrics"
)

// Multi-tenant QoS (paper §5.2.2 taken to its admission-control
// conclusion): every application that opts in — by setting a fair-
// batching Weight or a Shed policy — becomes a first-class tenant. Its
// queries are tenant-tagged through the scheduler into the replicas'
// weighted-DRR batch queues, and an admission gate in front of every
// prediction compares the system's predicted completion time (the
// queues' live cost estimates) against the app's SLO: a query the system
// already knows it cannot serve in time is rejected or degraded *now*,
// at zero model cost, instead of joining a backlog it will only deepen.

// ShedPolicy selects what the SLO admission gate does with a query whose
// predicted completion time exceeds the application's SLO.
type ShedPolicy int

const (
	// ShedNone disables the admission gate: every query is served
	// best-effort. The default, and the paper-experiment configuration.
	ShedNone ShedPolicy = iota
	// ShedReject refuses doomed queries with ErrSLOShed, pushing
	// backpressure to the caller immediately.
	ShedReject
	// ShedDegrade answers doomed queries without touching the models:
	// from still-cached (possibly stale) per-model predictions when any
	// exist, else the application's default label — the paper's "sensible
	// default" fallback, applied at admission time.
	ShedDegrade
)

// String names the policy for status surfaces and flags.
func (p ShedPolicy) String() string {
	switch p {
	case ShedReject:
		return "reject"
	case ShedDegrade:
		return "degrade"
	default:
		return "none"
	}
}

// ParseShedPolicy parses a shed policy name ("none", "reject",
// "degrade").
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "", "none":
		return ShedNone, nil
	case "reject":
		return ShedReject, nil
	case "degrade":
		return ShedDegrade, nil
	default:
		return 0, fmt.Errorf("core: unknown shed policy %q", s)
	}
}

// ErrSLOShed is returned under ShedReject when the admission gate
// predicts the query cannot complete within the application's SLO.
var ErrSLOShed = errors.New("core: predicted completion exceeds SLO, query shed")

// qosEnabled reports whether the application opted into tenant QoS.
func (a *Application) qosEnabled() bool {
	return a.cfg.Weight > 0 || a.cfg.Shed != ShedNone
}

// weight is the application's effective fair-batching weight.
func (a *Application) weight() int {
	if a.cfg.Weight < 1 {
		return 1
	}
	return a.cfg.Weight
}

// tenant is the tag the application's model submissions carry: its name
// under QoS, "" (the default tenant, FIFO among its sharers) otherwise.
func (a *Application) tenant() string {
	if a.qosEnabled() {
		return a.cfg.Name
	}
	return ""
}

// predictedCost is the admission gate's completion estimate for one more
// query from this application: the worst (highest) per-model minimum
// cost across its candidate models, since the policy may fan out to all
// of them and Combine waits for the slowest. ok is false while every
// model is still cold — a cold system admits.
func (a *Application) predictedCost() (time.Duration, bool) {
	var worst time.Duration
	warm := false
	for _, s := range a.scheds {
		if cost, ok := s.minEstCost(); ok {
			warm = true
			if cost > worst {
				worst = cost
			}
		}
	}
	return worst, warm
}

// admit runs the SLO admission gate against what is left of the request's
// budget: the time from now to deadline (PredictAt's). shed=false means the
// query proceeds to normal serving; shed=true means the gate consumed it,
// and resp/err carry the outcome (a degraded Response, or ErrSLOShed).
func (a *Application) admit(contextID string, x []float64, arrived, deadline time.Time) (resp Response, shed bool, err error) {
	if a.cfg.Shed == ShedNone || a.cfg.SLO <= 0 {
		return Response{}, false, nil
	}
	cost, warm := a.predictedCost()
	if !warm || cost <= time.Until(deadline) {
		return Response{}, false, nil
	}
	if a.cfg.Shed == ShedReject {
		a.Sheds.Inc()
		return Response{}, true, ErrSLOShed
	}
	resp = a.degrade(contextID, x)
	resp.Latency = time.Since(arrived)
	a.Degrades.Inc()
	a.PredLatency.ObserveDuration(resp.Latency)
	return resp, true, nil
}

// degrade serves a query from whatever the prediction cache still holds:
// a non-claiming Fetch per candidate model (never cache.Request — a
// degrade must not take single-flight leadership it will never fulfill),
// combined by the policy when any entry hits, else the default label.
func (a *Application) degrade(contextID string, x []float64) Response {
	resp := Response{Degraded: true, Label: a.cfg.DefaultLabel, UsedDefault: true}
	cl := a.cl
	if cl.cache == nil {
		a.Defaults.Inc()
		return resp
	}
	qid := cache.HashQuery(x)
	preds := make([]*container.Prediction, len(a.cfg.Models))
	hits := 0
	for i, m := range a.cfg.Models {
		key := cache.Key{Model: m, Version: int(a.scheds[i].version.Load()), QueryID: qid}
		if v, ok := cl.cache.Fetch(key); ok {
			v := v
			preds[i] = &v
			hits++
		}
	}
	if hits == 0 {
		a.Defaults.Inc()
		return resp
	}
	state, err := a.loadState(contextID)
	if err != nil {
		a.Defaults.Inc()
		return resp
	}
	final, conf := a.cfg.Policy.Combine(state, preds)
	resp.Label = final.Label
	resp.Confidence = conf
	resp.UsedDefault = false
	if a.cfg.ConfidenceThreshold > 0 && conf < a.cfg.ConfidenceThreshold {
		resp.Label = a.cfg.DefaultLabel
		resp.UsedDefault = true
	}
	if resp.UsedDefault {
		a.Defaults.Inc()
	}
	return resp
}

// AppStatus is one application's QoS and serving snapshot, for the admin
// /applications surface.
type AppStatus struct {
	Name        string   `json:"name"`
	Models      []string `json:"models"`
	SLOMillis   float64  `json:"slo_ms"`
	Weight      int      `json:"weight"`
	ShedPolicy  string   `json:"shed_policy"`
	QoS         bool     `json:"qos"`
	Predictions int64    `json:"predictions"`
	Sheds       int64    `json:"sheds"`
	Degrades    int64    `json:"degrades"`
	Defaults    int64    `json:"defaults"`
	Feedbacks   int64    `json:"feedbacks"`
	P99Millis   float64  `json:"p99_ms"`
}

func (a *Application) status() AppStatus {
	return AppStatus{
		Name:        a.cfg.Name,
		Models:      a.ModelNames(),
		SLOMillis:   float64(a.cfg.SLO) / float64(time.Millisecond),
		Weight:      a.weight(),
		ShedPolicy:  a.cfg.Shed.String(),
		QoS:         a.qosEnabled(),
		Predictions: a.PredLatency.Count(),
		Sheds:       a.Sheds.Value(),
		Degrades:    a.Degrades.Value(),
		Defaults:    a.Defaults.Value(),
		Feedbacks:   a.Feedbacks.Value(),
		P99Millis:   a.PredLatency.P99() * 1e3,
	}
}

// AppStatuses snapshots every registered application, keyed by name.
func (cl *Clipper) AppStatuses() map[string]AppStatus {
	snaps := cl.appSnaps()
	out := make(map[string]AppStatus, len(snaps))
	for _, s := range snaps {
		out[s.Name] = s.AppStatus
	}
	return out
}

// appSnap is one application's read-out: its status and the histogram
// its latency figures come from.
type appSnap struct {
	AppStatus
	latency *metrics.Histogram
}

// appSnaps reads every registered application, in no particular order.
func (cl *Clipper) appSnaps() []appSnap {
	apps := *cl.apps.Load()
	out := make([]appSnap, 0, len(apps))
	for _, a := range apps {
		out = append(out, appSnap{a.status(), a.PredLatency})
	}
	return out
}
