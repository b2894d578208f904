package gateway

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"clipper/internal/batching"
	"clipper/internal/container"
	"clipper/internal/core"
)

// The wire-facing request/response types live here, JSON tags included,
// so httpjson serves them directly and the framed adapters reuse the
// same shapes for their JSON-bodied operations — one schema, three
// transports.

// PredictRequest asks for one prediction.
type PredictRequest struct {
	// App names the registered application.
	App string `json:"app"`
	// Context optionally names the selection context (user/session).
	Context string `json:"context,omitempty"`
	// Input is the dense feature vector.
	Input []float64 `json:"input"`
	// Arrived is when the adapter read the request off its transport; the
	// application's SLO counts from it. Zero means now.
	Arrived time.Time `json:"-"`
}

// PredictResult is one prediction outcome, transport-neutral.
type PredictResult struct {
	Label       int
	Confidence  float64
	UsedDefault bool
	Missing     int
	Degraded    bool
	Latency     time.Duration
}

// FeedbackRequest reports ground truth for an earlier prediction.
type FeedbackRequest struct {
	App     string    `json:"app"`
	Context string    `json:"context,omitempty"`
	Input   []float64 `json:"input"`
	Label   int       `json:"label"`
}

// BatchPredictRequest asks for many predictions in one call.
type BatchPredictRequest struct {
	App     string      `json:"app"`
	Context string      `json:"context,omitempty"`
	Inputs  [][]float64 `json:"inputs"`
}

// maxBatch bounds BatchPredictRequest.Inputs.
const maxBatch = 4096

// RegisterAppRequest declares an application over deployed models.
type RegisterAppRequest struct {
	// Name is the application name.
	Name string `json:"name"`
	// Models lists deployed model names, in policy index order.
	Models []string `json:"models"`
	// Policy selects the selection policy: "exp3", "exp4", "ucb1",
	// "thompson", "epsilon-greedy" or "static:<index>". Empty selects
	// exp4.
	Policy string `json:"policy,omitempty"`
	// SLOMillis bounds the reply (core.AppConfig.SLO); 0 waits for all models.
	SLOMillis int `json:"slo_ms,omitempty"`
	// ConfidenceThreshold enables robust defaults when positive.
	ConfidenceThreshold float64 `json:"confidence_threshold,omitempty"`
	// DefaultLabel is the robust default action.
	DefaultLabel int `json:"default_label,omitempty"`
	// Weight is the app's fair-batching weight across tenants sharing a
	// replica queue; setting it (or a shed policy) opts the app into
	// multi-tenant QoS. 0 selects 1.
	Weight int `json:"weight,omitempty"`
	// ShedPolicy selects SLO admission control: "none" (default),
	// "reject", or "degrade".
	ShedPolicy string `json:"shed_policy,omitempty"`
}

// AppInfo is one registered application in an AppList.
type AppInfo struct {
	Name   string   `json:"name"`
	Models []string `json:"models"`
}

// DeployRequest dials and deploys a remote model container.
type DeployRequest struct {
	// Addr is the model container's RPC address ("host:port").
	Addr string `json:"addr"`
	// SLOMillis is the batching latency objective; 0 selects 20ms.
	SLOMillis int `json:"slo_ms,omitempty"`
	// BatchTimeoutMicros optionally enables delayed batching.
	BatchTimeoutMicros int `json:"batch_timeout_us,omitempty"`
	// Conns sets the replica's RPC connection count; 0 selects 1 (see
	// "Tuning knobs" in docs/ARCHITECTURE.md).
	Conns int `json:"conns,omitempty"`
	// InFlight pins the dispatch pipeline window; 0 leaves it to be
	// measured at run time (see "Tuning knobs" in docs/ARCHITECTURE.md).
	InFlight int `json:"in_flight,omitempty"`
}

// DeployResponse reports the deployed replica.
type DeployResponse struct {
	Model     string `json:"model"`
	Version   int    `json:"version"`
	ReplicaID string `json:"replica_id"`
}

// Predict runs one prediction through the app's selection policy.
func (b *Bound) Predict(ctx context.Context, req PredictRequest) (res PredictResult, err error) {
	defer b.begin(OpPredict)(&err)
	if len(req.Input) == 0 {
		return res, fail(CodeBadRequest, "empty input")
	}
	app, ok := b.g.cl.App(req.App)
	if !ok {
		return res, fail(CodeNotFound, fmt.Sprintf("unknown app %q", req.App))
	}
	resp, perr := app.PredictAt(ctx, req.Context, req.Input, req.Arrived)
	if perr != nil {
		return res, wrap(perr)
	}
	return fromResponse(resp), nil
}

// PredictBatch runs many predictions; it fails atomically on the first
// invalid input or serving error, matching the HTTP endpoint's
// historical behavior.
func (b *Bound) PredictBatch(ctx context.Context, req BatchPredictRequest) (res []PredictResult, err error) {
	defer b.begin(OpPredictBatch)(&err)
	if len(req.Inputs) == 0 {
		return nil, fail(CodeBadRequest, "empty inputs")
	}
	if len(req.Inputs) > maxBatch {
		return nil, fail(CodeBadRequest, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Inputs), maxBatch))
	}
	app, ok := b.g.cl.App(req.App)
	if !ok {
		return nil, fail(CodeNotFound, fmt.Sprintf("unknown app %q", req.App))
	}
	res = make([]PredictResult, len(req.Inputs))
	for i, x := range req.Inputs {
		if len(x) == 0 {
			return nil, fail(CodeBadRequest, fmt.Sprintf("input %d is empty", i))
		}
		resp, perr := app.PredictContext(ctx, req.Context, x)
		if perr != nil {
			return nil, wrap(perr)
		}
		res[i] = fromResponse(resp)
	}
	return res, nil
}

func fromResponse(r core.Response) PredictResult {
	return PredictResult{
		Label:       r.Label,
		Confidence:  r.Confidence,
		UsedDefault: r.UsedDefault,
		Missing:     r.Missing,
		Degraded:    r.Degraded,
		Latency:     r.Latency,
	}
}

// Feedback reports ground truth to the app's selection policy.
func (b *Bound) Feedback(ctx context.Context, req FeedbackRequest) (err error) {
	defer b.begin(OpFeedback)(&err)
	if len(req.Input) == 0 {
		return fail(CodeBadRequest, "empty input")
	}
	app, ok := b.g.cl.App(req.App)
	if !ok {
		return fail(CodeNotFound, fmt.Sprintf("unknown app %q", req.App))
	}
	return wrap(app.FeedbackContext(ctx, req.Context, req.Input, req.Label))
}

// RegisterApp registers an application at runtime.
func (b *Bound) RegisterApp(req RegisterAppRequest) (err error) {
	defer b.begin(OpRegisterApp)(&err)
	policy, perr := ParsePolicy(req.Policy)
	if perr != nil {
		return fail(CodeBadRequest, perr.Error())
	}
	shed, serr := core.ParseShedPolicy(req.ShedPolicy)
	if serr != nil {
		return fail(CodeBadRequest, serr.Error())
	}
	_, rerr := b.g.cl.RegisterApp(core.AppConfig{
		Name:                req.Name,
		Models:              req.Models,
		Policy:              policy,
		SLO:                 time.Duration(req.SLOMillis) * time.Millisecond,
		ConfidenceThreshold: req.ConfidenceThreshold,
		DefaultLabel:        req.DefaultLabel,
		Weight:              req.Weight,
		Shed:                shed,
	})
	if rerr != nil {
		return fail(CodeConflict, rerr.Error())
	}
	return nil
}

// AppList returns the registered applications, name-sorted.
func (b *Bound) AppList() []AppInfo {
	defer b.begin(opAppList)(nil)
	var out []AppInfo
	for _, name := range b.g.cl.AppNames() {
		app, ok := b.g.cl.App(name)
		if !ok {
			continue
		}
		out = append(out, AppInfo{Name: name, Models: app.ModelNames()})
	}
	return out
}

// ModelList returns the deployed model names, sorted.
func (b *Bound) ModelList() []string {
	defer b.begin(opModelList)(nil)
	models := b.g.cl.Models()
	sort.Strings(models)
	return models
}

// Health reports node liveness (always true once serving).
func (b *Bound) Health() bool {
	defer b.begin(opHealth)(nil)
	return true
}

// Deploy dials a remote model container and deploys it: a newer version
// of a deployed model rolls it over, the same version adds a replica. A
// dial failure maps to CodeBadGateway (the container is unreachable), a
// deploy failure to CodeConflict (e.g. a version older than the deployed
// one) — the two cases operators must tell apart.
func (b *Bound) Deploy(req DeployRequest) (res DeployResponse, err error) {
	defer b.begin(OpDeploy)(&err)
	if req.Addr == "" {
		return res, fail(CodeBadRequest, "addr required")
	}
	remote, derr := container.DialConns(req.Addr, 5*time.Second, req.Conns)
	if derr != nil {
		return res, fail(codeBadGateway, "dialing container: "+derr.Error())
	}
	slo := time.Duration(req.SLOMillis) * time.Millisecond
	if slo <= 0 {
		slo = 20 * time.Millisecond
	}
	qcfg := batching.QueueConfig{
		Controller:   batching.NewAIMD(batching.AIMDConfig{SLO: slo}),
		BatchTimeout: time.Duration(req.BatchTimeoutMicros) * time.Microsecond,
		InFlight:     req.InFlight,
	}
	rep, rerr := b.g.cl.Deploy(remote, func() { remote.Close() }, qcfg)
	if rerr != nil {
		remote.Close()
		return res, fail(CodeConflict, rerr.Error())
	}
	info := remote.Info()
	return DeployResponse{Model: info.Name, Version: info.Version, ReplicaID: rep.ID}, nil
}

// Replicas returns one model's replica statuses.
func (b *Bound) Replicas(model string) map[string]core.ReplicaStatus {
	defer b.begin(opReplicas)(nil)
	return b.g.cl.ReplicaStatuses(model)
}

// AllReplicas returns every model's replica statuses.
func (b *Bound) AllReplicas() map[string]map[string]core.ReplicaStatus {
	defer b.begin(opReplicas)(nil)
	out := map[string]map[string]core.ReplicaStatus{}
	for _, m := range b.g.cl.Models() {
		out[m] = b.g.cl.ReplicaStatuses(m)
	}
	return out
}

// Applications returns every application's QoS/serving snapshot.
func (b *Bound) Applications() map[string]core.AppStatus {
	defer b.begin(opApplications)(nil)
	return b.g.cl.AppStatuses()
}

// SetHealth marks a replica healthy or unhealthy.
func (b *Bound) SetHealth(replica string, healthy bool) (err error) {
	defer b.begin(OpSetHealth)(&err)
	var ok bool
	if healthy {
		ok = b.g.cl.MarkHealthy(replica)
	} else {
		ok = b.g.cl.MarkUnhealthy(replica)
	}
	if !ok {
		return fail(CodeNotFound, "unknown replica "+replica)
	}
	return nil
}

// WriteMetrics renders the node's Prometheus text exposition to w.
func (b *Bound) WriteMetrics(w io.Writer) (err error) {
	defer b.begin(opMetrics)(&err)
	return wrap(b.g.cl.Metrics().WritePrometheus(w))
}
