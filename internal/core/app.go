package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"clipper/internal/cache"
	"clipper/internal/container"
	"clipper/internal/metrics"
	"clipper/internal/selection"
)

// AppConfig declares an application: a set of candidate models, a
// selection policy over them, and its latency objective.
type AppConfig struct {
	// Name identifies the application, e.g. "object-recognition".
	Name string
	// Models lists the deployed model names the policy selects among.
	// Model i in this slice is model index i to the policy.
	Models []string
	// Policy selects and combines model predictions; nil selects Exp4.
	Policy selection.Policy
	// SLO is the prediction latency deadline for straggler mitigation
	// (§5.2.2): at the deadline, Combine runs with whatever predictions
	// have arrived. Zero waits for all selected models (no mitigation).
	SLO time.Duration
	// ConfidenceThreshold enables robust predictions (§5.2.1): below it,
	// the response carries UsedDefault=true and DefaultLabel. Zero
	// disables thresholding.
	ConfidenceThreshold float64
	// DefaultLabel is the application's sensible default action.
	DefaultLabel int
	// Cascade optionally enables two-stage serving (model composition, a
	// direction the paper's introduction motivates): the First models are
	// queried alone, and only when their stage confidence falls below
	// Threshold does the query escalate to the policy's full selection.
	Cascade *CascadeConfig
	// Seed drives the policy's selection randomness.
	Seed int64

	// Weight is the application's fair-batching share when multiple
	// tenants compete for a replica's batch queue (weighted deficit
	// round-robin; see internal/batching). Zero selects 1. Weights — and
	// tenant tagging itself — engage only when the application opts into
	// QoS by setting a nonzero Weight or a Shed policy; apps that set
	// neither share the "" default tenant, which alone is plain FIFO —
	// what the paper experiments pin.
	Weight int
	// Shed selects the SLO admission policy (qos.go): ShedNone (default)
	// admits every query; ShedReject refuses queries whose predicted
	// completion would bust SLO; ShedDegrade answers them from stale
	// cache entries or the default label instead (§5.2.2 fallback
	// semantics). Requires a positive SLO to have any effect.
	Shed ShedPolicy
}

// CascadeConfig parameterizes two-stage cascade serving.
type CascadeConfig struct {
	// First lists the policy model indices of the cheap first stage.
	First []int
	// Threshold is the stage-1 confidence at or above which the cascade
	// answers without escalating.
	Threshold float64
}

// Response is the answer to one prediction query.
type Response struct {
	// Label is the final predicted class (the default label when
	// UsedDefault).
	Label int
	// Stage is 1 when a cascade answered from its cheap first stage, 2
	// when it escalated, and 0 for non-cascade serving.
	Stage int
	// Confidence is the policy's confidence estimate in [0,1].
	Confidence float64
	// UsedDefault reports that confidence fell below the application's
	// threshold and the default action was substituted.
	UsedDefault bool
	// Selected is how many models the policy queried.
	Selected int
	// Missing is how many selected models missed the latency deadline
	// (their predictions were dropped by straggler mitigation).
	Missing int
	// Degraded reports that the SLO admission gate predicted a deadline
	// miss and served this response from stale cache entries or the
	// default label without querying any model (ShedDegrade).
	Degraded bool
	// Latency is the end-to-end prediction latency.
	Latency time.Duration
}

// Application is a registered application within a Clipper instance. Its
// methods are safe for concurrent use.
type Application struct {
	cl  *Clipper
	cfg AppConfig
	// globalKey is the state-store key of the "" context, built once: every
	// context-free request reads it.
	globalKey string

	mu  sync.Mutex // guards rng and per-context state read-modify-write
	rng *rand.Rand

	// Telemetry.
	PredLatency *metrics.Histogram
	Throughput  *metrics.Meter
	Defaults    *metrics.Counter
	MissingPct  *metrics.Histogram // % of ensemble missing per query
	Feedbacks   *metrics.Counter
	Sheds       *metrics.Counter // queries rejected by the SLO admission gate
	Degrades    *metrics.Counter // queries degraded by the SLO admission gate
}

// RegisterApp creates an application over already-deployed models.
func (cl *Clipper) RegisterApp(cfg AppConfig) (*Application, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("core: application needs a name")
	}
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("core: application %q needs at least one model", cfg.Name)
	}
	if cfg.Policy == nil {
		cfg.Policy = selection.NewExp4(0)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil, ErrClosed
	}
	if _, dup := cl.apps[cfg.Name]; dup {
		return nil, fmt.Errorf("core: application %q already registered", cfg.Name)
	}
	for _, m := range cfg.Models {
		if _, ok := cl.scheds[m]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownModel, m)
		}
	}
	app := &Application{
		cl:          cl,
		cfg:         cfg,
		globalKey:   "selstate/" + cfg.Name + "/_global",
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		PredLatency: metrics.NewHistogram(),
		Throughput:  metrics.NewMeter(),
		Defaults:    &metrics.Counter{},
		MissingPct:  metrics.NewHistogram(),
		Feedbacks:   &metrics.Counter{},
		Sheds:       &metrics.Counter{},
		Degrades:    &metrics.Counter{},
	}
	if app.qosEnabled() {
		// Register the app as a tenant on every model it can reach, so
		// the replicas' batch queues arbitrate its traffic by weight.
		for _, m := range cfg.Models {
			cl.scheds[m].setTenantWeight(cfg.Name, app.weight())
		}
	}
	cl.apps[cfg.Name] = app
	return app, nil
}

// App returns a registered application by name.
func (cl *Clipper) App(name string) (*Application, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	app, ok := cl.apps[name]
	return app, ok
}

// Name returns the application's name.
func (a *Application) Name() string { return a.cfg.Name }

// ModelNames returns the application's candidate models in policy index
// order.
func (a *Application) ModelNames() []string {
	return append([]string(nil), a.cfg.Models...)
}

// Predict renders a prediction for x using the global ("" ) context.
func (a *Application) Predict(ctx context.Context, x []float64) (Response, error) {
	return a.PredictContext(ctx, "", x)
}

// PredictContext renders a prediction under a named selection context
// (user, session, dialect — paper §5.3). Contexts have independent
// selection state persisted in the state store.
func (a *Application) PredictContext(ctx context.Context, contextID string, x []float64) (Response, error) {
	start := time.Now()
	if resp, shed, err := a.admit(contextID, x, start); shed {
		return resp, err
	}
	state, err := a.loadState(contextID)
	if err != nil {
		return Response{}, err
	}

	// Cascade fast path: answer from the cheap first stage when it is
	// confident enough.
	stage := 0
	if c := a.cfg.Cascade; c != nil && len(c.First) > 0 {
		firstPreds := a.gather(ctx, c.First, x, a.cfg.SLO)
		pred, conf := selection.StageConfidence(firstPreds)
		if conf >= c.Threshold && pred.Label >= 0 {
			resp := Response{
				Label:      pred.Label,
				Confidence: conf,
				Stage:      1,
				Selected:   len(c.First),
			}
			resp.Latency = time.Since(start)
			a.PredLatency.ObserveDuration(resp.Latency)
			a.Throughput.Mark(1)
			return resp, nil
		}
		stage = 2
	}

	a.mu.Lock()
	u := a.rng.Float64()
	a.mu.Unlock()
	indices := a.cfg.Policy.Select(state, u)

	preds := a.gather(ctx, indices, x, a.cfg.SLO)
	final, conf := a.cfg.Policy.Combine(state, preds)

	resp := Response{
		Label:      final.Label,
		Confidence: conf,
		Stage:      stage,
		Selected:   len(indices),
	}
	for _, i := range indices {
		if preds[i] == nil {
			resp.Missing++
		}
	}
	if len(indices) > 0 {
		a.MissingPct.Observe(100 * float64(resp.Missing) / float64(len(indices)))
	}
	if a.cfg.ConfidenceThreshold > 0 && conf < a.cfg.ConfidenceThreshold {
		resp.Label = a.cfg.DefaultLabel
		resp.UsedDefault = true
		a.Defaults.Inc()
	}
	resp.Latency = time.Since(start)
	a.PredLatency.ObserveDuration(resp.Latency)
	a.Throughput.Mark(1)
	return resp, nil
}

// Feedback joins the true label for x with the models' predictions
// (through the cache) and updates the global context's selection state.
func (a *Application) Feedback(ctx context.Context, x []float64, label int) error {
	return a.FeedbackContext(ctx, "", x, label)
}

// FeedbackContext is Feedback under a named selection context.
func (a *Application) FeedbackContext(ctx context.Context, contextID string, x []float64, label int) error {
	// The feedback join evaluates every candidate model on x. The
	// prediction cache makes this cheap when feedback arrives shortly
	// after the prediction was served (§4.2).
	indices := make([]int, len(a.cfg.Models))
	for i := range indices {
		indices[i] = i
	}
	preds := a.gather(ctx, indices, x, 0)

	a.mu.Lock()
	defer a.mu.Unlock()
	state, err := a.loadStateLocked(contextID)
	if err != nil {
		return err
	}
	state = a.cfg.Policy.Observe(state, label, preds)
	if err := a.storeStateLocked(contextID, state); err != nil {
		return err
	}
	a.Feedbacks.Inc()
	return nil
}

// pendingFetch is one selected model whose prediction could not be
// resolved synchronously from the cache: either this goroutine holds the
// single-flight leadership for the key (leader), must wait for another
// leader's in-flight fetch (wait), or caching is disabled (cached=false).
type pendingFetch struct {
	idx    int
	model  string
	key    cache.Key
	leader bool
	wait   <-chan container.Prediction
	cached bool
}

// gather fans the query out to the selected models and collects whatever
// predictions arrive before the deadline. The result is indexed by policy
// model index; unselected and straggling models are nil. deadline 0 waits
// for every selected model (subject to ctx).
//
// A synchronous cache pass runs first, so the common cache-hit path
// resolves every model inline: no goroutine, no channel, no timer. Only
// misses and single-flight followers go async — and a lone miss with no
// straggler deadline completes inline too.
func (a *Application) gather(ctx context.Context, indices []int, x []float64, deadline time.Duration) []*container.Prediction {
	preds := make([]*container.Prediction, len(a.cfg.Models))
	if len(indices) == 0 {
		return preds
	}
	// One backing array per call for the predictions preds points at
	// (capacity fixed up front, so the pointers stay valid).
	vals := make([]container.Prediction, 0, len(indices))
	keep := func(idx int, p container.Prediction) {
		vals = append(vals, p)
		preds[idx] = &vals[len(vals)-1]
	}
	cl := a.cl
	var qid uint64
	if cl.cache != nil {
		qid = cache.HashQuery(x) // hash depends only on x: once per query, not per model
	}
	var pending []pendingFetch
	for _, idx := range indices {
		if idx < 0 || idx >= len(a.cfg.Models) {
			continue
		}
		model := a.cfg.Models[idx]
		if cl.cache == nil {
			pending = append(pending, pendingFetch{idx: idx, model: model})
			continue
		}
		key := cache.Key{Model: model, Version: cl.modelVersion(model), QueryID: qid}
		val, hit, leader, wait := cl.cache.Request(key)
		if hit {
			keep(idx, val)
			continue
		}
		pending = append(pending, pendingFetch{
			idx: idx, model: model, key: key, leader: leader, wait: wait, cached: true,
		})
	}
	if len(pending) == 0 {
		return preds
	}
	if len(pending) == 1 && deadline <= 0 {
		if p, ok := a.completeFetch(ctx, x, pending[0]); ok {
			keep(pending[0].idx, p)
		}
		return preds
	}

	type arrival struct {
		index int
		pred  container.Prediction
		ok    bool
	}
	arrivals := make(chan arrival, len(pending))
	for _, f := range pending {
		go func(f pendingFetch) {
			p, ok := a.completeFetch(ctx, x, f)
			arrivals <- arrival{index: f.idx, pred: p, ok: ok}
		}(f)
	}

	var timeout <-chan time.Time
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		timeout = t.C
	}
	for received := 0; received < len(pending); received++ {
		select {
		case arr := <-arrivals:
			if arr.ok {
				keep(arr.index, arr.pred)
			}
		case <-timeout:
			// Straggler deadline: combine with what we have. The
			// in-flight goroutines still complete and populate the
			// cache for the feedback join.
			return preds
		case <-ctx.Done():
			return preds
		}
	}
	return preds
}

// completeFetch renders one model's prediction for x through its batching
// queue, completing (or aborting) the single-flight cache claim made by
// gather's synchronous pass.
func (a *Application) completeFetch(ctx context.Context, x []float64, f pendingFetch) (container.Prediction, bool) {
	cl := a.cl
	if !f.cached {
		p, err := cl.SubmitModelTenant(ctx, f.model, a.tenant(), x)
		return p, err == nil
	}
	if f.leader {
		p, err := cl.SubmitModelTenant(ctx, f.model, a.tenant(), x)
		if err != nil {
			cl.cache.Abort(f.key)
			return container.Prediction{}, false
		}
		// Cache a private copy of the scores: predictions decoded from a
		// container RPC share one batch-wide backing array, and a cached
		// entry must not pin the whole batch's scores for its lifetime.
		stored := p
		if len(p.Scores) > 0 {
			stored.Scores = append([]float64(nil), p.Scores...)
		}
		cl.cache.Put(f.key, stored)
		return p, true
	}
	select {
	case p, ok := <-f.wait:
		return p, ok
	case <-ctx.Done():
		return container.Prediction{}, false
	}
}

// loadState fetches (or initializes) the selection state for a context.
func (a *Application) loadState(contextID string) (selection.State, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.loadStateLocked(contextID)
}

func (a *Application) loadStateLocked(contextID string) (selection.State, error) {
	raw, ok, err := a.cl.store.Get(a.stateKey(contextID))
	if err != nil {
		return selection.State{}, err
	}
	if !ok {
		return a.cfg.Policy.Init(len(a.cfg.Models)), nil
	}
	return selection.UnmarshalState(raw)
}

func (a *Application) storeStateLocked(contextID string, s selection.State) error {
	return a.cl.store.Set(a.stateKey(contextID), s.Marshal())
}

// State exposes the current selection state of a context (for experiments
// and admin inspection).
func (a *Application) State(contextID string) (selection.State, error) {
	return a.loadState(contextID)
}

func (a *Application) stateKey(contextID string) string {
	if contextID == "" {
		return a.globalKey
	}
	return "selstate/" + a.cfg.Name + "/" + contextID
}
