package core

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"time"

	"clipper/internal/batching"
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
	// SLO bounds the reply, counted from the request's arrival (§5.2.2): the
	// wait for selected models ends SLO/reserveDiv before it and Combine runs
	// with whatever predictions have arrived. Zero waits for all selected
	// models (no mitigation).
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
	// Latency is the prediction latency, counted from the request's arrival.
	Latency time.Duration
}

// reserveDiv fixes the reply reserve: the straggler wait ends SLO/reserveDiv
// before arrival + SLO, which is what the timer firing late (up to 1 ms on
// an idle runtime), Combine, the response encode and write (≈ 0.1 ms) and
// the client's own scheduler get: 2 ms at the paper's 20 ms SLO. A tenth
// scales with the SLO, so it is a constant of the law, not a knob.
const reserveDiv = 10

// Application is a registered application within a Clipper instance. Its
// methods are safe for concurrent use.
type Application struct {
	cl  *Clipper
	cfg AppConfig
	// globalKey is the state-store key of the "" context, built once: every
	// context-free request reads it.
	globalKey string
	// scheds[i] is the scheduler of cfg.Models[i], resolved once: the entry
	// survives a Deploy roll-over, which swaps replicas underneath it. all
	// is [0..n).
	scheds []*scheduler
	all    []int

	mu  sync.Mutex // guards rng and per-context state read-modify-write
	rng *rand.Rand

	// Telemetry.
	PredLatency *metrics.Histogram
	Defaults    *metrics.Counter
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
		return nil, errClosed
	}
	apps := *cl.apps.Load()
	if _, dup := apps[cfg.Name]; dup {
		return nil, fmt.Errorf("core: application %q already registered", cfg.Name)
	}
	scheds := make([]*scheduler, len(cfg.Models))
	all := make([]int, len(cfg.Models))
	for i, m := range cfg.Models {
		if scheds[i], all[i] = cl.scheds[m], i; scheds[i] == nil {
			return nil, fmt.Errorf("%w: %q", errUnknownModel, m)
		}
	}
	app := &Application{
		cl:          cl,
		cfg:         cfg,
		globalKey:   "selstate/" + cfg.Name + "/_global",
		scheds:      scheds,
		all:         all,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		PredLatency: metrics.NewHistogram(),
		Defaults:    &metrics.Counter{},
		Feedbacks:   &metrics.Counter{},
		Sheds:       &metrics.Counter{},
		Degrades:    &metrics.Counter{},
	}
	if app.qosEnabled() {
		// Register the app as a tenant on every model it can reach, so
		// the replicas' batch queues arbitrate its traffic by weight.
		for _, sc := range scheds {
			sc.setTenantWeight(cfg.Name, app.weight())
		}
	}
	apps = maps.Clone(apps)
	apps[cfg.Name] = app
	cl.apps.Store(&apps)
	return app, nil
}

// App returns a registered application by name.
func (cl *Clipper) App(name string) (*Application, bool) {
	app, ok := (*cl.apps.Load())[name]
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
	return a.PredictAt(ctx, contextID, x, time.Time{})
}

// PredictAt is PredictContext for a request that arrived at arrived — where
// its frame was read; zero means now. With an SLO the request has one
// deadline, arrived + SLO − SLO/reserveDiv: admission compares the predicted
// cost with what is left of it, and every wait for a model — both stages of
// a cascade — ends there.
func (a *Application) PredictAt(ctx context.Context, contextID string, x []float64, arrived time.Time) (Response, error) {
	if arrived.IsZero() {
		arrived = time.Now()
	}
	var deadline time.Time
	if a.cfg.SLO > 0 {
		deadline = arrived.Add(a.cfg.SLO - a.cfg.SLO/reserveDiv)
	}
	if resp, shed, err := a.admit(contextID, x, arrived, deadline); shed {
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
		firstPreds := a.gather(ctx, c.First, x, deadline)
		pred, conf := selection.StageConfidence(firstPreds)
		if conf >= c.Threshold && pred.Label >= 0 {
			resp := Response{
				Label:      pred.Label,
				Confidence: conf,
				Stage:      1,
				Selected:   len(c.First),
			}
			resp.Latency = time.Since(arrived)
			a.PredLatency.ObserveDuration(resp.Latency)
			return resp, nil
		}
		stage = 2
	}

	a.mu.Lock()
	u := a.rng.Float64()
	a.mu.Unlock()
	indices := a.cfg.Policy.Select(state, u)

	preds := a.gather(ctx, indices, x, deadline)
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
	if a.cfg.ConfidenceThreshold > 0 && conf < a.cfg.ConfidenceThreshold {
		resp.Label = a.cfg.DefaultLabel
		resp.UsedDefault = true
		a.Defaults.Inc()
	}
	resp.Latency = time.Since(arrived)
	a.PredLatency.ObserveDuration(resp.Latency)
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
	preds := a.gather(ctx, a.all, x, time.Time{})

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

// pendingFetch is one selected model whose prediction the synchronous cache
// pass could not resolve: this request holds the single-flight leadership
// for key (leader), follows another request's in-flight fetch (follower), or
// caching is disabled (neither).
type pendingFetch struct {
	idx      int
	key      cache.Key
	leader   bool
	follower bool
}

// gather fans the query out to the selected models and collects whatever
// predictions arrive before the deadline. The result is indexed by policy
// model index; unselected and straggling models are nil. A zero deadline
// waits for every selected model (subject to ctx).
//
// A synchronous cache pass runs first, so the common cache-hit path resolves
// every model inline. Every miss is then a countdown (fanIn): each is started
// on its model's scheduler with a completion, each follower registered with
// the cache, and this goroutine parks once, to be woken by the last arrival,
// the deadline or ctx — no goroutine, no channel and no timer is made per
// call. Starting never blocks: a model whose sub-queue is full is missing at
// once, its claim aborted. The deadline withdraws nothing: a straggler still
// completes and fills the cache for the feedback join. ctx does: what is
// still queued is cancelled and its cache claim aborted.
func (a *Application) gather(ctx context.Context, indices []int, x []float64, deadline time.Time) []*container.Prediction {
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
	var buf [4]pendingFetch // on the stack for the usual ensemble
	pending := buf[:0]
	for _, idx := range indices {
		if idx < 0 || idx >= len(a.cfg.Models) {
			continue
		}
		if cl.cache == nil {
			pending = append(pending, pendingFetch{idx: idx})
			continue
		}
		key := cache.Key{Model: a.cfg.Models[idx], Version: int(a.scheds[idx].version.Load()), QueryID: qid}
		val, hit, leader, follower := cl.cache.Request(key)
		if hit {
			keep(idx, val)
			continue
		}
		pending = append(pending, pendingFetch{idx: idx, key: key, leader: leader, follower: follower})
	}
	if len(pending) == 0 {
		return preds
	}

	w := wakerPool.Get().(*waker)
	fan := &fanIn{a: a, wake: w.ch, preds: preds, vals: vals, left: len(pending), fetches: make([]fetch, len(pending))}
	tenant := a.tenant()
	for i, pf := range pending {
		f := &fan.fetches[i]
		f.pendingFetch, f.fan = pf, fan
		if f.follower {
			cl.cache.Follow(f.key, f.followed)
		} else {
			a.scheds[f.idx].start(ctx, tenant, &f.req, x, f.done)
		}
	}
	fan.wait(ctx, w, deadline)
	return preds
}

// fetch is one pendingFetch in flight: the storage its submission waits in
// and the completions that carry its outcome into the fan-in.
type fetch struct {
	pendingFetch
	fan *fanIn
	req batching.Request
}

// done is the fetch's batching completion (it runs on the goroutine that
// finished the batch and does not block). It pays the cache what the fetch
// owes it first — a leader Puts the prediction or Aborts its claim — then
// arrives.
func (f *fetch) done(res batching.Result) {
	if c := f.fan.a.cl.cache; f.leader {
		if res.Err != nil {
			c.Abort(f.key)
		} else {
			// Cache a private copy of the scores: predictions decoded from
			// a container RPC share one batch-wide backing array, and a
			// cached entry must not pin the whole batch's scores for its
			// lifetime.
			stored := res.Pred
			if len(stored.Scores) > 0 {
				stored.Scores = append([]float64(nil), stored.Scores...)
			}
			c.Put(f.key, stored)
		}
	}
	f.fan.arrive(f.idx, res.Pred, res.Err == nil)
}

// followed is the fetch's cache completion, fired by the leader it follows.
func (f *fetch) followed(p container.Prediction, ok bool) { f.fan.arrive(f.idx, p, ok) }

// fanIn is one gather's countdown of completions. Arrivals write the reply's
// slices under mu until the worker closes it; a later arrival still paid the
// cache in settle but never touches what the reply was built from.
type fanIn struct {
	a       *Application
	fetches []fetch
	wake    chan struct{} // the worker's waker; sent to under mu, at most once

	mu     sync.Mutex
	preds  []*container.Prediction
	vals   []container.Prediction
	left   int // arrivals still owed
	closed bool
}

func (fan *fanIn) arrive(idx int, p container.Prediction, ok bool) {
	fan.mu.Lock()
	if !fan.closed {
		if ok {
			fan.vals = append(fan.vals, p)
			fan.preds[idx] = &fan.vals[len(fan.vals)-1]
		}
		if fan.left--; fan.left == 0 {
			fan.wake <- struct{}{} // buffered; under mu so a closed fan-in never signals a recycled waker
		}
	}
	fan.mu.Unlock()
}

// waker is what a gathering worker parks on: the channel the last arrival
// signals and the timer that ends the wait at the deadline. Pooled, so the
// wait allocates nothing; a waker is pooled stopped and drained.
type waker struct {
	ch    chan struct{}
	timer *time.Timer
}

var wakerPool = sync.Pool{
	New: func() any {
		t := time.NewTimer(time.Hour)
		t.Stop()
		return &waker{ch: make(chan struct{}, 1), timer: t}
	},
}

// wait parks the worker until the last arrival, the deadline (zero: none) or
// ctx. Woken by the last arrival it returns at once: no arrival can follow,
// so there is nothing to close, and the worker does not queue on mu behind
// the arrival that woke it. Otherwise it closes the fan-in. Only ctx
// withdraws what is still queued.
func (fan *fanIn) wait(ctx context.Context, w *waker, deadline time.Time) {
	var expired <-chan time.Time
	if !deadline.IsZero() {
		w.timer.Reset(time.Until(deadline)) // already spent: fires at once
		expired = w.timer.C
	}
	cancelled := false
	select {
	case <-w.ch:
		w.timer.Stop()
		wakerPool.Put(w)
		return
	case <-expired:
	case <-ctx.Done():
		cancelled = true
	}
	w.timer.Stop()
	fan.mu.Lock()
	fan.closed = true
	fan.mu.Unlock()
	select {
	case <-w.ch: // the last arrival raced the deadline
	default:
	}
	wakerPool.Put(w)
	if cancelled {
		for i := range fan.fetches {
			if f := &fan.fetches[i]; f.req.Cancel() && f.leader {
				fan.a.cl.cache.Abort(f.key)
			}
		}
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
