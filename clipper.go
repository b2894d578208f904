// Package clipper is a Go implementation of Clipper, the low-latency
// online prediction serving system of Crankshaw et al. (NSDI 2017).
//
// Clipper interposes between applications and machine-learning models. Its
// model abstraction layer provides a prediction cache, adaptive batching
// tuned to a latency SLO with pipelined dispatch (as many batches in
// flight per replica as do not slow each other down, measured per replica;
// QueueConfig.InFlight pins the number), and a uniform batch-prediction RPC to model containers; its model selection
// layer uses bandit algorithms (Exp3, Exp4) over application feedback to
// select and combine models, estimate confidence, mitigate stragglers,
// and personalize selection per context.
//
// # Quickstart
//
//	cl := clipper.New(clipper.Config{})
//	defer cl.Close()
//
//	// Deploy a model (any container.Predictor) behind an adaptive queue.
//	cl.Deploy(myModel, nil, clipper.QueueConfig{
//	    Controller: clipper.NewAIMD(clipper.AIMDConfig{SLO: 20 * time.Millisecond}),
//	})
//
//	// Register an application over it and predict.
//	app, _ := cl.RegisterApp(clipper.AppConfig{
//	    Name: "demo", Models: []string{"my-model"}, Policy: clipper.NewExp3(0.1),
//	})
//	resp, _ := app.Predict(ctx, features)
//
// See Example_quickstart and the other example_*_test.go programs (go test
// -v -run Example . prints their traces) and docs/ARCHITECTURE.md for the
// request lifecycle, the wire format, and the tuning knobs.
package clipper

import (
	"time"

	"clipper/internal/adapter/httpjson"
	"clipper/internal/batching"
	"clipper/internal/container"
	"clipper/internal/core"
	"clipper/internal/metrics"
	"clipper/internal/selection"
	"clipper/internal/statestore"
)

// Core serving types.
type (
	// Clipper is one serving node; see core.Clipper.
	Clipper = core.Clipper
	// Config parameterizes New.
	Config = core.Config
	// AppConfig declares an application.
	AppConfig = core.AppConfig
	// Application is a registered application handle.
	Application = core.Application
	// Response is a prediction answer.
	Response = core.Response
	// CascadeConfig enables two-stage cascade serving (model
	// composition): cheap models answer confident queries, the rest
	// escalate to the full policy.
	CascadeConfig = core.CascadeConfig
	// SchedulerConfig parameterizes cross-replica dispatch:
	// join-shortest-queue cost routing with optional straggler hedging.
	SchedulerConfig = core.SchedulerConfig
	// HedgeConfig parameterizes hedged dispatch (SchedulerConfig.Hedge).
	HedgeConfig = core.HedgeConfig
	// SchedPolicy selects the dispatch strategy (SchedJSQ or
	// SchedRoundRobin).
	SchedPolicy = core.SchedPolicy
	// SchedulerStats is one model's dispatch/hedge counters.
	SchedulerStats = core.SchedulerStats
	// ShedPolicy selects SLO admission control (AppConfig.Shed):
	// ShedNone, ShedReject, or ShedDegrade.
	ShedPolicy = core.ShedPolicy
	// MetricsRegistry is the node's Prometheus exposition registry
	// (Clipper.Metrics): embedders may Register additional families; the
	// REST server scrapes it at GET /metrics.
	MetricsRegistry = metrics.Registry
	// MetricsSeries is one exposed sample within a registered family.
	MetricsSeries = metrics.Series
	// MetricsLabel is one name="value" pair on a series.
	MetricsLabel = metrics.Label
	// MetricsKind is a Prometheus metric type (TYPE line).
	MetricsKind = metrics.Kind
)

// Prometheus metric kinds for MetricsRegistry.Register.
const (
	MetricsCounter   = metrics.KindCounter
	MetricsGauge     = metrics.KindGauge
	MetricsHistogram = metrics.KindHistogram
	MetricsUntyped   = metrics.KindUntyped
)

// Scheduler policies.
const (
	// SchedJSQ routes each query to the replica with the lowest estimated
	// completion time (the default).
	SchedJSQ = core.SchedJSQ
	// SchedRoundRobin restores blind rotation across replicas.
	SchedRoundRobin = core.SchedRoundRobin
)

// SLO admission (shed) policies for AppConfig.Shed.
const (
	// ShedNone serves every query best-effort (the default).
	ShedNone = core.ShedNone
	// ShedReject refuses queries predicted to bust the SLO with
	// ErrSLOShed.
	ShedReject = core.ShedReject
	// ShedDegrade answers them from stale cache entries or the default
	// label without querying any model.
	ShedDegrade = core.ShedDegrade
)

// ErrSLOShed is returned under ShedReject when the admission gate
// predicts a query cannot complete within the application's SLO.
var ErrSLOShed = core.ErrSLOShed

// Model container types.
type (
	// Predictor is the uniform batch-prediction interface models
	// implement (paper Listing 1).
	Predictor = container.Predictor
	// Prediction is one model output.
	Prediction = container.Prediction
	// ModelInfo describes a deployed model.
	ModelInfo = container.Info
)

// Batching types.
type (
	// QueueConfig parameterizes a replica's batching queue.
	QueueConfig = batching.QueueConfig
	// Controller chooses batch sizes.
	Controller = batching.Controller
	// AIMDConfig parameterizes NewAIMD.
	AIMDConfig = batching.AIMDConfig
)

// Selection types.
type (
	// Policy is the model selection policy interface (paper Listing 2).
	Policy = selection.Policy
)

// Store is the per-context selection-state store interface.
type Store = statestore.Store

// RESTServer is the application-facing HTTP API server.
type RESTServer = httpjson.Server

// New returns a Clipper serving node.
func New(cfg Config) *Clipper { return core.New(cfg) }

// ParseSchedPolicy parses a dispatch policy name ("jsq", "rr",
// "round-robin") for Config.Scheduler.Policy.
func ParseSchedPolicy(s string) (SchedPolicy, error) { return core.ParseSchedPolicy(s) }

// ParseShedPolicy parses a shed policy name ("none", "reject",
// "degrade") for AppConfig.Shed.
func ParseShedPolicy(s string) (ShedPolicy, error) { return core.ParseShedPolicy(s) }

// NewAIMD returns Clipper's default adaptive batch-size controller.
func NewAIMD(cfg AIMDConfig) Controller { return batching.NewAIMD(cfg) }

// NewQuantileReg returns the quantile-regression batch-size controller for
// the batch-latency objective slo.
func NewQuantileReg(slo time.Duration) Controller { return batching.NewQuantileReg(slo) }

// NewFixedBatch returns a static batch-size controller (1 = no batching).
func NewFixedBatch(n int) Controller { return batching.NewFixed(n) }

// NewExp3 returns the single-model bandit selection policy (paper §5.1).
func NewExp3(eta float64) Policy { return selection.NewExp3(eta) }

// NewExp4 returns the ensemble bandit selection policy (paper §5.2).
func NewExp4(eta float64) Policy { return selection.NewExp4(eta) }

// NewStaticPolicy returns a policy pinned to one model index.
func NewStaticPolicy(i int) Policy { return selection.NewStatic(i) }

// NewMemStore returns an in-memory selection-state store.
func NewMemStore() Store { return statestore.NewMemStore() }

// OpenFileStore returns a durable selection-state store backed by an
// append-only log at path, so per-context personalization survives
// restarts.
func OpenFileStore(path string) (Store, error) { return statestore.OpenFileStore(path) }

// DialStateStore connects to a remote statestore server (the Redis
// substitute) and redials it whenever the connection is lost.
func DialStateStore(addr string, timeout time.Duration) (Store, error) {
	return statestore.DialStore(addr, timeout)
}

// NewRESTServer returns the REST API frontend over a Clipper node.
func NewRESTServer(cl *Clipper) *RESTServer { return httpjson.NewServer(cl) }

// ServeContainer hosts a Predictor as a standalone RPC model container on
// addr (":0" picks a port) and returns the bound address and a shutdown
// function. Run it in the model's own process for Docker-like isolation.
func ServeContainer(p Predictor, addr string) (string, func() error, error) {
	bound, srv, err := container.Serve(p, addr)
	if err != nil {
		return "", nil, err
	}
	return bound, srv.Close, nil
}

// DialContainer connects conns RPC connections (0 selects 1) to a remote
// model container; the result is a Predictor deployable with
// (*Clipper).Deploy. Batch frames round-robin across the live connections
// and a lost one is redialed with backoff. See the RPC section of
// docs/ARCHITECTURE.md for when more than one connection pays.
func DialContainer(addr string, timeout time.Duration, conns int) (*container.Remote, error) {
	return container.DialConns(addr, timeout, conns)
}

// DefaultQueueConfig returns an adaptive AIMD queue tuned to the given
// latency SLO — the deployment most users want. The dispatch pipeline
// window (InFlight 0) is measured per replica at run time; set
// QueueConfig.InFlight to pin it, 1 for the paper's serial
// one-batch-at-a-time dispatcher.
func DefaultQueueConfig(slo time.Duration) QueueConfig {
	return QueueConfig{Controller: NewAIMD(AIMDConfig{SLO: slo})}
}
