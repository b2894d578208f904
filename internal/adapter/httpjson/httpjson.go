// Package httpjson is Clipper's REST adapter (paper §3): the gateway's
// operations as JSON over net/http. Every handler is a decode → gateway
// op → encode shell; validation and error classification live in
// internal/gateway, shared with the stream adapter.
//
// Endpoints:
//
//	POST /api/v1/predict        {"app","context","input":[...]}
//	POST /api/v1/predict-batch  {"app","context","inputs":[[...],...]}
//	POST /api/v1/feedback       {"app","context","input":[...],"label"}
//	GET  /api/v1/apps
//	GET  /api/v1/models
//	GET  /healthz
//	POST /api/v1/admin/apps     register an application over deployed models
//	POST /api/v1/admin/deploy   dial + deploy a model container
//	GET  /api/v1/admin/replicas?model=<name>
//	GET  /api/v1/admin/applications
//	POST /api/v1/admin/health   {"replica","healthy"}
//	GET  /metrics               Prometheus text exposition
package httpjson

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"time"

	"clipper/internal/adapter"
	"clipper/internal/core"
	"clipper/internal/gateway"
)

// PredictResponse is the JSON reply to a prediction.
type PredictResponse struct {
	Label       int     `json:"label"`
	Confidence  float64 `json:"confidence"`
	UsedDefault bool    `json:"used_default"`
	Missing     int     `json:"missing"`
	Degraded    bool    `json:"degraded,omitempty"`
	LatencyUS   int64   `json:"latency_us"`
}

func toResponse(r gateway.PredictResult) PredictResponse {
	return PredictResponse{
		Label:       r.Label,
		Confidence:  r.Confidence,
		UsedDefault: r.UsedDefault,
		Missing:     r.Missing,
		Degraded:    r.Degraded,
		LatencyUS:   r.Latency.Microseconds(),
	}
}

// batchPredictResponse carries one PredictResponse per input.
type batchPredictResponse struct {
	Results []PredictResponse `json:"results"`
}

// healthRequest is the JSON body of POST /api/v1/admin/health.
type healthRequest struct {
	Replica string `json:"replica"`
	Healthy bool   `json:"healthy"`
}

// statusResponse is the JSON reply to feedback and admin mutations.
type statusResponse struct {
	OK bool `json:"ok"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// Server serves the REST API for one Clipper instance.
type Server struct {
	b       *gateway.Bound
	httpSrv *http.Server
	mux     *http.ServeMux
}

// New returns a REST server bound to g's "http" adapter instrumentation.
func New(g *gateway.Gateway) *Server {
	s := &Server{b: g.Bind("http"), mux: http.NewServeMux()}
	s.mux.HandleFunc("/api/v1/predict", s.handlePredict)
	s.mux.HandleFunc("/api/v1/feedback", s.handleFeedback)
	s.mux.HandleFunc("/api/v1/apps", s.handleApps)
	s.mux.HandleFunc("/api/v1/models", s.handleModels)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/api/v1/admin/deploy", s.handleDeploy)
	s.mux.HandleFunc("/api/v1/admin/replicas", s.handleReplicas)
	s.mux.HandleFunc("/api/v1/admin/applications", s.handleApplications)
	s.mux.HandleFunc("/api/v1/admin/health", s.handleSetHealth)
	s.mux.HandleFunc("/api/v1/admin/apps", s.handleRegisterApp)
	s.mux.HandleFunc("/api/v1/predict-batch", s.handlePredictBatch)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// NewServer returns a REST server over its own gateway on cl.
func NewServer(cl *core.Clipper) *Server { return New(gateway.New(cl)) }

// Handler returns the server's HTTP handler (useful for tests with
// httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Listen starts serving on addr (":0" picks a port) and returns the bound
// address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go s.httpSrv.Serve(ln)
	return ln.Addr().String(), nil
}

// Shutdown drains gracefully: the listener closes, in-flight requests
// complete and their responses are written, then idle connections close.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.httpSrv == nil {
		return nil
	}
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		s.httpSrv.Close()
		return err
	}
	return nil
}

// Close is Shutdown bounded by adapter.CloseGrace.
func (s *Server) Close() error { return adapter.CloseGracefully(s.Shutdown) }

// decodePost enforces the POST + JSON-body preamble shared by all
// mutating endpoints, recording refusals against op.
func (s *Server) decodePost(w http.ResponseWriter, r *http.Request, op gateway.Op, v any) bool {
	if r.Method != http.MethodPost {
		s.b.Reject(op, gateway.CodeBadRequest)
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		s.b.Reject(op, gateway.CodeBadRequest)
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return false
	}
	return true
}

// writeGatewayError maps a gateway error onto the HTTP wire: its code's
// status and its message verbatim.
func writeGatewayError(w http.ResponseWriter, err error) {
	writeError(w, gateway.CodeOf(err).HTTPStatus(), err.Error())
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	req := gateway.PredictRequest{Arrived: time.Now()}
	if !s.decodePost(w, r, gateway.OpPredict, &req) {
		return
	}
	res, err := s.b.Predict(r.Context(), req)
	if err != nil {
		writeGatewayError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toResponse(res))
}

func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	var req gateway.BatchPredictRequest
	if !s.decodePost(w, r, gateway.OpPredictBatch, &req) {
		return
	}
	res, err := s.b.PredictBatch(r.Context(), req)
	if err != nil {
		writeGatewayError(w, err)
		return
	}
	out := batchPredictResponse{Results: make([]PredictResponse, len(res))}
	for i, pr := range res {
		out.Results[i] = toResponse(pr)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req gateway.FeedbackRequest
	if !s.decodePost(w, r, gateway.OpFeedback, &req) {
		return
	}
	if err := s.b.Feedback(r.Context(), req); err != nil {
		writeGatewayError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, statusResponse{OK: true})
}

func (s *Server) handleRegisterApp(w http.ResponseWriter, r *http.Request) {
	var req gateway.RegisterAppRequest
	if !s.decodePost(w, r, gateway.OpRegisterApp, &req) {
		return
	}
	if err := s.b.RegisterApp(req); err != nil {
		writeGatewayError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, statusResponse{OK: true})
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.b.AppList())
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.b.ModelList())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statusResponse{OK: s.b.Health()})
}

func (s *Server) handleDeploy(w http.ResponseWriter, r *http.Request) {
	var req gateway.DeployRequest
	if !s.decodePost(w, r, gateway.OpDeploy, &req) {
		return
	}
	res, err := s.b.Deploy(req)
	if err != nil {
		writeGatewayError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleReplicas(w http.ResponseWriter, r *http.Request) {
	if model := r.URL.Query().Get("model"); model != "" {
		writeJSON(w, http.StatusOK, s.b.Replicas(model))
		return
	}
	writeJSON(w, http.StatusOK, s.b.AllReplicas())
}

func (s *Server) handleApplications(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.b.Applications())
}

func (s *Server) handleSetHealth(w http.ResponseWriter, r *http.Request) {
	var req healthRequest
	if !s.decodePost(w, r, gateway.OpSetHealth, &req) {
		return
	}
	if err := s.b.SetHealth(req.Replica, req.Healthy); err != nil {
		writeGatewayError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, statusResponse{OK: true})
}

// handleMetrics serves the node's telemetry as Prometheus text exposition
// (version 0.0.4), rendered from the core registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.b.WriteMetrics(w); err != nil {
		// Invariant violations are caught before any byte is written, so
		// this branch only fires on client-side write failures; the
		// scrape is already lost either way.
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}
