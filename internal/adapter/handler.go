package adapter

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"clipper/internal/gateway"
	"clipper/internal/rpc"
)

// maxInternedApps caps the handler's app-name intern table so a client
// spraying garbage names cannot grow it without bound; past the cap,
// lookups still hit interned entries and misses fall back to a plain
// allocation.
const maxInternedApps = 1024

// handler serves gateway operations over the framed wire. It interns app
// names so the steady-state predict path does not allocate for the
// (app → string) conversion: Go elides the []byte→string copy in a
// direct map index, and hits return the interned string.
type handler struct {
	b *gateway.Bound

	mu   sync.RWMutex
	apps map[string]string
}

// NewHandler returns an rpc.TimedHandler dispatching the gateway wire's
// methods to b.
func NewHandler(b *gateway.Bound) rpc.TimedHandler {
	h := &handler{b: b, apps: make(map[string]string)}
	return h.handle
}

func (h *handler) intern(name []byte) string {
	h.mu.RLock()
	s, ok := h.apps[string(name)] // no-alloc lookup
	n := len(h.apps)
	h.mu.RUnlock()
	if ok {
		return s
	}
	if n >= maxInternedApps {
		return string(name)
	}
	h.mu.Lock()
	if s, ok = h.apps[string(name)]; !ok {
		s = string(name)
		h.apps[s] = s
	}
	h.mu.Unlock()
	return s
}

// handle decodes one request and encodes the operation's result into
// scratch. Application-level failures travel as status bytes inside a
// normal response frame — never as an rpc error frame, which is reserved for
// transport-level faults (unknown method) — so typed gateway codes
// survive the wire. arrived, the instant the frame was read, is where a
// predict's deadline counts from.
func (h *handler) handle(method rpc.Method, payload, scratch []byte, arrived time.Time) ([]byte, error) {
	switch method {
	case MethodGWPredict:
		req, err := DecodePredictRequest(payload)
		if err != nil {
			h.b.Reject(gateway.OpPredict, gateway.CodeBadRequest)
			return appendError(scratch, &gateway.Error{Code: gateway.CodeBadRequest, Msg: err.Error()}), nil
		}
		res, err := h.b.Predict(context.Background(), gateway.PredictRequest{
			App:     h.intern(req.App),
			Context: string(req.Context),
			Input:   req.Input,
			Arrived: arrived,
		})
		if err != nil {
			return appendError(scratch, err), nil
		}
		return AppendPredictResult(scratch, res), nil

	case MethodGWFeedback:
		req, err := decodeFeedbackRequest(payload)
		if err != nil {
			h.b.Reject(gateway.OpFeedback, gateway.CodeBadRequest)
			return appendError(scratch, &gateway.Error{Code: gateway.CodeBadRequest, Msg: err.Error()}), nil
		}
		ferr := h.b.Feedback(context.Background(), gateway.FeedbackRequest{
			App:     h.intern(req.App),
			Context: string(req.Context),
			Input:   req.Input,
			Label:   int(req.Label),
		})
		return appendStatus(scratch, ferr), nil

	case MethodGWAppList:
		return appendJSON(scratch, h.b.AppList())
	case MethodGWModelList:
		return appendJSON(scratch, h.b.ModelList())
	case MethodGWHealth:
		h.b.Health()
		return appendStatus(scratch, nil), nil
	case MethodGWMetrics:
		var buf bytes.Buffer
		if err := h.b.WriteMetrics(&buf); err != nil {
			return appendError(scratch, err), nil
		}
		scratch = append(scratch, byte(gateway.CodeOK))
		return append(scratch, buf.Bytes()...), nil
	case MethodGWRegisterApp:
		var req gateway.RegisterAppRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			h.b.Reject(gateway.OpRegisterApp, gateway.CodeBadRequest)
			return appendError(scratch, &gateway.Error{Code: gateway.CodeBadRequest, Msg: "bad JSON: " + err.Error()}), nil
		}
		return appendStatus(scratch, h.b.RegisterApp(req)), nil
	default:
		return nil, fmt.Errorf("unknown method 0x%x", byte(method))
	}
}

// appendJSON encodes v exactly as the HTTP adapter does (json.Encoder
// semantics, trailing newline included) behind an OK status byte, so the
// JSON bodies are byte-identical across protocols.
func appendJSON(scratch []byte, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return appendError(scratch, &gateway.Error{Code: gateway.CodeInternal, Msg: err.Error()}), nil
	}
	scratch = append(scratch, byte(gateway.CodeOK))
	scratch = append(scratch, data...)
	return append(scratch, '\n'), nil
}
