package gateway

import (
	"errors"
	"net/http"

	"clipper/internal/core"
)

// Code classifies an operation failure independent of transport. Each
// adapter maps codes onto its wire: httpjson to HTTP status codes, the
// stream adapter to a status byte.
type Code uint8

// Error codes. The zero value is success and never appears on an Error.
const (
	CodeOK Code = iota
	CodeBadRequest
	CodeNotFound
	codeConflict
	// CodeShed is the QoS admission gate refusing a query predicted to
	// bust its SLO (core.ErrSLOShed) — the caller should back off, the
	// server did not malfunction.
	CodeShed
	codeBadGateway
	CodeInternal
	numCodes
)

var codeNames = [numCodes]string{
	"ok", "bad_request", "not_found", "conflict", "shed", "bad_gateway", "internal",
}

// String returns the code's metric-label name.
func (c Code) String() string {
	if int(c) < len(codeNames) {
		return codeNames[c]
	}
	return "unknown"
}

// HTTPStatus returns the code's HTTP status mapping.
func (c Code) HTTPStatus() int {
	switch c {
	case CodeOK:
		return http.StatusOK
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case codeConflict:
		return http.StatusConflict
	case CodeShed:
		return http.StatusServiceUnavailable
	case codeBadGateway:
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

// Error is a typed operation failure. Msg is the transport-visible error
// text; adapters must surface it verbatim so the same bad input reads
// the same over every protocol.
type Error struct {
	Code Code
	Msg  string
}

// Error implements error.
func (e *Error) Error() string { return e.Msg }

// fail wraps msg under code.
func fail(code Code, msg string) error { return &Error{Code: code, Msg: msg} }

// wrap classifies err from a core call: SLO sheds keep their semantic
// code, anything else is an internal failure. Already-typed errors pass
// through.
func wrap(err error) error {
	if err == nil {
		return nil
	}
	var ge *Error
	if errors.As(err, &ge) {
		return err
	}
	if errors.Is(err, core.ErrSLOShed) {
		return &Error{Code: CodeShed, Msg: err.Error()}
	}
	return &Error{Code: CodeInternal, Msg: err.Error()}
}

// CodeOf extracts an error's code (CodeInternal for untyped errors,
// CodeOK for nil).
func CodeOf(err error) Code {
	if err == nil {
		return CodeOK
	}
	var ge *Error
	if errors.As(err, &ge) {
		return ge.Code
	}
	if errors.Is(err, core.ErrSLOShed) {
		return CodeShed
	}
	return CodeInternal
}
