package api

import "fmt"

// ErrorCode is a stable machine-readable failure class. Codes are part
// of the v1 wire contract: clients may switch on them, so existing
// values are frozen (new codes may be added).
type ErrorCode string

// The v1 error taxonomy. The HTTP status conveys the transport class
// (4xx client, 5xx server); the code conveys the reason precisely
// enough to act on without parsing prose.
const (
	// CodeInvalidJSON: the body is not well-formed JSON for the
	// endpoint's shape — syntax errors, unknown fields, trailing data.
	CodeInvalidJSON ErrorCode = "invalid_json"
	// CodeBodyTooLarge: the request body exceeds the server's byte cap
	// (413). Shrink or split the request; fixing syntax will not help.
	CodeBodyTooLarge ErrorCode = "body_too_large"
	// CodeInvalidRequest: well-formed JSON with an invalid shape (e.g.
	// neither or both of taskset/tasksets).
	CodeInvalidRequest ErrorCode = "invalid_request"
	// CodeInvalidDevice: the device description is unusable — columns
	// below 1, or a task wider than the device.
	CodeInvalidDevice ErrorCode = "invalid_device"
	// CodeInvalidTaskset: a task fails intrinsic validation (non-positive
	// C/D/T, area below 1, C > D) or the set is empty.
	CodeInvalidTaskset ErrorCode = "invalid_taskset"
	// CodeUnknownTest: a tests entry does not resolve in the registry;
	// Detail["test"] names the offender, GET /v1/tests lists valid ids.
	CodeUnknownTest ErrorCode = "unknown_test"
	// CodeUnknownScheduler: a simulate scheduler other than nf/fkf.
	CodeUnknownScheduler ErrorCode = "unknown_scheduler"
	// CodeUnknownHeuristic: a placement heuristic other than bottom-left,
	// best-short-side or best-area; Detail["heuristic"] names the
	// offender.
	CodeUnknownHeuristic ErrorCode = "unknown_heuristic"
	// CodeUnknownExperiment: an experiment ID not in the evaluation
	// registry; Detail["experiment"] names the offender.
	CodeUnknownExperiment ErrorCode = "unknown_experiment"
	// CodeJobNotFound: the referenced experiment job does not exist (it
	// never did, or it was evicted from the retained-job window).
	CodeJobNotFound ErrorCode = "job_not_found"
	// CodeInvalidHorizon: an unparseable or non-positive simulation
	// horizon/horizon_cap.
	CodeInvalidHorizon ErrorCode = "invalid_horizon"
	// CodeLimitExceeded: an admission-of-work cap was hit (max tasks per
	// set, max analyses per request, max horizon, resident capacity).
	CodeLimitExceeded ErrorCode = "limit_exceeded"
	// CodeNotFound: the named controller or resident task does not exist.
	CodeNotFound ErrorCode = "not_found"
	// CodeConflict: the resource exists with a different configuration
	// (duplicate controller create).
	CodeConflict ErrorCode = "conflict"
	// CodeCancelled: the client went away (or its deadline passed) while
	// the request was queued or running; the work was abandoned.
	CodeCancelled ErrorCode = "cancelled"
	// CodeUnavailable: the serving engine cannot take the request (e.g.
	// it is shutting down). Retryable.
	CodeUnavailable ErrorCode = "unavailable"
	// CodePeerUnavailable: a peer-mode node (or every member of a client
	// fleet) could not be reached. On the server's analyze path a peer
	// failure is NEVER surfaced as a request error — the node degrades
	// to local analysis and only the /metrics breaker counters record
	// it; this code appears on requests that are themselves peer
	// operations (a fleet client with no live member, a cache lookup
	// proxied to a dead node). Detail["peer"] names the offender when
	// one is identifiable. Retryable.
	CodePeerUnavailable ErrorCode = "peer_unavailable"
	// CodeNotReady: the node is alive but not serving (still starting,
	// or draining for shutdown) — the GET /readyz failure code. Load
	// balancers and fleet clients should route elsewhere; liveness
	// (GET /healthz) is unaffected.
	CodeNotReady ErrorCode = "not_ready"
	// CodeStoreFailed: the durable controller store could not record a
	// mutation (disk full, I/O error). The mutation was not applied (it
	// is logged before it is applied), and the daemon's controllers are
	// read-only (degraded) until it is restarted with a healthy state
	// directory; reads and analyses are unaffected. Distinct from not_found so a client retrying a delete
	// can tell "already gone" from "could not be recorded".
	CodeStoreFailed ErrorCode = "store_failed"
	// CodeInternal: an unclassified server-side failure. Retryable.
	CodeInternal ErrorCode = "internal"
)

// Error is the wire form of every fpgaschedd failure response (and the
// per-line error of the streaming protocol). The human-readable message
// is serialised under the key "error", preserving the pre-v1
// {"error": "..."} shape for clients that only read prose.
type Error struct {
	// Code is the stable machine-readable failure class.
	Code ErrorCode `json:"code"`
	// Message is the human-readable explanation.
	Message string `json:"error"`
	// Detail carries structured context, e.g. {"test": "XX"} for
	// unknown_test or {"limit": "1000"} for limit_exceeded.
	Detail map[string]string `json:"detail,omitempty"`
	// HTTPStatus is the transport status the error travelled with. It is
	// not serialised: the server sets the real status line, and the
	// client fills this field from the response for callers that need it.
	HTTPStatus int `json:"-"`
}

// Errorf builds an Error with a formatted message.
func Errorf(code ErrorCode, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// WithDetail returns e with one structured context entry added (e is
// modified and returned for chaining).
func (e *Error) WithDetail(key, value string) *Error {
	if e.Detail == nil {
		e.Detail = make(map[string]string)
	}
	e.Detail[key] = value
	return e
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Code == "" {
		return e.Message
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}
