// Package api defines the versioned wire contract of the fpgaschedd
// HTTP API (v1) and is the single source of truth for every request and
// response shape the daemon speaks. The server (internal/server)
// implements this contract, the official Go client (package client)
// consumes it, and the golden-file tests in this package freeze the
// JSON forms so accidental wire changes fail loudly.
//
// # Stability
//
// Every type here is v1: fields are only added (always with omitempty),
// never renamed, retyped or removed; JSON key spellings, the decimal
// string encoding of durations, and the Error codes in error.go are
// frozen by testdata golden files. Breaking changes require a new
// versioned package (api/v2), not edits here.
//
// Durations travel as decimal strings in paper time units ("1.26"), the
// exact wire form of internal/task: payloads are human-editable and
// round-trip exactly (see DESIGN.md Section 6 for the numerics policy).
//
// # Endpoints
//
//	GET    /healthz                              liveness probe
//	GET    /metrics                              engine + HTTP counters
//	GET    /v1/tests                             TestsResponse
//	POST   /v1/analyze                           AnalyzeRequest -> AnalyzeResponse
//	POST   /v1/analyze/stream                    NDJSON StreamRequest lines -> NDJSON StreamResult lines
//	POST   /v1/simulate                          SimulateRequest -> SimulateResponse
//	POST   /v1/simulate/trace                    TraceRequest -> NDJSON TraceEvent lines
//	POST   /v1/placement/check                   PlacementCheckRequest -> PlacementCheckResponse
//	GET    /v1/placement/controllers             PlacementControllerList
//	PUT    /v1/placement/controllers/{name}      PlacementControllerRequest -> PlacementControllerInfo
//	DELETE /v1/placement/controllers/{name}      204
//	POST   /v1/placement/controllers/{name}/admit Task2D -> PlacementAdmitResponse
//	DELETE /v1/placement/controllers/{name}/tasks/{task} 204
//	GET    /v1/placement/controllers/{name}/resident PlacementResidentResponse
//	GET    /v1/controllers                       ControllerList
//	PUT    /v1/controllers/{name}                ControllerRequest -> ControllerInfo
//	DELETE /v1/controllers/{name}                204
//	POST   /v1/controllers/{name}/admit          Task -> AdmitResponse
//	DELETE /v1/controllers/{name}/tasks/{task}   204
//	GET    /v1/controllers/{name}/resident       ResidentResponse
//	POST   /v1/experiments                       ExperimentRequest -> ExperimentJob
//	GET    /v1/experiments                       ExperimentList
//	GET    /v1/experiments/{id}                  ExperimentJob
//	DELETE /v1/experiments/{id}                  ExperimentJob (cancel)
//	GET    /v1/experiments/{id}/stream           NDJSON ExperimentEvent lines
//
// Failures are an Error document with a 4xx/5xx status; see error.go
// for the code taxonomy.
package api

import (
	"fpgasched/internal/core"
	"fpgasched/internal/sim"
	"fpgasched/internal/task"
)

// Task is the wire form of one hardware task: durations as decimal
// strings ({"name":"t1","c":"2.10","d":"5","t":"5","a":7}). It is an
// alias of the model type so there is exactly one (de)serialisation.
type Task = task.Task

// TaskSet is the wire form of a taskset: {"tasks":[...]}.
type TaskSet = task.Set

// ---- POST /v1/analyze ----

// AnalyzeRequest asks for a single or batch analysis. Exactly one of
// Taskset and Tasksets must be present; Tests defaults to ["any-nf"]
// (the EDF-NF composite). Test identifiers are discoverable via
// GET /v1/tests.
type AnalyzeRequest struct {
	// Columns is the device area A(H) in columns.
	Columns int `json:"columns"`
	// Tests names the schedulability tests to run, in order.
	Tests []string `json:"tests,omitempty"`
	// Taskset is the single-analysis shape.
	Taskset *TaskSet `json:"taskset,omitempty"`
	// Tasksets is the batch shape; Results aligns with it.
	Tasksets []*TaskSet `json:"tasksets,omitempty"`
	// Detail includes the per-task bound checks in each verdict.
	// Deprecated alias of Explain, kept for v1 stability.
	Detail bool `json:"detail,omitempty"`
	// Explain attaches the full machine-readable certificate to every
	// verdict: per-task checks with exact rational LHS/RHS (and GN2's
	// witnessing λ and condition), plus each composite member's full
	// sub-verdict. Without explain the server only decides the verdict;
	// the first explain request on such a cached verdict pays one exact
	// replay of the analysis, and every later one is a free cache hit.
	Explain bool `json:"explain,omitempty"`
}

// Verdict is the wire form of one schedulability test outcome — an
// alias of core.Certificate, so library and wire consumers share one
// certificate type. failing_task and checks[].task_index are indices
// into the request's task array (the engine remaps them per caller);
// the free-text reason is produced once per cached analysis from the
// canonically ordered set, so any index or name embedded in its prose
// reflects that canonical ordering — trust the structured fields, treat
// reason as human context. accepted_by names the composite member whose
// proof accepted the set; sub_verdicts (explain only) carries every
// evaluated member's own certificate.
type Verdict = core.Certificate

// Check is the wire form of one per-task bound evaluation; LHS/RHS/λ
// are exact fraction strings ("63/10").
type Check = core.Check

// AnalyzeResult holds the verdicts for one taskset, in test order.
type AnalyzeResult struct {
	// Schedulable is true iff any requested test accepts.
	Schedulable bool      `json:"schedulable"`
	Verdicts    []Verdict `json:"verdicts"`
}

// AnalyzeResponse answers both AnalyzeRequest shapes: Result for
// single, Results (aligned with the request's tasksets) for batch.
type AnalyzeResponse struct {
	Columns int             `json:"columns"`
	Result  *AnalyzeResult  `json:"result,omitempty"`
	Results []AnalyzeResult `json:"results,omitempty"`
}

// VerdictFromCore converts an analysis verdict to its wire form: the
// verdict's certificate, with the per-task checks and composite
// sub-verdicts stripped unless explain was requested (accepted_by is
// always kept — it is the summary of the proof, not the proof).
func VerdictFromCore(v core.Verdict, explain bool) Verdict {
	out := v.Certificate()
	if !explain {
		out.Checks = nil
		out.SubVerdicts = nil
	}
	return out
}

// ---- POST /v1/analyze/stream ----

// StreamRequest is one line of the NDJSON request body of
// POST /v1/analyze/stream: a self-contained single-set analysis.
// Lines are independent — columns and tests may differ per line.
type StreamRequest struct {
	Columns int      `json:"columns"`
	Tests   []string `json:"tests,omitempty"`
	Taskset *TaskSet `json:"taskset"`
	// Detail is the deprecated alias of Explain, kept for v1 stability.
	Detail bool `json:"detail,omitempty"`
	// Explain attaches full certificates to this line's verdicts, as on
	// AnalyzeRequest.
	Explain bool `json:"explain,omitempty"`
}

// StreamResult is one line of the NDJSON response body. Index is the
// 0-based ordinal of the request line it answers; results are emitted
// as analyses complete and may arrive out of order. Exactly one of
// Result and Error is set.
type StreamResult struct {
	Index  int            `json:"index"`
	Result *AnalyzeResult `json:"result,omitempty"`
	Error  *Error         `json:"error,omitempty"`
}

// ---- POST /v1/simulate ----

// SimulateRequest configures one synchronous-release simulation run.
// Durations are decimal strings in paper time units, like task fields.
type SimulateRequest struct {
	Columns   int      `json:"columns"`
	Scheduler string   `json:"scheduler,omitempty"` // "nf" (default) or "fkf"
	Taskset   *TaskSet `json:"taskset"`
	// Horizon stops releases at this time; empty means automatic
	// (min(hyperperiod, horizon_cap)).
	Horizon string `json:"horizon,omitempty"`
	// HorizonCap bounds the automatic horizon.
	HorizonCap string `json:"horizon_cap,omitempty"`
	// ContinueAfterMiss keeps simulating past the first miss.
	ContinueAfterMiss bool `json:"continue_after_miss,omitempty"`
}

// SimulateResponse summarises a simulation run with times as decimal
// strings.
type SimulateResponse struct {
	Policy        string `json:"policy"`
	Missed        bool   `json:"missed"`
	Misses        int    `json:"misses"`
	FirstMissTime string `json:"first_miss_time,omitempty"`
	FirstMissTask *int   `json:"first_miss_task,omitempty"`
	FirstMissJob  *int   `json:"first_miss_job,omitempty"`
	Horizon       string `json:"horizon"`
	End           string `json:"end"`
	Events        int    `json:"events"`
	Released      int    `json:"released"`
	Completed     int    `json:"completed"`
	Preemptions   int    `json:"preemptions"`
}

// SimulateResponseFromResult converts a simulation result to its wire
// form.
func SimulateResponseFromResult(res sim.Result) SimulateResponse {
	out := SimulateResponse{
		Policy:      res.Policy,
		Missed:      res.Missed,
		Misses:      res.Misses,
		Horizon:     res.Horizon.String(),
		End:         res.End.String(),
		Events:      res.Events,
		Released:    res.Released,
		Completed:   res.Completed,
		Preemptions: res.Preemptions,
	}
	if res.Missed {
		out.FirstMissTime = res.FirstMissTime.String()
		mt, mj := res.FirstMissTask, res.FirstMissJob
		out.FirstMissTask = &mt
		out.FirstMissJob = &mj
	}
	return out
}

// ---- GET /v1/tests ----

// TestInfo describes one test registry entry: identifier, one-line
// description and scheduler validity ("both", "nf" or "fkf"), so
// clients can discover which tests are legal under EDF-FkF instead of
// hardcoding it.
type TestInfo = core.TestInfo

// TestsResponse lists the test identifiers the server resolves, sorted
// (the shared registry behind the CLI's -tests flag and every tests
// field here). Details carries the per-entry metadata, aligned with
// Tests.
type TestsResponse struct {
	Tests []string `json:"tests"`
	// Details describes each entry (description + scheduler validity),
	// in the same order as Tests.
	Details []TestInfo `json:"details,omitempty"`
}

// ---- /v1/controllers ----

// ControllerRequest creates a named admission controller.
type ControllerRequest struct {
	Columns int `json:"columns"`
	// Tests are tried in order on each admission request; empty means
	// the standard EDF-NF composite members (DP, GN1, GN2).
	Tests []string `json:"tests,omitempty"`
}

// ControllerInfo describes one controller in list/create responses.
type ControllerInfo struct {
	Name     string   `json:"name"`
	Columns  int      `json:"columns"`
	Tests    []string `json:"tests"`
	Resident int      `json:"resident"`
}

// ControllerList answers GET /v1/controllers, sorted by name.
type ControllerList struct {
	Controllers []ControllerInfo `json:"controllers"`
}

// AdmitResponse is the outcome of one admission request. A rejection is
// a 200 with admitted false — it is a domain answer, not a transport
// error. An admission carries the accepting test's certificate over the
// new resident set, so every admission decision is auditable.
type AdmitResponse struct {
	Admitted bool   `json:"admitted"`
	ProvedBy string `json:"proved_by,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// Certificate is the accepting test's full proof (per-task bound
	// inequalities with exact rational sides). Absent on rejection.
	Certificate *Verdict `json:"certificate,omitempty"`
}

// ResidentResponse snapshots a controller's resident set.
type ResidentResponse struct {
	Name    string `json:"name"`
	Columns int    `json:"columns"`
	Count   int    `json:"count"`
	// UtilizationS is the resident system utilization Σ Ci·Ai/Ti as a
	// decimal string.
	UtilizationS string   `json:"utilization_s"`
	Taskset      *TaskSet `json:"taskset"`
}
