package server

// POST /v1/simulate/trace — the streamed simulation trace.
//
// The request is a TraceRequest (the same shape /v1/simulate accepts,
// validated identically); the response is NDJSON: interval and miss
// TraceEvents in simulation-time order as the run produces them,
// terminated by exactly one result (the /v1/simulate summary document)
// or error event.
//
// The framing is the experiment stream's: the simulation runs in its
// own goroutine appending events to an eventlog.Log, and the handler
// follows that log to the client through followNDJSON, the same loop
// that serves GET /v1/experiments/{id}/stream. That decoupling means a
// slow reader never stalls the simulator (it holds a simulation slot;
// backpressure would turn one slow client into a stuck slot), and a
// client that disconnects mid-stream just stops following — the run
// completes at its bounded horizon and releases the slot. Unlike analysis verdicts, trace events are NOT memoized: a
// trace is a replayable function of its request (seeded, workers
// irrelevant — the simulator is single-threaded), so caching would
// spend memory to save nothing but the replay itself.

import (
	"net/http"

	"fpgasched/api"
	"fpgasched/internal/eventlog"
	"fpgasched/internal/sim"
	"fpgasched/internal/timeunit"
)

// DefaultMaxTraceEvents bounds the scheduler events of one traced run.
// It is far below sim.DefaultMaxEvents: every traced event is
// materialised as a wire document in the in-memory log, so the trace
// endpoint trades horizon headroom for bounded memory. Runs that
// overrun terminate with a limit_exceeded error event.
const DefaultMaxTraceEvents = 100_000

// traceRecorder adapts the log to the sim.Recorder interface. Every job
// field is copied into its wire form inside the callback — the recorder
// contract forbids retaining the job pointers or slices.
type traceRecorder struct {
	log *eventlog.Log[api.TraceEvent]
}

func (t traceRecorder) Interval(from, to timeunit.Time, running, waiting []*sim.Job) {
	iv := &api.TraceInterval{From: from.String(), To: to.String()}
	for _, j := range running {
		iv.Running = append(iv.Running, api.TraceJobFrom(j))
	}
	for _, j := range waiting {
		iv.Waiting = append(iv.Waiting, api.TraceJobFrom(j))
	}
	t.log.Append(api.TraceEvent{Type: api.TraceEventInterval, Interval: iv}, false)
}

func (t traceRecorder) Miss(at timeunit.Time, job *sim.Job) {
	t.log.Append(api.TraceEvent{
		Type: api.TraceEventMiss,
		Miss: &api.TraceMiss{At: at.String(), Task: job.TaskIndex, Job: job.JobIndex},
	}, false)
}

func (s *Server) handleSimulateTrace(w http.ResponseWriter, r *http.Request) {
	var req api.TraceRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, decodeErr(err))
		return
	}
	pol, opts, apiErr := s.simConfig(req.Columns, req.Taskset, req.Scheduler, req.Horizon, req.HorizonCap, req.ContinueAfterMiss)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if !s.acquireSimSlot(r.Context()) {
		writeError(w, api.Errorf(api.CodeCancelled, "client cancelled while waiting for a simulation slot"))
		return
	}
	log := new(eventlog.Log[api.TraceEvent])
	opts.Recorder = traceRecorder{log: log}
	opts.MaxEvents = DefaultMaxTraceEvents
	// The run owns the slot, not the handler: a disconnected client must
	// not strand a half-finished simulation's slot, and the simulator has
	// no cancellation point anyway — it always reaches its (bounded)
	// horizon or event cap.
	go func() {
		defer s.releaseSimSlot()
		res, err := sim.Simulate(req.Columns, req.Taskset, pol, opts)
		if err != nil {
			log.Append(api.TraceEvent{
				Type:  api.TraceEventError,
				Error: api.Errorf(api.CodeLimitExceeded, "simulate: %v", err),
			}, true)
			return
		}
		resp := api.SimulateResponseFromResult(res)
		log.Append(api.TraceEvent{Type: api.TraceEventResult, Result: &resp}, true)
	}()

	followNDJSON(r.Context(), w, log.Since, func(e api.TraceEvent) api.TraceEvent { return e })
}
