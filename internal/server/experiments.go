package server

// /v1/experiments — the paper's Section 6 evaluation as server jobs.
//
// POST creates a cancellable background job (202 + ExperimentJob); GET
// lists or fetches jobs; DELETE requests cancellation and returns the
// updated job document; GET {id}/stream is NDJSON: the job's full event
// history is replayed from the first line and then followed live, so a
// subscriber attached at any point sees the complete, deterministic
// stream — per-bin progress events ending with a terminal line (the
// full result for done jobs). Execution lives in internal/jobs, which
// routes every schedulability analysis through the server's engine so
// repeated sweeps of overlapping tasksets hit the memoized verdicts.

import (
	"errors"
	"net/http"
	"strconv"

	"fpgasched/api"
	"fpgasched/internal/experiments"
	"fpgasched/internal/jobs"
	"fpgasched/internal/timeunit"
)

// DefaultMaxExperimentSamples bounds the per-bin sample count of one
// job. The paper's floor is 500; the cap leaves room for tighter
// confidence intervals while keeping a single request from queueing
// unbounded compute (a figure job runs bins × samples × tests analyses
// plus two simulations per draw).
const DefaultMaxExperimentSamples = 10_000

// DefaultMaxExperimentWorkers bounds the per-job sweep parallelism a
// client may request.
const DefaultMaxExperimentWorkers = 64

// jobStatus converts a jobs snapshot to its wire form.
func jobStatus(st jobs.Status) api.ExperimentJob {
	out := api.ExperimentJob{
		ID:         st.ID,
		Experiment: st.Params.Experiment,
		State:      string(st.State),
		Samples:    st.Params.Opts.Samples,
		Seed:       st.Params.Opts.Seed,
		Workers:    st.Params.Opts.Workers,
	}
	if st.Params.Opts.SimHorizonCap > 0 {
		out.SimHorizon = st.Params.Opts.SimHorizonCap.String()
	}
	if st.Progress != nil {
		out.Progress = progressToAPI(*st.Progress)
	}
	if st.Output != nil {
		out.Result = resultToAPI(st.Output)
	}
	if st.Err != nil {
		out.Error = jobError(st.Err)
	}
	return out
}

func progressToAPI(p experiments.Progress) *api.ExperimentProgress {
	return &api.ExperimentProgress{
		BinsDone:     p.BinsDone,
		BinsTotal:    p.BinsTotal,
		SamplesDone:  p.SamplesDone,
		SamplesTotal: p.SamplesTotal,
	}
}

func resultToAPI(o *experiments.Output) *api.ExperimentResult {
	return &api.ExperimentResult{
		Experiment: o.ID,
		Markdown:   o.Markdown,
		Notes:      o.Notes,
		Counts:     o.Counts,
		Table:      api.TableFromReport(o.Table),
	}
}

// jobError converts a job failure to a wire error, preserving an
// *api.Error when the failure already is one.
func jobError(err error) *api.Error {
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae
	}
	return api.Errorf(api.CodeInternal, "%v", err)
}

// eventToAPI converts one event-log entry to its NDJSON wire form.
func eventToAPI(e jobs.Event) api.ExperimentEvent {
	switch {
	case e.Output != nil:
		return api.ExperimentEvent{Type: api.ExperimentEventResult, State: string(e.State), Result: resultToAPI(e.Output)}
	case e.Progress != nil:
		return api.ExperimentEvent{Type: api.ExperimentEventProgress, Progress: progressToAPI(*e.Progress)}
	default:
		out := api.ExperimentEvent{Type: api.ExperimentEventState, State: string(e.State)}
		if e.Err != nil {
			out.Error = jobError(e.Err)
		}
		return out
	}
}

func (s *Server) handleExperimentCreate(w http.ResponseWriter, r *http.Request) {
	var req api.ExperimentRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, decodeErr(err))
		return
	}
	if req.Experiment == "" {
		writeError(w, api.Errorf(api.CodeInvalidRequest, "experiment is required (e.g. fig3b; see cmd/experiments list)"))
		return
	}
	if req.Samples < 0 {
		writeError(w, api.Errorf(api.CodeInvalidRequest, "samples must be non-negative"))
		return
	}
	// Caps gate the *effective* values, not the raw request: an omitted
	// field defaults server-side (samples 500, horizon 200), and a
	// tighter admin cap must not be bypassable by omission.
	effSamples := req.Samples
	if effSamples == 0 {
		effSamples = experiments.RunOptions{}.WithDefaults().Samples
	}
	if s.maxExpSamples > 0 && effSamples > s.maxExpSamples {
		writeError(w, api.Errorf(api.CodeLimitExceeded, "%d samples per bin exceeds the server limit of %d", effSamples, s.maxExpSamples).
			WithDetail("limit", strconv.Itoa(s.maxExpSamples)))
		return
	}
	if req.Workers < 0 {
		writeError(w, api.Errorf(api.CodeInvalidRequest, "workers must be non-negative"))
		return
	}
	if req.Workers > DefaultMaxExperimentWorkers {
		writeError(w, api.Errorf(api.CodeLimitExceeded, "%d workers exceeds the server limit of %d (results are worker-independent; fewer workers only run longer)", req.Workers, DefaultMaxExperimentWorkers).
			WithDetail("limit", strconv.Itoa(DefaultMaxExperimentWorkers)))
		return
	}
	var horizon timeunit.Time
	if req.SimHorizon != "" {
		var err error
		if horizon, err = timeunit.Parse(req.SimHorizon); err != nil {
			writeError(w, api.Errorf(api.CodeInvalidHorizon, "sim_horizon: %v", err))
			return
		}
		if horizon <= 0 {
			writeError(w, api.Errorf(api.CodeInvalidHorizon, "sim_horizon: %q must be positive (omit it for the default cap)", req.SimHorizon))
			return
		}
	}
	effHorizon := horizon
	if effHorizon == 0 {
		effHorizon = experiments.RunOptions{}.WithDefaults().SimHorizonCap
	}
	if s.maxSimHorizon > 0 && effHorizon > s.maxSimHorizon {
		writeError(w, api.Errorf(api.CodeLimitExceeded, "sim_horizon: %v exceeds the server limit of %v time units", effHorizon, s.maxSimHorizon).
			WithDetail("limit", s.maxSimHorizon.String()))
		return
	}
	j, err := s.jobs.Create(jobs.Params{
		Experiment: req.Experiment,
		Opts: experiments.RunOptions{
			Samples:       req.Samples,
			Seed:          req.Seed,
			Workers:       req.Workers,
			SimHorizonCap: horizon,
		},
	})
	switch {
	case errors.Is(err, jobs.ErrUnknownExperiment):
		writeError(w, api.Errorf(api.CodeUnknownExperiment, "%v", err).WithDetail("experiment", req.Experiment))
		return
	case errors.Is(err, jobs.ErrTooManyJobs):
		writeErrorStatus(w, http.StatusConflict,
			api.Errorf(api.CodeLimitExceeded, "%v", err).WithDetail("limit", strconv.Itoa(s.maxJobs)))
		return
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, api.Errorf(api.CodeUnavailable, "%v", err))
		return
	case err != nil:
		writeError(w, api.Errorf(api.CodeInternal, "%v", err))
		return
	}
	writeJSON(w, http.StatusAccepted, jobStatus(j.Status()))
}

// lookupJob fetches a job or writes the job_not_found error.
func (s *Server) lookupJob(w http.ResponseWriter, id string) (*jobs.Job, bool) {
	j, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, api.Errorf(api.CodeJobNotFound, "no experiment job %q (finished jobs are retained up to the server's job window)", id).
			WithDetail("id", id))
	}
	return j, ok
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	list := s.jobs.List()
	out := api.ExperimentList{Jobs: make([]api.ExperimentJob, len(list))}
	for i, st := range list {
		out.Jobs[i] = jobStatus(st)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleExperimentGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r.PathValue("id"))
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, jobStatus(j.Status()))
}

func (s *Server) handleExperimentCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r.PathValue("id"))
	if !ok {
		return
	}
	// Cancellation is asynchronous for running jobs: the returned
	// document may still say "running" while the sweep unwinds. DELETE
	// is idempotent — repeating it (or cancelling a finished job) is a
	// no-op that re-reports the current state.
	j.Cancel()
	writeJSON(w, http.StatusOK, jobStatus(j.Status()))
}

func (s *Server) handleExperimentStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r.PathValue("id"))
	if !ok {
		return
	}
	followNDJSON(r.Context(), w, j.EventsSince, eventToAPI)
}
