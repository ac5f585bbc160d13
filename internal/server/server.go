// Package server implements the fpgaschedd HTTP API: a JSON daemon that
// serves schedulability analysis, simulation and multi-tenant online
// admission control over the paper's tests.
//
// The wire contract — every request/response shape, the NDJSON
// streaming framing and the error-code taxonomy — is defined by the
// top-level api package (v1) and frozen there by golden-file tests;
// this package only implements it. Analysis requests are routed through
// internal/engine under the request's context, so repeated analyses of
// the same (canonicalised) taskset are served from the verdict cache,
// concurrent identical requests coalesce, and a client that disconnects
// or times out abandons its queued analyses instead of leaking worker
// slots.
//
// In peer mode (Config.Fleet set) the daemon is one shard of a static
// fleet: verdict ownership is consistent-hashed over the fingerprint
// (internal/cluster), non-owners try a bounded cache fetch from the
// owner before analysing locally, and POST /v1/cache/lookup serves this
// node's cache to its peers with strict hit-or-miss semantics — a
// lookup can never trigger an analysis here, because it carries only
// the fingerprint, from which no taskset can be reconstructed.
//
// Endpoints:
//
//	GET    /healthz                              liveness probe
//	GET    /readyz                               readiness (503 not_ready while draining)
//	GET    /metrics                              engine + HTTP + cluster counters (JSON)
//	POST   /v1/cache/lookup                      peer verdict-cache lookup (hit-or-miss)
//	GET    /v1/tests                             test-name registry
//	POST   /v1/analyze                           single or batch analysis
//	POST   /v1/analyze/stream                    NDJSON streaming batch analysis
//	POST   /v1/simulate                          discrete-event simulation
//	POST   /v1/simulate/trace                    NDJSON scheduler-event stream of one run
//	POST   /v1/placement/check                   2-D layout-feasibility check (placement witness)
//	GET    /v1/placement/controllers             list 2-D placement controllers
//	PUT    /v1/placement/controllers/{name}      create a placement controller
//	DELETE /v1/placement/controllers/{name}      drop a placement controller
//	POST   /v1/placement/controllers/{name}/admit       region-aware admission of one 2-D task
//	DELETE /v1/placement/controllers/{name}/tasks/{task} release a placed task
//	GET    /v1/placement/controllers/{name}/resident    snapshot the placed set
//	GET    /v1/controllers                       list admission controllers
//	PUT    /v1/controllers/{name}                create a controller
//	DELETE /v1/controllers/{name}                drop a controller
//	POST   /v1/controllers/{name}/admit          request admission of one task
//	DELETE /v1/controllers/{name}/tasks/{task}   release a resident task
//	GET    /v1/controllers/{name}/resident       snapshot the resident set
//	POST   /v1/experiments                       submit an experiment job
//	GET    /v1/experiments                       list experiment jobs
//	GET    /v1/experiments/{id}                  job status
//	DELETE /v1/experiments/{id}                  cancel a job
//	GET    /v1/experiments/{id}/stream           NDJSON progress stream
//
// Failures are api.Error documents ({"code": "...", "error": "..."})
// with a 4xx/5xx status; malformed JSON is a 400 with code
// invalid_json.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fpgasched/api"
	"fpgasched/internal/admission"
	"fpgasched/internal/cluster"
	"fpgasched/internal/core"
	"fpgasched/internal/engine"
	"fpgasched/internal/jobs"
	"fpgasched/internal/jsonwire"
	"fpgasched/internal/sched"
	"fpgasched/internal/sim"
	"fpgasched/internal/task"
	"fpgasched/internal/timeunit"
)

// DefaultMaxBodyBytes bounds request bodies (1 MiB holds thousands of
// tasks; analysis cost, not payload size, is the real limit). On the
// streaming endpoint the same figure caps each NDJSON line instead of
// the whole body, which is unbounded by design.
const DefaultMaxBodyBytes = 1 << 20

// DefaultMaxTasks bounds the tasks per analysed or simulated set. The
// body-size cap alone is not enough: a sub-megabyte payload can carry
// tens of thousands of tasks, and the superlinear exact-rational
// analyses would pin a worker for hours on it with no way to cancel.
const DefaultMaxTasks = 1000

// DefaultMaxBatch bounds the analyses (taskset × test pairs) one
// /v1/analyze request may fan out, for the same reason MaxTasks exists:
// a sub-megabyte body of tiny sets times a long test list multiplies
// into unbounded queued work. On the streaming endpoint it caps the
// tests per line (each line is one set).
const DefaultMaxBatch = 1024

// DefaultMaxControllers bounds the named admission controllers one
// daemon hosts; with the per-controller resident cap (MaxTasks) it
// bounds the total admission-analysis work a tenant set can hold.
const DefaultMaxControllers = 1024

// DefaultMaxSimHorizon bounds the client-supplied simulation horizon
// (in paper time units; the paper's figures use 200). Together with the
// simulation semaphore it keeps /v1/simulate from pinning every
// connection goroutine on multi-minute runs.
const DefaultMaxSimHorizon = 10_000

// Config configures a Server.
type Config struct {
	// Engine serves analysis requests; nil means a fresh engine with
	// EngineConfig.
	Engine *engine.Engine
	// EngineConfig sizes the engine created when Engine is nil.
	EngineConfig engine.Config
	// MaxBodyBytes caps request bodies (per NDJSON line on the streaming
	// endpoint); 0 means DefaultMaxBodyBytes, negative disables the cap
	// (matching the sibling limits).
	MaxBodyBytes int64
	// MaxTasks caps the tasks per analysed or simulated set; 0 means
	// DefaultMaxTasks, negative disables the cap.
	MaxTasks int
	// MaxBatch caps the taskset × test analyses per /v1/analyze
	// request; 0 means DefaultMaxBatch, negative disables the cap.
	MaxBatch int
	// MaxControllers caps the named admission controllers; 0 means
	// DefaultMaxControllers, negative disables the cap.
	MaxControllers int
	// MaxSimHorizon caps the explicit simulation horizon/horizon_cap in
	// whole time units; 0 means DefaultMaxSimHorizon, negative disables.
	MaxSimHorizon int64
	// MaxExperimentSamples caps the per-bin sample count of one
	// experiment job; 0 means DefaultMaxExperimentSamples, negative
	// disables the cap.
	MaxExperimentSamples int
	// ExperimentSlots bounds concurrently running experiment jobs; 0
	// means jobs.DefaultSlots.
	ExperimentSlots int
	// MaxExperimentJobs bounds retained experiment jobs (live +
	// finished); 0 means jobs.DefaultMaxJobs.
	MaxExperimentJobs int
	// Fleet enables peer mode: this node becomes one shard of the
	// fleet, owner-routing its analyze path through the distributed
	// verdict cache. Nil (the default) is single-node operation; every
	// endpoint behaves identically either way, peer mode only changes
	// where cache hits come from.
	Fleet *cluster.Fleet
	// Store persists controller mutations for crash recovery
	// (internal/durable). Nil (the default) disables persistence
	// entirely — zero behavior change on every endpoint. Tests wire it
	// here; fpgaschedd uses AttachStore after replaying, so the
	// listener can be up (and /readyz honestly 503) during recovery.
	Store Store
	// StartNotReady makes the controller and placement surfaces (and
	// /readyz) answer 503 not_ready until MarkReady is called.
	// fpgaschedd sets it when -state-dir is configured, holding
	// readiness down for the replay window.
	StartNotReady bool
}

// Server is the HTTP API. Create with New; it implements http.Handler.
type Server struct {
	engine        *engine.Engine
	ownedEngine   bool
	maxBodyBytes  int64
	maxTasks      int
	maxBatch      int
	maxSimHorizon timeunit.Time
	maxExpSamples int
	maxJobs       int
	jobs          *jobs.Manager
	simSem        chan struct{} // bounds concurrent simulations
	mux           *http.ServeMux
	fleet         *cluster.Fleet // nil in single-node mode
	draining      atomic.Bool    // flips once; /readyz turns 503

	// Durability (see durable.go). store is an atomic pointer because
	// AttachStore runs while the listener serves; degraded latches on
	// the first failed WAL append; notReady holds the controller
	// surfaces down until recovery finishes.
	store    atomic.Pointer[storeRef]
	degraded atomic.Bool
	notReady atomic.Bool

	controllers *tenants[*tenant]
	placements  *tenants[*tenant2D]

	mmu     sync.Mutex
	metrics map[string]*api.RouteMetrics
}

// tenant is one named admission controller plus its creation parameters
// (echoed on list/resident responses).
type tenant struct {
	tenantBase
	ctrl    *admission.Controller
	columns int
	tests   []string
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	s := &Server{
		engine:       cfg.Engine,
		maxBodyBytes: cfg.MaxBodyBytes,
		metrics:      make(map[string]*api.RouteMetrics),
		fleet:        cfg.Fleet,
	}
	if cfg.Store != nil {
		s.store.Store(&storeRef{s: cfg.Store})
	}
	s.notReady.Store(cfg.StartNotReady)
	if s.engine == nil {
		s.engine = engine.New(cfg.EngineConfig)
		s.ownedEngine = true
	}
	switch {
	case s.maxBodyBytes == 0:
		s.maxBodyBytes = DefaultMaxBodyBytes
	case s.maxBodyBytes < 0:
		s.maxBodyBytes = 0 // disabled
	}
	s.maxTasks = cfg.MaxTasks
	if s.maxTasks == 0 {
		s.maxTasks = DefaultMaxTasks
	}
	s.maxBatch = cfg.MaxBatch
	if s.maxBatch == 0 {
		s.maxBatch = DefaultMaxBatch
	}
	maxControllers := cfg.MaxControllers
	if maxControllers == 0 {
		maxControllers = DefaultMaxControllers
	}
	s.controllers = newTenants[*tenant]("controller", maxControllers)
	s.placements = newTenants[*tenant2D]("placement controller", maxControllers)
	switch {
	case cfg.MaxSimHorizon > 0:
		s.maxSimHorizon = timeunit.FromUnits(cfg.MaxSimHorizon)
	case cfg.MaxSimHorizon == 0:
		s.maxSimHorizon = timeunit.FromUnits(DefaultMaxSimHorizon)
	}
	s.maxExpSamples = cfg.MaxExperimentSamples
	if s.maxExpSamples == 0 {
		s.maxExpSamples = DefaultMaxExperimentSamples
	}
	s.maxJobs = cfg.MaxExperimentJobs
	if s.maxJobs <= 0 {
		s.maxJobs = jobs.DefaultMaxJobs
	}
	// Experiment jobs run through the server's engine, so sweep analyses
	// share the memoized verdict cache with interactive /v1/analyze
	// traffic (and warm it for later requests).
	s.jobs = jobs.New(jobs.Config{
		Engine:  s.engine,
		Slots:   cfg.ExperimentSlots,
		MaxJobs: cfg.MaxExperimentJobs,
	})
	// Simulations share the engine pool's sizing but not its slots:
	// analysis throughput must not collapse because simulations queue.
	s.simSem = make(chan struct{}, s.engine.Stats().Workers)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", true, s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", true, s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", true, s.handleMetrics))
	// Registered unconditionally (not just in peer mode): the lookup is
	// a read-only cache probe, useful for debugging any node, and a
	// fleet may include nodes that were started without -peers.
	mux.HandleFunc("POST /v1/cache/lookup", s.instrument("cache.lookup", true, s.handleCacheLookup))
	mux.HandleFunc("GET /v1/tests", s.instrument("tests", true, s.handleTests))
	mux.HandleFunc("POST /v1/analyze", s.instrument("analyze", true, s.handleAnalyze))
	// The streaming endpoint's body is unbounded by design (the line
	// cap, task cap and fan-out window bound the resources instead), so
	// it opts out of the whole-body MaxBytesReader.
	mux.HandleFunc("POST /v1/analyze/stream", s.instrument("analyze.stream", false, s.handleAnalyzeStream))
	mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", true, s.handleSimulate))
	// The trace stream has a small JSON request body (capped like
	// /v1/simulate) but an unbounded NDJSON response.
	mux.HandleFunc("POST /v1/simulate/trace", s.instrument("simulate.trace", true, s.handleSimulateTrace))
	mux.HandleFunc("POST /v1/placement/check", s.instrument("placement.check", true, s.handlePlacementCheck))
	mux.HandleFunc("GET /v1/placement/controllers", s.instrument("placement.list", true, s.handlePlacementList))
	mux.HandleFunc("PUT /v1/placement/controllers/{name}", s.instrument("placement.create", true, s.handlePlacementCreate))
	mux.HandleFunc("DELETE /v1/placement/controllers/{name}", s.instrument("placement.delete", true, s.handlePlacementDelete))
	mux.HandleFunc("POST /v1/placement/controllers/{name}/admit", s.instrument("placement.admit", true, s.handlePlacementAdmit))
	mux.HandleFunc("DELETE /v1/placement/controllers/{name}/tasks/{task}", s.instrument("placement.release", true, s.handlePlacementRelease))
	mux.HandleFunc("GET /v1/placement/controllers/{name}/resident", s.instrument("placement.resident", true, s.handlePlacementResident))
	mux.HandleFunc("GET /v1/controllers", s.instrument("controllers.list", true, s.handleControllerList))
	mux.HandleFunc("PUT /v1/controllers/{name}", s.instrument("controllers.create", true, s.handleControllerCreate))
	mux.HandleFunc("DELETE /v1/controllers/{name}", s.instrument("controllers.delete", true, s.handleControllerDelete))
	mux.HandleFunc("POST /v1/controllers/{name}/admit", s.instrument("controllers.admit", true, s.handleAdmit))
	mux.HandleFunc("DELETE /v1/controllers/{name}/tasks/{task}", s.instrument("controllers.release", true, s.handleRelease))
	mux.HandleFunc("GET /v1/controllers/{name}/resident", s.instrument("controllers.resident", true, s.handleResident))
	mux.HandleFunc("POST /v1/experiments", s.instrument("experiments.create", true, s.handleExperimentCreate))
	mux.HandleFunc("GET /v1/experiments", s.instrument("experiments.list", true, s.handleExperimentList))
	mux.HandleFunc("GET /v1/experiments/{id}", s.instrument("experiments.get", true, s.handleExperimentGet))
	mux.HandleFunc("DELETE /v1/experiments/{id}", s.instrument("experiments.cancel", true, s.handleExperimentCancel))
	// The stream holds the connection for the job's lifetime; it has no
	// request body worth capping.
	mux.HandleFunc("GET /v1/experiments/{id}/stream", s.instrument("experiments.stream", false, s.handleExperimentStream))
	s.mux = mux
	return s
}

// Close cancels any live experiment jobs, then releases the engine if
// the server created it (in that order: jobs hold engine slots).
func (s *Server) Close() {
	s.jobs.Close()
	if s.ownedEngine {
		s.engine.Close()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusRecorder captures the response status for metrics. Flush is
// forwarded so the streaming endpoint can push NDJSON lines through it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer
// (EnableFullDuplex on the streaming endpoint resolves through it).
func (r *statusRecorder) Unwrap() http.ResponseWriter {
	return r.ResponseWriter
}

// instrument wraps a handler with per-route counters and, when capBody
// is set, the whole-body size limit.
func (s *Server) instrument(route string, capBody bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if capBody && r.Body != nil && s.maxBodyBytes > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		elapsed := time.Since(start)
		s.mmu.Lock()
		m := s.metrics[route]
		if m == nil {
			m = &api.RouteMetrics{}
			s.metrics[route] = m
		}
		m.Requests++
		if rec.status >= 400 {
			m.Errors++
		}
		m.TotalNanos += uint64(elapsed.Nanoseconds())
		s.mmu.Unlock()
	}
}

// writeJSON sends v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeEncoded sends a 200 JSON response whose body a one-pass codec
// has already encoded as writeJSON would.
func writeEncoded(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// statusFor maps an error code to its transport status. Codes whose
// status depends on the site (limit_exceeded is 400 on analysis input
// but 409 on resident capacity) are written with an explicit status
// instead.
func statusFor(code api.ErrorCode) int {
	switch code {
	case api.CodeBodyTooLarge:
		return http.StatusRequestEntityTooLarge
	case api.CodeNotFound, api.CodeJobNotFound:
		return http.StatusNotFound
	case api.CodeConflict:
		return http.StatusConflict
	case api.CodeCancelled, api.CodeUnavailable, api.CodeNotReady, api.CodePeerUnavailable, api.CodeStoreFailed:
		return http.StatusServiceUnavailable
	case api.CodeInternal:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// writeError sends an api.Error at its default status.
func writeError(w http.ResponseWriter, e *api.Error) {
	writeJSON(w, statusFor(e.Code), e)
}

// writeErrorStatus sends an api.Error at an explicit status.
func writeErrorStatus(w http.ResponseWriter, status int, e *api.Error) {
	writeJSON(w, status, e)
}

// decodeErr classifies a body-decode failure: an oversized body (413,
// so clients know to shrink or split rather than fix syntax) versus
// malformed JSON (400).
func decodeErr(err error) *api.Error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return api.Errorf(api.CodeBodyTooLarge, "request body exceeds %d bytes", mbe.Limit).
			WithDetail("limit_bytes", strconv.FormatInt(mbe.Limit, 10))
	}
	return api.Errorf(api.CodeInvalidJSON, "invalid request: %v", err)
}

// decodeJSON strictly decodes the request body into v, rejecting unknown
// fields and trailing garbage so client typos fail loudly.
func decodeJSON(r *http.Request, v any) error { return decodeStrict(r.Body, v) }

// decodeAnalyze decodes an analyze request body with the one-pass
// AnalyzeRequest.ParseJSON, and with decodeJSON's strict decoder — which
// sees exactly the bytes, and the read error, that decoding the body
// directly would have seen — when the body falls outside ParseJSON's
// plain subset, so results and error text are decodeJSON's.
func decodeAnalyze(body io.Reader, req *api.AnalyzeRequest) error {
	rest, ok := jsonwire.ReadPlain(body, req.ParseJSON)
	if ok {
		return nil
	}
	*req = api.AnalyzeRequest{}
	return decodeStrict(rest, req)
}

// decodeStrict is decodeJSON over any reader.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// checkColumns validates the device description.
func checkColumns(columns int) *api.Error {
	if columns < 1 {
		return api.Errorf(api.CodeInvalidDevice, "columns must be at least 1").
			WithDetail("columns", strconv.Itoa(columns))
	}
	return nil
}

// checkSet validates one analysed/simulated set against the per-set cap,
// its intrinsic well-formedness, and the device. Invalid input is a
// client error, not an analysis outcome: without this, core's precheck
// would fold it into a 200 "schedulable: false" verdict (and cache it).
// The three failure classes carry distinct codes so clients can tell a
// too-big request (limit_exceeded) from a nonsense task
// (invalid_taskset) from a device mismatch (invalid_device).
func (s *Server) checkSet(set *task.Set, columns int) *api.Error {
	if s.maxTasks > 0 && set.Len() > s.maxTasks {
		return api.Errorf(api.CodeLimitExceeded, "%d tasks exceeds the per-set limit of %d", set.Len(), s.maxTasks).
			WithDetail("limit", strconv.Itoa(s.maxTasks))
	}
	if err := set.Validate(); err != nil {
		return api.Errorf(api.CodeInvalidTaskset, "%v", err)
	}
	for i, t := range set.Tasks {
		if t.A > columns {
			return api.Errorf(api.CodeInvalidDevice, "taskset index %d: area %d exceeds device area %d", i, t.A, columns).
				WithDetail("task_index", strconv.Itoa(i))
		}
	}
	return nil
}

// resolveTests resolves test identifiers through the shared registry,
// skipping blank entries like the CLI does. The first unknown name is
// reported with code unknown_test and named in Detail so clients can
// pinpoint the offender without parsing prose (GET /v1/tests lists the
// valid identifiers).
func resolveTests(names []string) ([]core.Test, []string, *api.Error) {
	tests := make([]core.Test, 0, len(names))
	clean := make([]string, 0, len(names))
	for _, n := range names {
		nn := strings.TrimSpace(n)
		if nn == "" {
			continue
		}
		t, err := core.TestByName(nn)
		if err != nil {
			return nil, nil, api.Errorf(api.CodeUnknownTest, "%v", err).WithDetail("test", nn)
		}
		tests = append(tests, t)
		clean = append(clean, nn)
	}
	if len(tests) == 0 {
		return nil, nil, api.Errorf(api.CodeInvalidRequest, "no tests selected")
	}
	return tests, clean, nil
}

// ---- /healthz, /readyz ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.HealthResponse{Status: "ok"})
}

// SetDraining flips the readiness probe to 503 not_ready. fpgaschedd
// calls it on shutdown before http.Server.Shutdown, so load balancers
// and fleet clients stop routing new work here while in-flight requests
// drain. Liveness (/healthz) is unaffected — the process is still
// healthy, just leaving.
func (s *Server) SetDraining() {
	s.draining.Store(true)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, api.Errorf(api.CodeNotReady, "draining for shutdown"))
		return
	}
	if s.notReady.Load() {
		writeError(w, api.Errorf(api.CodeNotReady, "recovering controller state from the durable store"))
		return
	}
	writeJSON(w, http.StatusOK, api.HealthResponse{Status: "ok"})
}

// ---- /v1/cache/lookup ----

// handleCacheLookup answers a peer's verdict-cache probe under the
// node-invariant memoization key (test, columns, fingerprint). The
// semantics are strictly hit-or-miss: a miss is a well-formed 200, and
// no code path here can start an analysis — the request carries only
// the fingerprint, from which no taskset can be reconstructed. That
// structural property is what keeps a fleet free of fetch-triggered
// analysis storms: cold work always runs on the node whose client asked
// for it.
func (s *Server) handleCacheLookup(w http.ResponseWriter, r *http.Request) {
	var req api.CacheLookupRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, decodeErr(err))
		return
	}
	if e := checkColumns(req.Columns); e != nil {
		writeError(w, e)
		return
	}
	// Resolve the test name so the probe keys the cache exactly as the
	// analyze path does (and so unknown names fail loudly rather than
	// miss forever).
	t, err := lookupTest(strings.TrimSpace(req.Test))
	if err != nil {
		writeError(w, api.Errorf(api.CodeUnknownTest, "%v", err).WithDetail("test", req.Test))
		return
	}
	fp, err := task.ParseFingerprint(req.Fingerprint)
	if err != nil {
		writeError(w, api.Errorf(api.CodeInvalidRequest, "%v", err))
		return
	}
	// The peer reconstructs and caches a full certificate, so a
	// decision-only entry is upgraded (one exact replay) before it is
	// served.
	v, ok := s.engine.PeekCanonical(r.Context(), t.Name(), req.Columns, fp, true)
	if s.fleet != nil {
		s.fleet.RecordLookupServed(ok)
	}
	resp := api.CacheLookupResponse{Hit: ok}
	if ok {
		cert := api.VerdictFromCore(v, true)
		resp.Verdict = &cert
	}
	writeJSON(w, http.StatusOK, resp)
}

// lookupTest resolves a cache lookup's test: a registry identifier, or
// the test's Name() — the cache key's test component, which is what
// peers send. The two differ only for the composites ("any-nf" names
// the test whose Name() is "any(DP|GN1|GN2)").
func lookupTest(name string) (core.Test, error) {
	t, err := core.TestByName(name)
	if err == nil {
		return t, nil
	}
	for _, id := range core.TestNames() {
		if t, _ := core.TestByName(id); t.Name() == name {
			return t, nil
		}
	}
	return nil, err
}

// ---- /metrics ----

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mmu.Lock()
	httpStats := make(map[string]api.RouteMetrics, len(s.metrics))
	for k, v := range s.metrics {
		httpStats[k] = *v
	}
	s.mmu.Unlock()
	resp := api.MetricsResponse{
		Engine: api.EngineStatsFrom(s.engine.Stats()),
		HTTP:   httpStats,
	}
	if s.fleet != nil {
		resp.Cluster = s.fleet.Metrics()
	}
	if st := s.getStore(); st != nil {
		wm := api.WALMetricsFrom(st.Metrics())
		// The server latches on any failed append, whether or not the
		// Store implementation latches too, so report degraded if
		// either side saw it.
		wm.Degraded = wm.Degraded || s.degraded.Load()
		resp.WAL = &wm
	}
	if ctrls := s.controllers.snapshot(); len(ctrls) > 0 {
		var am api.AdmissionMetrics
		for _, c := range ctrls {
			am.Add(c.t.ctrl.Stats())
		}
		resp.Admission = &am
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- /v1/tests ----

func (s *Server) handleTests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.TestsResponse{Tests: core.TestNames(), Details: core.TestInfos()})
}

// ---- /v1/analyze ----

// analyzeSets fans (sets × tests) across the engine pool under ctx and
// folds the verdicts into per-set results. With explain the verdicts
// carry their full certificates (per-task checks, composite
// sub-verdicts). It is shared by the unary and streaming analysis
// endpoints.
//
// In peer mode each (set, test) pair first tries the distributed cache:
// the local LRU, then — when another node owns the fingerprint — a
// bounded fetch from that owner. Anything unresolved falls through to
// local analysis exactly as in single-node mode, so a dead or slow
// owner costs one bounded fetch attempt (or none, once its breaker
// opens), never a client-visible error.
func (s *Server) analyzeSets(ctx context.Context, columns int, sets []*task.Set, tests []core.Test, explain bool) ([]api.AnalyzeResult, *api.Error) {
	reqs := make([]engine.Request, 0, len(sets)*len(tests))
	for _, set := range sets {
		for _, t := range tests {
			reqs = append(reqs, engine.Request{Columns: columns, Set: set, Test: t, OmitChecks: !explain})
		}
	}
	wire := make([]api.Verdict, len(reqs))
	schedulable := make([]bool, len(reqs))
	coldIdx := make([]int, 0, len(reqs))
	if s.fleet == nil {
		for i := range reqs {
			coldIdx = append(coldIdx, i)
		}
	} else {
		for i, r := range reqs {
			if v, sched, ok := s.clusterVerdict(ctx, r, explain); ok {
				wire[i], schedulable[i] = v, sched
			} else {
				coldIdx = append(coldIdx, i)
			}
		}
	}
	cold := make([]engine.Request, len(coldIdx))
	for j, i := range coldIdx {
		cold[j] = reqs[i]
	}
	verdicts, err := s.engine.AnalyzeAll(ctx, cold)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, api.Errorf(api.CodeCancelled, "request cancelled while analyses were queued or running")
		}
		return nil, api.Errorf(api.CodeUnavailable, "engine: %v", err)
	}
	for j, i := range coldIdx {
		wire[i] = api.VerdictFromCore(verdicts[j], explain)
		schedulable[i] = verdicts[j].Schedulable
	}
	results := make([]api.AnalyzeResult, len(sets))
	for i := range sets {
		res := api.AnalyzeResult{}
		for j := range tests {
			k := i*len(tests) + j
			res.Verdicts = append(res.Verdicts, wire[k])
			if schedulable[k] {
				res.Schedulable = true
			}
		}
		results[i] = res
	}
	return results, nil
}

// clusterVerdict resolves one analysis through the distributed cache:
// local LRU first (free, and peer writebacks land there), then a fetch
// from the owning peer when that is someone else. It returns ok=false
// when the request must be analysed locally — because this node owns
// the fingerprint and has no cached verdict (the normal cold case), or
// because the owner was unreachable, slow, breaker-open, answered a
// certificate that does not rebuild, or simply missed (the degraded
// case; RecordRemote tallies which). A peer hit is seeded into the
// local LRU and then served exactly as a local hit — remapped by
// engine.RemapVerdict and converted once — so the wire verdict is the
// one the local path would produce.
func (s *Server) clusterVerdict(ctx context.Context, r engine.Request, explain bool) (api.Verdict, bool, bool) {
	perm := r.Set.CanonicalPerm()
	fp := r.Set.FingerprintFromPerm(perm)
	name := r.Test.Name()
	v, ok := s.engine.PeekCanonical(ctx, name, r.Columns, fp, explain)
	if !ok {
		owner := s.fleet.Owner(fp)
		if owner == s.fleet.Self() {
			return api.Verdict{}, false, false
		}
		v, ok = s.fleet.Fetch(ctx, owner, r.Columns, name, fp)
		s.fleet.RecordRemote(ok)
		if !ok {
			return api.Verdict{}, false, false
		}
		// Seed the local LRU so repeats of this hot set skip the network.
		s.engine.InsertCanonical(name, r.Columns, fp, v)
	}
	v = engine.RemapVerdict(v, perm, !explain)
	return api.VerdictFromCore(v, explain), v.Schedulable, true
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req api.AnalyzeRequest
	if err := decodeAnalyze(r.Body, &req); err != nil {
		writeError(w, decodeErr(err))
		return
	}
	if (req.Taskset == nil) == (len(req.Tasksets) == 0) {
		writeError(w, api.Errorf(api.CodeInvalidRequest, "exactly one of taskset and tasksets must be given"))
		return
	}
	if e := checkColumns(req.Columns); e != nil {
		writeError(w, e)
		return
	}
	names := req.Tests
	if len(names) == 0 {
		names = []string{"any-nf"}
	}
	tests, _, apiErr := resolveTests(names)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	sets := req.Tasksets
	single := req.Taskset != nil
	if single {
		sets = []*task.Set{req.Taskset}
	}
	for i, set := range sets {
		if set == nil {
			writeError(w, api.Errorf(api.CodeInvalidRequest, "taskset %d: null", i))
			return
		}
		if e := s.checkSet(set, req.Columns); e != nil {
			e.Message = fmt.Sprintf("taskset %d: %s", i, e.Message)
			writeError(w, e)
			return
		}
	}
	if s.maxBatch > 0 && len(sets)*len(tests) > s.maxBatch {
		writeError(w, api.Errorf(api.CodeLimitExceeded,
			"%d tasksets x %d tests exceeds the per-request analysis limit of %d",
			len(sets), len(tests), s.maxBatch).WithDetail("limit", strconv.Itoa(s.maxBatch)))
		return
	}
	results, apiErr := s.analyzeSets(r.Context(), req.Columns, sets, tests, req.Detail || req.Explain)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	resp := api.AnalyzeResponse{Columns: req.Columns}
	if single {
		resp.Result = &results[0]
	} else {
		resp.Results = results
	}
	writeEncoded(w, resp.AppendJSON(nil))
}

// ---- /v1/simulate ----

// simConfig validates the request fields the unary and trace simulation
// endpoints share (they accept the same shape by design) and builds the
// policy and options: taskset presence and validity, scheduler
// vocabulary, horizon parsing and the server horizon limits.
func (s *Server) simConfig(columns int, set *task.Set, scheduler, horizon, horizonCap string, continueAfterMiss bool) (sim.Policy, sim.Options, *api.Error) {
	var opts sim.Options
	if set == nil {
		return nil, opts, api.Errorf(api.CodeInvalidRequest, "taskset is required")
	}
	if e := checkColumns(columns); e != nil {
		return nil, opts, e
	}
	if e := s.checkSet(set, columns); e != nil {
		return nil, opts, e
	}
	var pol sim.Policy
	switch scheduler {
	case "", "nf":
		pol = sched.NextFit{}
	case "fkf":
		pol = sched.FirstKFit{}
	default:
		return nil, opts, api.Errorf(api.CodeUnknownScheduler, "unknown scheduler %q (known: nf, fkf)", scheduler).
			WithDetail("scheduler", scheduler)
	}
	opts.ContinueAfterMiss = continueAfterMiss
	var err error
	if horizon != "" {
		if opts.Horizon, err = timeunit.Parse(horizon); err != nil {
			return nil, opts, api.Errorf(api.CodeInvalidHorizon, "horizon: %v", err)
		}
		// An explicit non-positive horizon would silently mean "auto";
		// reject it so clients learn about the fallback loudly.
		if opts.Horizon <= 0 {
			return nil, opts, api.Errorf(api.CodeInvalidHorizon, "horizon: %q must be positive (omit it for the automatic horizon)", horizon)
		}
	}
	if horizonCap != "" {
		if opts.HorizonCap, err = timeunit.Parse(horizonCap); err != nil {
			return nil, opts, api.Errorf(api.CodeInvalidHorizon, "horizon_cap: %v", err)
		}
		if opts.HorizonCap <= 0 {
			return nil, opts, api.Errorf(api.CodeInvalidHorizon, "horizon_cap: %q must be positive (omit it for the default cap)", horizonCap)
		}
	}
	if s.maxSimHorizon > 0 {
		if opts.Horizon > s.maxSimHorizon {
			return nil, opts, api.Errorf(api.CodeLimitExceeded, "horizon: %q exceeds the server limit of %v time units", horizon, s.maxSimHorizon).
				WithDetail("limit", s.maxSimHorizon.String())
		}
		if opts.HorizonCap > s.maxSimHorizon {
			return nil, opts, api.Errorf(api.CodeLimitExceeded, "horizon_cap: %q exceeds the server limit of %v time units", horizonCap, s.maxSimHorizon).
				WithDetail("limit", s.maxSimHorizon.String())
		}
		if opts.HorizonCap == 0 {
			// Bound the automatic horizon too; it otherwise defaults to
			// min(hyperperiod, sim.DefaultHorizonCap), which is already
			// below the limit, but be explicit for future-proofing.
			opts.HorizonCap = timeunit.Min(s.maxSimHorizon, sim.DefaultHorizonCap)
		}
	}
	return pol, opts, nil
}

// acquireSimSlot bounds concurrent simulations: the engine pool protects
// analysis, and this semaphore keeps a simulate flood from pinning every
// connection goroutine. Queued waiters leave when the client does. The
// caller must arrange for releaseSimSlot exactly once when it returns
// true.
func (s *Server) acquireSimSlot(ctx context.Context) bool {
	select {
	case s.simSem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (s *Server) releaseSimSlot() { <-s.simSem }

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req api.SimulateRequest
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
	defer s.releaseSimSlot()
	res, err := sim.Simulate(req.Columns, req.Taskset, pol, opts)
	if err != nil {
		writeError(w, api.Errorf(api.CodeInvalidRequest, "simulate: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, api.SimulateResponseFromResult(res))
}

// ---- /v1/controllers ----

func (s *Server) tenantInfo(name string, t *tenant) api.ControllerInfo {
	return api.ControllerInfo{Name: name, Columns: t.columns, Tests: t.tests, Resident: t.ctrl.Len()}
}

func (s *Server) handleControllerList(w http.ResponseWriter, r *http.Request) {
	if !s.controllersReady(w) {
		return
	}
	ctrls := s.controllers.snapshot()
	infos := make([]api.ControllerInfo, 0, len(ctrls))
	for _, c := range ctrls {
		infos = append(infos, s.tenantInfo(c.name, c.t))
	}
	writeJSON(w, http.StatusOK, api.ControllerList{Controllers: infos})
}

func (s *Server) handleControllerCreate(w http.ResponseWriter, r *http.Request) {
	if !s.controllersReady(w) || !s.mutable(w) {
		return
	}
	name := r.PathValue("name")
	var req api.ControllerRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, decodeErr(err))
		return
	}
	if e := checkColumns(req.Columns); e != nil {
		writeError(w, e)
		return
	}
	names := req.Tests
	if len(names) == 0 {
		names = []string{"DP", "GN1", "GN2"}
	}
	// Echo only the names that resolve to a test: resolveTests skips
	// blank entries, and the stored list must describe what actually
	// gates admissions.
	tests, clean, apiErr := resolveTests(names)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	ctrl, err := admission.NewController(req.Columns, tests...)
	if err != nil {
		writeError(w, api.Errorf(api.CodeInvalidRequest, "%v", err))
		return
	}
	t := &tenant{ctrl: ctrl, columns: req.Columns, tests: clean}
	if !s.controllers.create(w, name, t, s.logStep(w, recCreateController(name, req.Columns, clean))) {
		return
	}
	writeJSON(w, http.StatusCreated, s.tenantInfo(name, t))
}

func (s *Server) handleControllerDelete(w http.ResponseWriter, r *http.Request) {
	if !s.controllersReady(w) || !s.mutable(w) {
		return
	}
	name := r.PathValue("name")
	if s.controllers.delete(w, name, s.logStep(w, recDeleteController(name))) {
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	if !s.controllersReady(w) || !s.mutable(w) {
		return
	}
	name := r.PathValue("name")
	if _, ok := s.controllers.get(w, name); !ok {
		return
	}
	var tk task.Task
	if err := decodeJSON(r, &tk); err != nil {
		writeError(w, decodeErr(err))
		return
	}
	t, ok := s.controllers.lock(w, name)
	if !ok {
		return
	}
	defer t.mu.Unlock()
	// Cap the resident set like any analysed set: each admission re-runs
	// the superlinear tests over all residents, so unbounded growth is
	// the same DoS MaxTasks closes on /v1/analyze.
	if s.maxTasks > 0 && t.ctrl.Len() >= s.maxTasks {
		writeErrorStatus(w, http.StatusConflict,
			api.Errorf(api.CodeLimitExceeded, "controller %q is at the %d-task resident capacity", name, s.maxTasks).
				WithDetail("limit", strconv.Itoa(s.maxTasks)))
		return
	}
	// Only admissions are logged; a rejection has nothing to persist.
	d, err := t.ctrl.RequestLogged(r.Context(), tk, s.logStep(w, recAdmit(name, tk)))
	if err != nil {
		return // the log step has answered 503 store_failed
	}
	if d.Err != nil {
		// An aborted analysis is not a domain answer: a 200
		// admitted:false would make clients record a definitive
		// rejection when a retry might admit.
		writeError(w, api.Errorf(api.CodeCancelled, "admission analysis aborted: %v", d.Err))
		return
	}
	resp := api.AdmitResponse{Admitted: d.Admitted, ProvedBy: d.ProvedBy, Reason: d.Reason, Certificate: d.Certificate}
	writeEncoded(w, resp.AppendJSON(nil))
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	if !s.controllersReady(w) || !s.mutable(w) {
		return
	}
	name := r.PathValue("name")
	t, ok := s.controllers.lock(w, name)
	if !ok {
		return
	}
	defer t.mu.Unlock()
	taskName := r.PathValue("task")
	resident, err := t.ctrl.ReleaseLogged(taskName, s.logStep(w, recRelease(name, taskName)))
	switch {
	case err != nil:
		// The log step has answered 503 store_failed.
	case !resident:
		writeError(w, api.Errorf(api.CodeNotFound, "no resident task %q in controller %q", taskName, name))
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *Server) handleResident(w http.ResponseWriter, r *http.Request) {
	if !s.controllersReady(w) {
		return
	}
	name := r.PathValue("name")
	t, ok := s.controllers.get(w, name)
	if !ok {
		return
	}
	resident := t.ctrl.Resident()
	writeJSON(w, http.StatusOK, api.ResidentResponse{
		Name:         name,
		Columns:      t.columns,
		Count:        resident.Len(),
		UtilizationS: resident.UtilizationS().FloatString(4),
		Taskset:      resident,
	})
}
