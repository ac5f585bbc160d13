// Package client is the official Go SDK for the fpgaschedd HTTP API.
// It speaks the v1 wire contract defined by the top-level api package —
// no consumer needs to hand-roll JSON — and adds the transport
// plumbing a production caller wants:
//
//   - per-call context.Context on every method, cancelling the server
//     side too (the daemon abandons queued analyses when a client goes
//     away);
//   - opt-in retries with jittered exponential backoff on transport
//     errors and 5xx responses, applied only to calls that are safe to
//     repeat (pure analyses, simulations and reads — never Admit);
//   - connection reuse: one Client shares one http.Client (and so one
//     connection pool) across calls and goroutines;
//   - typed errors: any non-2xx response is returned as *api.Error with
//     the machine-readable code and HTTP status filled in.
//
// A Client is safe for concurrent use.
//
//	c, err := client.New("http://localhost:8080")
//	resp, err := c.Analyze(ctx, api.AnalyzeRequest{Columns: 10, Taskset: set})
//
// For large batches use AnalyzeStream, which feeds the server's NDJSON
// streaming endpoint and hands results to a callback as they complete —
// memory stays bounded on both sides regardless of batch size.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"time"

	"fpgasched/api"
	"fpgasched/internal/jsonwire"
)

// Certificate is the machine-readable proof attached to a verdict when
// the request set explain: the per-task bound inequalities with exact
// rational LHS/RHS strings (and, for GN2, the witnessing λ and
// condition), plus — for composite tests — which member accepted
// (accepted_by) and every evaluated member's own certificate
// (sub_verdicts). It is the same type as api.Verdict: every verdict IS
// its certificate, with the proof fields populated only under explain.
//
// Certificates of accepting verdicts can be re-verified independently
// with exact arithmetic. The absence of a certificate never proves
// unschedulability — the underlying tests are sufficient only.
type Certificate = api.Verdict

// Client calls a fpgaschedd daemon. Create with New.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
}

// Option customises a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (custom
// transports, TLS configuration, global timeouts). The default is a
// dedicated client with the standard transport.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetries enables up to n retries (n+1 total attempts) on transport
// errors and 5xx responses for idempotent calls. The default is 0 —
// fail fast.
func WithRetries(n int) Option {
	return func(c *Client) { c.retries = n }
}

// WithRetryBackoff sets the base delay between attempts. Retry k waits
// a uniform draw from [d/2, d) where d = backoff × 2^(k-1), capped at
// maxBackoff and respecting the call's context: exponential so repeated
// failures back off fast, jittered so a fleet of clients that failed
// together does not retry together. The default base is 100ms.
func WithRetryBackoff(d time.Duration) Option {
	return func(c *Client) { c.backoff = d }
}

// New returns a Client for the daemon at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http or https", baseURL)
	}
	c := &Client{
		base:    strings.TrimRight(u.String(), "/"),
		hc:      &http.Client{},
		backoff: 100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	if c.retries < 0 {
		c.retries = 0
	}
	return c, nil
}

// retryable reports whether an attempt outcome warrants another try.
func retryable(status int, err error) bool {
	return err != nil || status >= 500
}

// maxBackoff caps the exponential growth of retry delays.
const maxBackoff = 5 * time.Second

// backoffFor returns the jittered delay before retry k (k ≥ 1). See
// WithRetryBackoff for the contract.
func (c *Client) backoffFor(k int) time.Duration {
	d := c.backoff
	for i := 1; i < k && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	if d < 2 {
		return d // too small to jitter (and rand.N panics on 0)
	}
	return d/2 + rand.N(d-d/2)
}

// do issues one JSON call. in (when non-nil) is marshalled once and
// replayed on retries; out (when non-nil) receives the 2xx body. retry
// opts the call into the configured retry policy.
//
// A retried DELETE answered 404 not_found is success: the earlier
// attempt may have been delivered and its 204 lost in transit, and
// surfacing that 404 would report a completed delete as a failure. A
// first-attempt not_found still surfaces (nothing was there to delete),
// as does any other 404 code, such as job_not_found. A 503
// store_failed retries like any 5xx: the server never logged the
// delete, so the resource still exists.
func (c *Client) do(ctx context.Context, method, path string, in, out any, retry bool) error {
	var body []byte
	switch v := in.(type) {
	case nil:
	case *api.AnalyzeRequest:
		body = v.AppendJSON(nil)
	default:
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	attempts := 1
	if retry {
		attempts += c.retries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(c.backoffFor(attempt)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		var rdr io.Reader
		if in != nil {
			rdr = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rdr)
		if err != nil {
			return fmt.Errorf("client: building request: %w", err)
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
			continue
		}
		if attempt > 0 && method == http.MethodDelete && resp.StatusCode == http.StatusNotFound {
			if e := readError(resp); e.Code != api.CodeNotFound {
				return e
			}
			return nil
		}
		if retryable(resp.StatusCode, nil) && attempt+1 < attempts {
			lastErr = readError(resp)
			continue
		}
		return finish(resp, out)
	}
	return fmt.Errorf("client: %s %s failed after %d attempts: %w", method, path, attempts, lastErr)
}

// finish consumes a response: decode out on 2xx, a typed error
// otherwise. The body is always drained and closed so the connection
// returns to the pool.
func finish(resp *http.Response, out any) error {
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return readError(resp)
	}
	defer drain(resp)
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return nil
	}
	var err error
	switch o := out.(type) {
	case *api.AdmitResponse:
		err = decodePlain(resp.Body, o)
	case *api.AnalyzeResponse:
		err = decodePlain(resp.Body, o)
	default:
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	if err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// plainParser is a response with a one-pass codec: ParseJSON decodes
// the plain subset of its JSON and refuses anything else.
type plainParser[T any] interface {
	*T
	ParseJSON(data []byte) bool
}

// decodePlain decodes a response body with its one-pass ParseJSON, and
// with json.Decoder — which sees exactly the bytes, and the read error,
// a streaming decode would have seen — when the body falls outside
// ParseJSON's plain subset, so results and error text match a plain
// json.Decoder decode.
func decodePlain[T any, P plainParser[T]](body io.Reader, out P) error {
	rest, ok := jsonwire.ReadPlain(body, out.ParseJSON)
	if ok {
		return nil
	}
	*out = *new(T)
	return json.NewDecoder(rest).Decode(out)
}

// readError converts a non-2xx response into *api.Error, synthesising
// one when the body is not a wire error (a proxy page, say).
func readError(resp *http.Response) *api.Error {
	defer drain(resp)
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var e api.Error
	if err := json.Unmarshal(data, &e); err != nil || e.Message == "" {
		code := api.CodeInternal
		if resp.StatusCode == http.StatusServiceUnavailable {
			code = api.CodeUnavailable
		}
		e = api.Error{Code: code, Message: fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))}
	}
	e.HTTPStatus = resp.StatusCode
	return &e
}

// drain discards any unread body and closes it (required for
// connection reuse).
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

// Health checks GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	var out api.HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out, true); err != nil {
		return err
	}
	if out.Status != "ok" {
		return fmt.Errorf("client: daemon unhealthy: %q", out.Status)
	}
	return nil
}

// Ready checks GET /readyz: nil while the daemon accepts new work, an
// *api.Error with code not_ready once it is draining for shutdown.
func (c *Client) Ready(ctx context.Context) error {
	var out api.HealthResponse
	if err := c.do(ctx, http.MethodGet, "/readyz", nil, &out, false); err != nil {
		return err
	}
	if out.Status != "ok" {
		return fmt.Errorf("client: daemon not ready: %q", out.Status)
	}
	return nil
}

// Metrics fetches GET /metrics.
func (c *Client) Metrics(ctx context.Context) (*api.MetricsResponse, error) {
	var out api.MetricsResponse
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// tests fetches GET /v1/tests once; Tests and TestInfos are views of
// the same response.
func (c *Client) tests(ctx context.Context) (api.TestsResponse, error) {
	var out api.TestsResponse
	err := c.do(ctx, http.MethodGet, "/v1/tests", nil, &out, true)
	return out, err
}

// Tests fetches the test-name registry (GET /v1/tests): the valid
// identifiers for every tests field, so callers can discover rather
// than guess.
func (c *Client) Tests(ctx context.Context) ([]string, error) {
	out, err := c.tests(ctx)
	if err != nil {
		return nil, err
	}
	return out.Tests, nil
}

// TestInfos fetches the enriched test registry (GET /v1/tests): for
// each identifier, a one-line description and the scheduler classes it
// is sound for ("both", "nf" or "fkf"), so callers gating admission for
// EDF-FkF can select valid tests instead of hardcoding which are
// legal. Each entry's Name matches the corresponding Tests identifier,
// so one TestInfos call serves callers that want both.
func (c *Client) TestInfos(ctx context.Context) ([]api.TestInfo, error) {
	out, err := c.tests(ctx)
	if err != nil {
		return nil, err
	}
	return out.Details, nil
}

// Analyze runs a single or batch analysis (POST /v1/analyze). Analyses
// are pure, so the call is retried under the configured policy.
func (c *Client) Analyze(ctx context.Context, req api.AnalyzeRequest) (*api.AnalyzeResponse, error) {
	var out api.AnalyzeResponse
	if err := c.do(ctx, http.MethodPost, "/v1/analyze", &req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Simulate runs one simulation (POST /v1/simulate). Simulations are
// pure, so the call is retried under the configured policy.
func (c *Client) Simulate(ctx context.Context, req api.SimulateRequest) (*api.SimulateResponse, error) {
	var out api.SimulateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/simulate", req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// AnalyzeStream drives POST /v1/analyze/stream: requests are encoded as
// NDJSON lines as the iterator yields them, and fn is called for each
// result line as the server emits it — out of order, tagged with the
// 0-based index of the request it answers. Memory stays bounded on both
// sides for arbitrarily long batches.
//
// fn returning a non-nil error aborts the stream and returns that
// error. The call is never retried (the request body is a stream); for
// per-line failures the server keeps the stream alive and reports a
// StreamResult carrying an *api.Error instead.
func (c *Client) AnalyzeStream(ctx context.Context, reqs iter.Seq[api.StreamRequest], fn func(api.StreamResult) error) error {
	results := stream[api.StreamResult](ctx, c, func(ctx context.Context) (*http.Request, error) {
		pr, pw := io.Pipe()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/analyze/stream", pr)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		go func() {
			enc := json.NewEncoder(pw)
			for r := range reqs {
				if ctx.Err() != nil {
					pw.CloseWithError(ctx.Err())
					return
				}
				if err := enc.Encode(r); err != nil {
					pw.CloseWithError(err)
					return
				}
			}
			pw.Close()
		}()
		return req, nil
	})
	for res, err := range results {
		if err != nil {
			return err
		}
		if err := fn(res); err != nil {
			return err
		}
	}
	return nil
}

// stream sends the request newReq builds under a context derived from
// ctx and yields the NDJSON values of its 200 response in order, as
// (value, nil) or, once, (zero, err). A request that cannot be built
// yields "client: building request"; a transport failure yields ctx's
// error when ctx is done and the transport's otherwise; any other
// status yields its *api.Error. EOF ends the sequence; a decode failure
// yields ctx's error when ctx is done, else "client: decoding stream".
// The derived context is cancelled before the body is drained, so a
// consumer that stops early closes the stream instead of reading the
// rest of it.
func stream[T any](ctx context.Context, c *Client, newReq func(context.Context) (*http.Request, error)) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		var zero T
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		req, err := newReq(ctx)
		if err != nil {
			yield(zero, fmt.Errorf("client: building request: %w", err))
			return
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				err = ctx.Err()
			}
			yield(zero, err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			yield(zero, readError(resp))
			return
		}
		// Cancel before draining: the drain must find a dead request,
		// not read the rest of a live stream (defers run LIFO, so the
		// earlier `defer cancel()` alone would drain first).
		defer func() {
			cancel()
			drain(resp)
		}()
		dec := json.NewDecoder(resp.Body)
		for {
			var v T
			if err := dec.Decode(&v); err != nil {
				if errors.Is(err, io.EOF) {
					return
				}
				if ctx.Err() != nil {
					err = ctx.Err()
				} else {
					err = fmt.Errorf("client: decoding stream: %w", err)
				}
				yield(zero, err)
				return
			}
			if !yield(v, nil) {
				return
			}
		}
	}
}

// CreateController creates a named admission controller
// (PUT /v1/controllers/{name}). Not retried: a duplicate create is a
// conflict, and a retry racing its own first attempt would
// misreport one.
func (c *Client) CreateController(ctx context.Context, name string, req api.ControllerRequest) (*api.ControllerInfo, error) {
	var out api.ControllerInfo
	if err := c.do(ctx, http.MethodPut, "/v1/controllers/"+url.PathEscape(name), req, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteController drops a controller (DELETE /v1/controllers/{name}).
// Retried with delete semantics: a not_found on a retry attempt means an
// earlier delivery succeeded and is reported as success, so a delete
// whose 204 was lost in transit does not surface a spurious failure.
func (c *Client) DeleteController(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/controllers/"+url.PathEscape(name), nil, nil, true)
}

// Controllers lists the admission controllers (GET /v1/controllers).
func (c *Client) Controllers(ctx context.Context) ([]api.ControllerInfo, error) {
	var out api.ControllerList
	if err := c.do(ctx, http.MethodGet, "/v1/controllers", nil, &out, true); err != nil {
		return nil, err
	}
	return out.Controllers, nil
}

// Admit asks a controller to admit one task
// (POST /v1/controllers/{name}/admit). Never retried: admission mutates
// the resident set, and a retry of a delivered admit would double-count
// or misreport a duplicate.
func (c *Client) Admit(ctx context.Context, controller string, t api.Task) (*api.AdmitResponse, error) {
	var out api.AdmitResponse
	if err := c.do(ctx, http.MethodPost, "/v1/controllers/"+url.PathEscape(controller)+"/admit", t, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Release removes a resident task from a controller
// (DELETE /v1/controllers/{name}/tasks/{task}). Retried with delete
// semantics (see DeleteController): a retry answered not_found reports
// success.
func (c *Client) Release(ctx context.Context, controller, taskName string) error {
	return c.do(ctx, http.MethodDelete,
		"/v1/controllers/"+url.PathEscape(controller)+"/tasks/"+url.PathEscape(taskName), nil, nil, true)
}

// Resident snapshots a controller's resident set
// (GET /v1/controllers/{name}/resident).
func (c *Client) Resident(ctx context.Context, controller string) (*api.ResidentResponse, error) {
	var out api.ResidentResponse
	if err := c.do(ctx, http.MethodGet, "/v1/controllers/"+url.PathEscape(controller)+"/resident", nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// CreateExperiment submits one registered experiment as a background
// job (POST /v1/experiments) and returns its queued (or already
// running) job document. Not retried: a retry racing its own first
// attempt would start the experiment twice.
func (c *Client) CreateExperiment(ctx context.Context, req api.ExperimentRequest) (*api.ExperimentJob, error) {
	var out api.ExperimentJob
	if err := c.do(ctx, http.MethodPost, "/v1/experiments", req, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Experiment fetches one job's status (GET /v1/experiments/{id}),
// including the latest per-bin progress and, for done jobs, the full
// result.
func (c *Client) Experiment(ctx context.Context, id string) (*api.ExperimentJob, error) {
	var out api.ExperimentJob
	if err := c.do(ctx, http.MethodGet, "/v1/experiments/"+url.PathEscape(id), nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Experiments lists the daemon's retained jobs (GET /v1/experiments)
// in creation order.
func (c *Client) Experiments(ctx context.Context) ([]api.ExperimentJob, error) {
	var out api.ExperimentList
	if err := c.do(ctx, http.MethodGet, "/v1/experiments", nil, &out, true); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// CancelExperiment requests cancellation of a job
// (DELETE /v1/experiments/{id}) and returns the updated job document.
// Cancellation is idempotent (repeats and cancels of finished jobs are
// no-ops that re-report the state), so the call is retried under the
// configured policy.
func (c *Client) CancelExperiment(ctx context.Context, id string) (*api.ExperimentJob, error) {
	var out api.ExperimentJob
	if err := c.do(ctx, http.MethodDelete, "/v1/experiments/"+url.PathEscape(id), nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// StreamExperiment follows a job's NDJSON event stream
// (GET /v1/experiments/{id}/stream) as an iterator. The server replays
// the job's full event history from the first line and then follows
// live events, so the sequence is complete no matter when the caller
// attaches; it ends after the terminal line (a "result" event for done
// jobs, a terminal "state" event otherwise).
//
// Each iteration yields (event, nil) or, once, (zero, err) when the
// stream fails — a lookup failure (*api.Error with code job_not_found),
// a transport error, or ctx's cancellation. Breaking out of the loop
// early closes the stream. The call is never retried (a mid-stream
// retry would replay already-seen events).
func (c *Client) StreamExperiment(ctx context.Context, id string) iter.Seq2[api.ExperimentEvent, error] {
	return stream[api.ExperimentEvent](ctx, c, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/experiments/"+url.PathEscape(id)+"/stream", nil)
	})
}

// RunExperiment submits a job and follows its stream to completion:
// onProgress (when non-nil) receives every per-bin progress event, and
// the final result is returned once the job is done. A cancelled job
// (or ctx cancellation) returns ctx.Err() when the caller's context is
// dead, or an *api.Error describing the terminal state otherwise; a
// failed job returns its wire error.
//
// On every failure path the submitted job is best-effort cancelled
// server-side (with a short background-context DELETE, since ctx may
// already be dead), so abandoning a RunExperiment call does not leave
// an orphaned sweep burning a runner slot. Callers that want the job
// to outlive them should use CreateExperiment/StreamExperiment
// directly — jobs are detached by design.
func (c *Client) RunExperiment(ctx context.Context, req api.ExperimentRequest, onProgress func(api.ExperimentProgress)) (res *api.ExperimentResult, err error) {
	job, err := c.CreateExperiment(ctx, req)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err == nil {
			return
		}
		// Cancelling an already-terminal job is an idempotent no-op, so
		// this is safe even when the failure was the job's own terminal
		// state rather than an abandoned stream.
		bg, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = c.CancelExperiment(bg, job.ID)
	}()
	var last api.ExperimentEvent
	for ev, serr := range c.StreamExperiment(ctx, job.ID) {
		if serr != nil {
			return nil, serr
		}
		last = ev
		if ev.Type == api.ExperimentEventProgress && ev.Progress != nil && onProgress != nil {
			onProgress(*ev.Progress)
		}
	}
	switch {
	case last.Type == api.ExperimentEventResult && last.Result != nil:
		return last.Result, nil
	case last.Error != nil:
		return nil, last.Error
	case ctx.Err() != nil:
		return nil, ctx.Err()
	default:
		return nil, api.Errorf(api.CodeInternal, "experiment job %s ended in state %q without a result", job.ID, last.State)
	}
}
