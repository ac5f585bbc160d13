// Package jobs runs registered experiments (internal/experiments) as
// cancellable background jobs: the execution layer behind fpgaschedd's
// /v1/experiments endpoints. A Manager owns a bounded pool of runner
// slots; submitted jobs queue FIFO, move through the lifecycle
//
//	queued → running → done | cancelled | failed
//
// and record everything observable about their run in an append-only
// event log: the state transitions, one Progress event per completed
// utilization bin, and a terminal Output (or error). The log is the
// streaming contract — a subscriber that attaches at any point replays
// the full history from the first event and then follows live appends,
// so a progress stream is complete and deterministic no matter when the
// client connects.
//
// Analyses are routed through a serving engine when one is configured:
// every schedulability test a sweep evaluates goes through the engine's
// fingerprint-keyed memoizing cache, so repeated sweeps of overlapping
// tasksets (the same experiment re-run, or two experiments sharing a
// workload) are served warm. The verdicts are identical to direct
// evaluation because the tests are pure; determinism across worker
// counts and across local-vs-remote execution is therefore preserved.
//
// Cancellation is prompt and leak-free: Cancel (or Manager.Close)
// cancels the job's context, which the experiment polls between samples
// and inside each analysis (GN2's λ sweep), so a running sweep aborts
// mid-bin, releases its engine slots, and the job lands in state
// cancelled. A still-queued job is cancelled without ever occupying a
// runner slot.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"fpgasched/internal/core"
	"fpgasched/internal/engine"
	"fpgasched/internal/eventlog"
	"fpgasched/internal/experiments"
	"fpgasched/internal/task"
)

// State is a job lifecycle state.
type State string

// The job lifecycle. Queued and Running are live; Done, Cancelled and
// Failed are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateCancelled State = "cancelled"
	StateFailed    State = "failed"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// Params are the data knobs of one job, normalised at submission (the
// effective values are echoed in Status so clients see what actually
// ran).
type Params struct {
	// Experiment is the registered experiment ID (e.g. "fig3b").
	Experiment string
	// Samples, Seed, Workers and SimHorizonCap are the run options; see
	// experiments.RunOptions.
	Opts experiments.RunOptions
}

// Event is one entry of a job's append-only event log. Exactly one
// field group is populated: State for transitions (with Err on a failed
// terminal), Progress for per-bin progress, Output for the terminal
// result of a done job.
type Event struct {
	// State is non-empty on lifecycle transitions.
	State State
	// Progress is set on per-bin progress events.
	Progress *experiments.Progress
	// Output is set on the terminal event of a done job.
	Output *experiments.Output
	// Err is set alongside State == StateFailed.
	Err error
}

// Status is a point-in-time snapshot of a job.
type Status struct {
	ID     string
	Params Params
	State  State
	// Progress is the latest per-bin progress (nil before the first
	// event).
	Progress *experiments.Progress
	// Output is the result of a done job.
	Output *experiments.Output
	// Err explains a failed job.
	Err error
}

// Errors reported by Manager.Create.
var (
	// ErrUnknownExperiment: the requested ID is not in the registry.
	ErrUnknownExperiment = errors.New("jobs: unknown experiment")
	// ErrTooManyJobs: the manager is at capacity and every retained job
	// is still live (nothing can be evicted).
	ErrTooManyJobs = errors.New("jobs: too many jobs")
	// ErrClosed: the manager has been closed.
	ErrClosed = errors.New("jobs: manager closed")
)

// Defaults for Config zero values.
const (
	// DefaultSlots bounds concurrently running jobs. Every sampled
	// experiment is internally parallel (RunOptions.Workers), so a
	// small slot count already saturates the machine.
	DefaultSlots = 2
	// DefaultMaxJobs bounds retained jobs (queued + running + finished).
	// When full, the oldest finished job is evicted to admit a new one.
	DefaultMaxJobs = 256
)

// Config sizes a Manager. The zero value is usable.
type Config struct {
	// Engine, when non-nil, serves every schedulability analysis the
	// jobs run, so sweeps share its memoizing verdict cache. Nil means
	// direct evaluation.
	Engine *engine.Engine
	// Slots bounds concurrently running jobs; 0 means DefaultSlots.
	Slots int
	// MaxJobs bounds retained jobs; 0 means DefaultMaxJobs.
	MaxJobs int
}

// Manager schedules experiment jobs over a bounded runner pool. Create
// with New; a Manager is safe for concurrent use.
type Manager struct {
	eng     *engine.Engine
	maxJobs int
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu      sync.Mutex
	wake    *sync.Cond // runners wait here for pending work
	pending []*Job     // FIFO of queued jobs
	jobs    map[string]*Job
	order   []string // creation order, for List and eviction
	seq     int
	closed  bool
}

// New returns a running Manager with cfg's sizing.
func New(cfg Config) *Manager {
	slots := cfg.Slots
	if slots <= 0 {
		slots = DefaultSlots
	}
	maxJobs := cfg.MaxJobs
	if maxJobs <= 0 {
		maxJobs = DefaultMaxJobs
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		eng:     cfg.Engine,
		maxJobs: maxJobs,
		ctx:     ctx,
		cancel:  cancel,
		jobs:    make(map[string]*Job),
	}
	m.wake = sync.NewCond(&m.mu)
	m.wg.Add(slots)
	for i := 0; i < slots; i++ {
		go m.runner()
	}
	return m
}

// Close cancels every live job, stops the runners and waits for them.
// Close is idempotent; Create after Close returns ErrClosed.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	m.cancel()
	m.mu.Lock()
	m.wake.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
}

// Create submits one experiment job and returns it in state queued.
// Params are normalised (experiments.RunOptions.WithDefaults) before
// storage, so the echoed Status shows the effective knobs. When the
// manager is at MaxJobs, the oldest finished job is evicted; if every
// retained job is live, Create fails with ErrTooManyJobs.
func (m *Manager) Create(p Params) (*Job, error) {
	def, ok := experiments.Lookup(p.Experiment)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownExperiment, p.Experiment)
	}
	p.Opts = p.Opts.WithDefaults()
	// Job-level hooks (progress, engine analyze) are installed by the
	// runner; a caller-supplied callback would race the event log.
	p.Opts.OnProgress = nil
	p.Opts.Analyze = nil

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if len(m.jobs) >= m.maxJobs && !m.evictLocked() {
		return nil, fmt.Errorf("%w (limit %d, none finished)", ErrTooManyJobs, m.maxJobs)
	}
	m.seq++
	ctx, cancel := context.WithCancel(m.ctx)
	j := &Job{
		ID:       fmt.Sprintf("exp-%d", m.seq),
		Params:   p,
		def:      def,
		ctx:      ctx,
		cancelFn: cancel,
		state:    StateQueued,
	}
	j.log.Append(Event{State: StateQueued}, false)
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.pending = append(m.pending, j)
	m.wake.Signal()
	return j, nil
}

// evictLocked drops the oldest finished job; it reports false when
// every retained job is still live.
func (m *Manager) evictLocked() bool {
	for i, id := range m.order {
		j := m.jobs[id]
		if j != nil && j.Status().State.Terminal() {
			delete(m.jobs, id)
			m.order = append(m.order[:i], m.order[i+1:]...)
			return true
		}
	}
	return false
}

// Get fetches a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List snapshots every retained job in creation order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		if j := m.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// runner consumes queued jobs until the manager closes. Pending jobs
// left at close are already cancelled (Close cancels before waking), so
// abandoning them is their terminal state, not lost work.
func (m *Manager) runner() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.pending) == 0 && !m.closed {
			m.wake.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		j := m.pending[0]
		m.pending = m.pending[1:]
		m.mu.Unlock()
		m.run(j)
	}
}

// run drives one job from queued to a terminal state.
func (m *Manager) run(j *Job) {
	if !j.toRunning() {
		return // cancelled while queued; already terminal
	}
	opts := j.Params.Opts
	opts.OnProgress = j.appendProgress
	if m.eng != nil {
		opts.Analyze = func(ctx context.Context, columns int, set *task.Set, t core.Test) (core.Verdict, error) {
			return m.eng.Analyze(ctx, engine.Request{Columns: columns, Set: set, Test: t, OmitChecks: true})
		}
	}
	out, err := j.def.Run(j.ctx, opts)
	switch {
	case err == nil:
		j.finish(Event{State: StateDone, Output: out}, out, nil)
	case errors.Is(err, context.Canceled) || j.ctx.Err() != nil:
		j.finish(Event{State: StateCancelled}, nil, nil)
	default:
		j.finish(Event{State: StateFailed, Err: err}, nil, err)
	}
}

// Job is one submitted experiment run. Fields are immutable after
// creation except the guarded lifecycle state and event log.
type Job struct {
	// ID is the manager-unique job identifier ("exp-7").
	ID string
	// Params are the normalised submission parameters.
	Params Params

	def      experiments.Definition
	ctx      context.Context
	cancelFn context.CancelFunc

	mu       sync.Mutex
	state    State
	log      eventlog.Log[Event] // appended under mu, with the state it records
	progress *experiments.Progress
	output   *experiments.Output
	err      error
}

// Cancel requests cancellation: a queued job becomes cancelled
// immediately, a running job aborts at its next cancellation poll
// (mid-bin), and a terminal job is left untouched. Cancel is
// idempotent and returns without waiting for the abort.
func (j *Job) Cancel() {
	j.cancelFn()
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateCancelled
		j.log.Append(Event{State: StateCancelled}, true)
	}
	j.mu.Unlock()
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:       j.ID,
		Params:   j.Params,
		State:    j.state,
		Progress: j.progress,
		Output:   j.output,
		Err:      j.err,
	}
}

// EventsSince returns the log entries from index from on (read-only),
// whether the job has reached a terminal state (atomically consistent
// with the returned slice: a true terminal flag means the slice extends
// through the final event), and a channel closed at the next append.
// Streaming consumers loop: drain, emit, then wait on next (or their
// own context). See eventlog.Log.Since.
func (j *Job) EventsSince(from int) (evs []Event, terminal bool, next <-chan struct{}) {
	return j.log.Since(from)
}

// toRunning moves a queued job to running; false means the job was
// cancelled while queued.
func (j *Job) toRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.log.Append(Event{State: StateRunning}, false)
	return true
}

// appendProgress records one per-bin progress event.
func (j *Job) appendProgress(p experiments.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return // a late event after cancellation must not trail the terminal
	}
	cp := p
	j.progress = &cp
	j.log.Append(Event{Progress: &cp}, false)
}

// finish records the terminal event and state in one step, so a reader
// that observes the terminal state also observes the final event.
func (j *Job) finish(e Event, out *experiments.Output, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return // Cancel won the race while the run was unwinding
	}
	j.state = e.State
	j.output = out
	j.err = err
	j.log.Append(e, true)
}
