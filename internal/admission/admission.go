// Package admission provides an online admission controller for hardware
// tasks, turning the paper's offline schedulability tests into a runtime
// gatekeeper: tasks arrive and depart dynamically, and each arrival is
// admitted only if the resident set plus the newcomer remains provably
// schedulable under the configured composite test (the paper's Section 6
// recommendation: "determine that a taskset is unschedulable only if all
// tests fail").
//
// Admission is conservative by construction: the controller never hosts
// a set it cannot prove, so — by the soundness of the underlying tests —
// the running system never misses a deadline regardless of arrival
// order. The controller is safe for concurrent use.
package admission

import (
	"context"
	"fmt"
	"sync"

	"fpgasched/internal/core"
	"fpgasched/internal/task"
)

// Decision records the outcome of one admission request.
type Decision struct {
	// Admitted reports whether the task was accepted.
	Admitted bool
	// ProvedBy names the member test that proved the new set (empty on
	// rejection).
	ProvedBy string
	// Reason explains a rejection.
	Reason string
	// Certificate is the accepting test's full proof over the new
	// resident set (per-task bound inequalities with exact rational
	// sides), recorded so every admission decision is auditable after
	// the fact. Nil on rejection — these are sufficient tests, so a
	// rejection carries no certificate of unschedulability.
	Certificate *core.Certificate
	// Err is non-nil when the admission analysis was aborted (context
	// cancellation) before any test could prove or fail to prove the
	// set. The task was not admitted, but — unlike a plain rejection —
	// a retry with more time might admit it; callers must not record
	// the task as definitively rejected.
	Err error
}

// Stats is a snapshot of a controller's admission counters. A request
// runs one or more test analyses; each analysis is served either by the
// test's admit state (IncrementalHits) — a rejection of a newcomer that
// fails its own bound included, even on a cold state — or by a full
// from-scratch run (FullRuns), the fallback whenever no state exists or
// the state cannot certify the verdict.
type Stats struct {
	// Requests == Admitted + Rejected + Aborted.
	Requests uint64
	Admitted uint64
	Rejected uint64
	// Aborted counts requests whose analysis was cancelled mid-flight
	// (Decision.Err set) and admissions abandoned because their log
	// step failed (RequestLogged): neither admitted nor definitively
	// rejected.
	Aborted uint64
	// Releases counts tasks removed by Release or ReleaseLogged; a
	// release whose log step failed removed nothing and is not counted.
	Releases        uint64
	IncrementalHits uint64
	FullRuns        uint64
}

// Controller hosts a mutable resident taskset behind a schedulability
// gate.
type Controller struct {
	mu       sync.Mutex
	device   core.Device
	tests    []core.Test
	states   []core.AdmitState // parallel to tests; nil entries use the full path
	resident *task.Set
	byName   map[string]int // name -> index in resident
	stats    Stats
}

// NewController returns an empty controller for a device. The tests are
// tried in order; the first acceptance admits. Passing no tests is an
// error (everything would be rejected silently).
func NewController(columns int, tests ...core.Test) (*Controller, error) {
	if columns < 1 {
		return nil, fmt.Errorf("admission: device area %d", columns)
	}
	if len(tests) == 0 {
		return nil, fmt.Errorf("admission: no tests configured")
	}
	c := &Controller{
		device:   core.NewDevice(columns),
		tests:    tests,
		resident: task.NewSet(),
		byName:   make(map[string]int),
	}
	c.states = make([]core.AdmitState, len(tests))
	for i, test := range tests {
		if it, ok := test.(core.IncrementalTest); ok {
			c.states[i] = it.NewAdmitState(c.device)
		}
	}
	return c, nil
}

// DisableIncremental drops every test's persistent analysis state, so
// all requests take the full from-scratch path. It exists for the
// differential suites and benchmarks that need a reference controller;
// production callers should leave the states on.
func (c *Controller) DisableIncremental() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.states = nil
}

// Stats returns a snapshot of the admission counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// NewNFController is the standard configuration: the EDF-NF composite
// (DP, GN1, GN2 in the paper's order).
func NewNFController(columns int) (*Controller, error) {
	return NewController(columns, core.DPTest{}, core.GN1Test{}, core.GN2Test{})
}

// Resident returns a copy of the currently admitted set.
func (c *Controller) Resident() *task.Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident.Clone()
}

// Len returns the number of admitted tasks.
func (c *Controller) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident.Len()
}

// Request asks to admit t. Task names must be unique and non-empty (they
// are the departure handle). The decision records the accepting test's
// certificate over the new resident set. Cancelling ctx mid-analysis
// leaves the resident set unchanged and returns a Decision with Err
// set: not an admission, but not a definitive rejection either.
func (c *Controller) Request(ctx context.Context, t task.Task) Decision {
	d, _ := c.RequestLogged(ctx, t, nil)
	return d
}

// RequestLogged is Request under the write-ahead rule: once a test
// admits t, log (if non-nil) runs before anything is committed. If log
// fails, the admission is abandoned — the resident set and the admit
// states are left exactly as they were, the request counts as aborted —
// and log's error is returned with a zero Decision.
func (c *Controller) RequestLogged(ctx context.Context, t task.Task, log func() error) (Decision, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Requests++
	if t.Name == "" {
		c.stats.Rejected++
		return Decision{Reason: "task must be named"}, nil
	}
	if _, dup := c.byName[t.Name]; dup {
		c.stats.Rejected++
		return Decision{Reason: fmt.Sprintf("task %q already resident", t.Name)}, nil
	}
	if err := t.Validate(); err != nil {
		c.stats.Rejected++
		return Decision{Reason: err.Error()}, nil
	}
	trial := c.resident.Clone()
	trial.Tasks = append(trial.Tasks, t)
	for i, test := range c.tests {
		v := c.analyzeLocked(ctx, i, test, trial, t)
		if v.Err != nil {
			c.stats.Aborted++
			return Decision{Reason: v.Reason, Err: v.Err}, nil
		}
		if v.Schedulable {
			if log != nil {
				if err := log(); err != nil {
					c.stats.Aborted++
					return Decision{}, err
				}
			}
			c.resident = trial
			c.byName[t.Name] = c.resident.Len() - 1
			for _, st := range c.states {
				if st != nil {
					st.CommitAdd(t)
				}
			}
			c.stats.Admitted++
			cert := v.Certificate()
			return Decision{Admitted: true, ProvedBy: test.Name(), Certificate: &cert}, nil
		}
	}
	c.stats.Rejected++
	return Decision{Reason: "no configured test proves the resulting set schedulable"}, nil
}

// analyzeLocked runs one test over the trial set, preferring the test's
// persistent incremental state. A state that certifies its verdict is a
// hit; otherwise the full analysis runs and the state observes its
// verdict so an acceptance can re-warm it.
func (c *Controller) analyzeLocked(ctx context.Context, i int, test core.Test, trial *task.Set, t task.Task) core.Verdict {
	var st core.AdmitState
	if i < len(c.states) {
		st = c.states[i]
	}
	if st != nil {
		if v, ok := st.TryAdd(ctx, trial, t); ok {
			c.stats.IncrementalHits++
			return v
		}
	}
	v := test.Analyze(ctx, c.device, trial)
	c.stats.FullRuns++
	if st != nil {
		st.ObserveFull(trial, &v)
	}
	return v
}

// Release removes a resident task by name, returning false if absent.
// No re-analysis is needed for safety: removing a task only removes work
// from a work-conserving EDF schedule (predictability in the sense of
// Ha & Liu), so the remaining set stays feasible even if the shrunken
// set happens to fall outside what the configured tests can re-prove.
func (c *Controller) Release(name string) bool {
	ok, _ := c.ReleaseLogged(name, nil)
	return ok
}

// ReleaseLogged is Release under the write-ahead rule: once name is
// found resident, log (if non-nil) runs before it is removed. resident
// reports whether name was resident; a log error leaves it resident
// and is returned.
func (c *Controller) ReleaseLogged(name string, log func() error) (resident bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, ok := c.byName[name]
	if !ok {
		return false, nil
	}
	if log != nil {
		if err := log(); err != nil {
			return true, err
		}
	}
	removed := c.removeAtLocked(idx)
	for _, st := range c.states {
		if st != nil {
			st.CommitRemove(removed, idx)
		}
	}
	c.stats.Releases++
	return true, nil
}

// removeAtLocked swap-deletes the resident task at idx: the last task
// moves into idx and the slice shrinks by one. O(1), and the name
// index never drifts because exactly one surviving task changes
// position — the moved one — and its entry is rewritten in the same
// step the slot changes. Resident order is an implementation detail
// (certificates are derived per trial set, and every accessor clones),
// so the permutation is unobservable except through task indices,
// which are documented as unstable across releases.
func (c *Controller) removeAtLocked(idx int) task.Task {
	ts := c.resident.Tasks
	last := len(ts) - 1
	removed := ts[idx]
	if idx != last {
		moved := ts[last]
		ts[idx] = moved
		c.byName[moved.Name] = idx
	}
	ts[last] = task.Task{}
	c.resident.Tasks = ts[:last]
	delete(c.byName, removed.Name)
	return removed
}

// Utilization returns the resident system utilization as a formatted
// decimal string (for dashboards/logs).
func (c *Controller) Utilization() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident.UtilizationS().FloatString(3)
}
