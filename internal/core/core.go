// Package core implements the paper's primary contribution: utilization
// bound schedulability tests for global EDF scheduling of hardware tasks
// on a 1-D partially-runtime-reconfigurable FPGA.
//
// Three tests are provided:
//
//   - DP (Theorem 1): the Danne–Platzner test corrected for integer task
//     areas, valid for EDF-FkF (and therefore also for EDF-NF, which
//     dominates it).
//   - GN1 (Theorem 2): a BCL-style interference test valid for EDF-NF
//     only, exploiting the per-task area slack A(H)−Ak+1 of Lemma 2.
//   - GN2 (Theorem 3): a BAK2-style busy-interval test valid for EDF-FkF
//     (and EDF-NF), with a λ-parameterised workload bound.
//
// All arithmetic is exact (math/big.Rat over integer ticks), so knife-edge
// tasksets such as the paper's Table 1 — constructed to meet the DP bound
// with equality — are decided deterministically. The published theorem
// statements contain several typos that are contradicted by the paper's
// own worked examples; see DESIGN.md Section 2 for the catalogue
// (T2-BOUND, T2-NORM, T3-STRICT, L7-GUARD, L7-CASE2) and the doc comments
// on GN1Variant and GN2Options for how each is resolved here.
package core

import (
	"context"
	"fmt"
	"math/big"

	"fpgasched/internal/task"
)

// Device is a 1-D reconfigurable FPGA with a given number of columns,
// written A(H) in the paper. The device is assumed homogeneous (no
// pre-configured columns) with zero reconfiguration overhead and
// unrestricted job migration, matching the paper's Section 1 assumptions.
type Device struct {
	// Columns is the total area A(H) in columns.
	Columns int
}

// NewDevice returns a Device with the given column count.
func NewDevice(columns int) Device { return Device{Columns: columns} }

// BoundCheck records the per-task inequality evaluated by a test, for
// inspection and for pinning the paper's worked examples in tests.
type BoundCheck struct {
	// TaskIndex is the index k of the analysed task within the set.
	TaskIndex int
	// LHS and RHS are the two sides of the test's inequality for task k.
	// For GN2 they correspond to the winning (or last-tried) λ and
	// condition.
	//
	// LHS, RHS and Lambda are read-only: a value may be shared between
	// the checks of one verdict (DP's US(Γ) is one pointer in every
	// check) and with cached verdicts (the engine's remapped copies
	// share the cached pointers), so mutating one would corrupt every
	// certificate that shares it. Certificate renders a pointer shared
	// by consecutive checks once.
	LHS, RHS *big.Rat
	// Satisfied reports whether the inequality held for task k.
	Satisfied bool
	// Lambda is the λ value that satisfied GN2 for this task (nil for DP
	// and GN1, and for unsatisfied GN2 checks).
	Lambda *big.Rat
	// Condition is the GN2 condition (1 or 2) that was satisfied, or 0.
	Condition int
}

// Verdict is the outcome of a schedulability test on a taskset.
type Verdict struct {
	// Test is the name of the test that produced the verdict.
	Test string
	// Schedulable reports whether the test accepts the taskset. These
	// are sufficient tests: false means "not proven schedulable", not
	// "unschedulable".
	Schedulable bool
	// Reason is a human-readable explanation, filled on rejection and on
	// precondition failures.
	Reason string
	// FailingTask is the index of the first task whose bound failed, or
	// -1 when Schedulable or when rejection was not attributable to one
	// task (e.g. validation failure).
	FailingTask int
	// Checks holds the per-task bound evaluations, in task order. Empty
	// if a precondition failed before any bound was evaluated.
	Checks []BoundCheck
	// AcceptedBy names the member test whose proof accepted the set.
	// Only composites fill it; for a plain test the name is Test itself.
	AcceptedBy string
	// SubVerdicts holds the full verdict of every member test a
	// composite evaluated, in evaluation order (rejecting members before
	// the accepting one, all members on an all-reject). Empty for plain
	// tests.
	SubVerdicts []Verdict
	// Err is non-nil when the analysis was aborted before completion
	// (context cancellation or deadline). The verdict then proves
	// nothing and must not be cached or acted on.
	Err error
}

// String renders the verdict compactly.
func (v Verdict) String() string {
	if v.Err != nil {
		return fmt.Sprintf("%s: aborted (%v)", v.Test, v.Err)
	}
	return verdictString(v.Test, v.Schedulable, v.AcceptedBy, v.Reason, v.FailingTask)
}

// verdictString is the single renderer behind Verdict.String and
// Certificate.String, so the in-process and wire forms can never drift
// apart (the CLI's remote-parity test compares them byte for byte).
func verdictString(test string, schedulable bool, acceptedBy, reason string, failingTask int) string {
	if schedulable {
		if acceptedBy != "" && acceptedBy != test {
			return fmt.Sprintf("%s: schedulable (via %s)", test, acceptedBy)
		}
		return fmt.Sprintf("%s: schedulable", test)
	}
	if failingTask >= 0 {
		return fmt.Sprintf("%s: not proven schedulable (task %d: %s)", test, failingTask, reason)
	}
	return fmt.Sprintf("%s: not proven schedulable (%s)", test, reason)
}

// Check is the JSON-stable form of one per-task bound evaluation: LHS,
// RHS and λ are exact fraction strings ("63/10") produced by
// big.Rat.RatString, so a certificate can be re-verified with exact
// arithmetic by any consumer. It is the wire form used by the api
// package (api.Check is an alias), so the JSON tags here are frozen by
// the api golden files.
type Check struct {
	TaskIndex int    `json:"task_index"`
	LHS       string `json:"lhs"`
	RHS       string `json:"rhs"`
	Satisfied bool   `json:"satisfied"`
	Lambda    string `json:"lambda,omitempty"`
	Condition int    `json:"condition,omitempty"`
}

// Certificate is the exportable, JSON-stable proof carried by a
// verdict: the test name, the per-task bound inequalities with exact
// rational sides (and, for GN2, the witnessing λ and condition), the
// precondition failure if one fired, and — for composites — which
// member accepted plus every evaluated member's own certificate.
//
// A certificate of an accepting verdict is a complete, independently
// re-checkable proof of schedulability. The converse does not hold:
// these are sufficient tests, so the absence of a certificate means
// "not proven", never "unschedulable". The api package aliases this
// type as api.Verdict, so its JSON form is frozen by the api golden
// files (fields are only ever added, with omitempty).
type Certificate struct {
	Test        string        `json:"test"`
	Schedulable bool          `json:"schedulable"`
	Reason      string        `json:"reason,omitempty"`
	FailingTask *int          `json:"failing_task,omitempty"`
	AcceptedBy  string        `json:"accepted_by,omitempty"`
	Checks      []Check       `json:"checks,omitempty"`
	SubVerdicts []Certificate `json:"sub_verdicts,omitempty"`
}

// String renders the certificate's verdict line exactly as
// Verdict.String renders the in-process form.
func (c Certificate) String() string {
	ft := -1
	if c.FailingTask != nil {
		ft = *c.FailingTask
	}
	return verdictString(c.Test, c.Schedulable, c.AcceptedBy, c.Reason, ft)
}

// Certificate converts the verdict into its exportable proof form,
// rendering every rational as an exact fraction string and recursing
// into composite sub-verdicts. A rational shared by consecutive checks
// (DP's US(Γ) is one pointer in every check) is rendered once.
func (v Verdict) Certificate() Certificate {
	out := Certificate{
		Test:        v.Test,
		Schedulable: v.Schedulable,
		Reason:      v.Reason,
		AcceptedBy:  v.AcceptedBy,
	}
	if !v.Schedulable && v.FailingTask >= 0 {
		ft := v.FailingTask
		out.FailingTask = &ft
	}
	if len(v.Checks) > 0 {
		out.Checks = make([]Check, len(v.Checks))
	}
	var lhs, rhs, lambda ratRenderer
	for i, c := range v.Checks {
		out.Checks[i] = Check{
			TaskIndex: c.TaskIndex,
			LHS:       lhs.render(c.LHS),
			RHS:       rhs.render(c.RHS),
			Satisfied: c.Satisfied,
			Lambda:    lambda.render(c.Lambda),
			Condition: c.Condition,
		}
	}
	for _, sv := range v.SubVerdicts {
		out.SubVerdicts = append(out.SubVerdicts, sv.Certificate())
	}
	return out
}

// ratRenderer renders rationals with RatString, remembering the last
// pointer it rendered so a run of checks sharing one value renders it
// once. BoundCheck's values are read-only, so a pointer seen before
// still holds the value that was rendered.
type ratRenderer struct {
	last *big.Rat
	s    string
}

// render returns x.RatString(), or "" for nil.
func (r *ratRenderer) render(x *big.Rat) string {
	if x == nil {
		return ""
	}
	if x != r.last {
		r.last, r.s = x, x.RatString()
	}
	return r.s
}

// Test is a schedulability test for hardware tasksets on a device.
type Test interface {
	// Name returns the short test identifier (e.g. "DP", "GN1", "GN2").
	Name() string
	// Analyze runs the test. It never mutates the set. Long-running
	// analyses (GN2's λ sweep) poll ctx and abort promptly when it is
	// done, returning a verdict with Err set — callers must treat such
	// a verdict as no answer at all, not as a rejection.
	Analyze(ctx context.Context, dev Device, s *task.Set) Verdict
}

// Decide runs t like t.Analyze and returns the same verdict — the same
// Schedulable, AcceptedBy, Reason, FailingTask and SubVerdicts
// structure, and one BoundCheck per evaluated task with its TaskIndex
// and Satisfied bit — except that the checks carry no exact values
// (LHS, RHS, Lambda and Condition are left zero). The tests are
// sufficient bounds, so a verdict needs only one yes/no per task; the
// exact sides are the explanation of that verdict, and building them
// (normalised big.Rat values, GN2's re-derivation of the last rejected
// candidate) dominates the kernels' cost. Callers that will not render
// a certificate should call Decide; Analyze remains the source of
// certificates.
//
// Every task is still evaluated, so a caller can derive the lowest
// failing index under any permutation of the set from the Satisfied
// bits. DP, GN1, GN2 and composites of them skip the evidence; any
// other test falls back to its Analyze, whose checks are then stripped
// so that a Decide verdict never carries exact values.
func Decide(ctx context.Context, t Test, dev Device, s *task.Set) Verdict {
	return analyzeWith(ctx, t, dev, s, false)
}

// evidenceTest is implemented by the tests whose kernels can skip
// building certificate values: analyze(…, true) is their Analyze,
// analyze(…, false) their Decide.
type evidenceTest interface {
	analyze(ctx context.Context, dev Device, s *task.Set, evidence bool) Verdict
}

// analyzeWith runs t with or without certificate evidence, falling back
// to Analyze for tests that always build it.
func analyzeWith(ctx context.Context, t Test, dev Device, s *task.Set, evidence bool) Verdict {
	if et, ok := t.(evidenceTest); ok {
		return et.analyze(ctx, dev, s, evidence)
	}
	v := t.Analyze(ctx, dev, s)
	if !evidence {
		v = withoutEvidence(v)
	}
	return v
}

// withoutEvidence returns a copy of v whose checks keep only their
// TaskIndex and Satisfied bit, recursively.
func withoutEvidence(v Verdict) Verdict {
	if v.Checks != nil {
		checks := make([]BoundCheck, len(v.Checks))
		for i, c := range v.Checks {
			checks[i] = BoundCheck{TaskIndex: c.TaskIndex, Satisfied: c.Satisfied}
		}
		v.Checks = checks
	}
	if v.SubVerdicts != nil {
		subs := make([]Verdict, len(v.SubVerdicts))
		for i, sv := range v.SubVerdicts {
			subs[i] = withoutEvidence(sv)
		}
		v.SubVerdicts = subs
	}
	return v
}

// aborted builds the verdict returned when ctx was cancelled before the
// test finished. Schedulable is false but the verdict proves nothing:
// Err is the authoritative signal.
func aborted(name string, err error) Verdict {
	return Verdict{
		Test:        name,
		Schedulable: false,
		Reason:      "analysis aborted: " + err.Error(),
		FailingTask: -1,
		Err:         err,
	}
}

// precheck validates the set against the device and returns a rejection
// verdict if the taskset cannot possibly be handled (empty set, C > D,
// task wider than the device). All three tests share these preconditions.
func precheck(name string, dev Device, s *task.Set) (Verdict, bool) {
	if err := s.ValidateFor(dev.Columns); err != nil {
		return Verdict{
			Test:        name,
			Schedulable: false,
			Reason:      err.Error(),
			FailingTask: -1,
		}, false
	}
	return Verdict{}, true
}

// sweepWorkersKey carries the per-analysis parallelism budget in a
// context. A context value (rather than a Test field) keeps worker
// count out of Test.Name() — parallelism provably cannot change a
// verdict, so it must not fragment the engine's verdict cache key.
type sweepWorkersKey struct{}

// WithSweepWorkers returns a context that allows tests with
// independent per-task work (GN2/GN2x's λ sweeps) to evaluate up to n
// tasks concurrently. n ≤ 1 leaves the context unchanged (serial
// evaluation, the default). The verdict is identical for every n: the
// sweep always evaluates all tasks and resolves the failing-task
// attribution in task order. The engine threads
// engine.Config.SweepWorkers through this; direct library callers may
// set it themselves. Note the multiplicative effect when combined with
// a concurrent caller: total CPU concurrency is callers × n.
func WithSweepWorkers(ctx context.Context, n int) context.Context {
	if n <= 1 {
		return ctx
	}
	return context.WithValue(ctx, sweepWorkersKey{}, n)
}

// SweepWorkers reports the per-analysis parallelism budget carried by
// ctx, defaulting to 1 (serial).
func SweepWorkers(ctx context.Context) int {
	if n, ok := ctx.Value(sweepWorkersKey{}).(int); ok && n > 1 {
		return n
	}
	return 1
}

// Rational helpers over ticks. Ratios of tick-valued quantities are
// scale-invariant, so all time arithmetic below is done directly in
// ticks. The production kernels now run on internal/rat; these big.Rat
// helpers remain as the vocabulary of the executable-spec tests
// (lambda_test.go's independent point evaluations).

func ratFromTicks(t int64) *big.Rat { return new(big.Rat).SetInt64(t) }

func ratInt(v int) *big.Rat { return new(big.Rat).SetInt64(int64(v)) }

var (
	ratZero = new(big.Rat)
	ratOne  = big.NewRat(1, 1)
)

func ratMin(a, b *big.Rat) *big.Rat {
	if a.Cmp(b) <= 0 {
		return a
	}
	return b
}

func ratMax(a, b *big.Rat) *big.Rat {
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

// floorDiv returns floor(a/b) for b != 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
