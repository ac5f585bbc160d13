package core

import (
	"context"
	"fmt"

	"fpgasched/internal/rat"
	"fpgasched/internal/task"
)

// AdmitState is persistent per-(device, resident-set) analysis state
// for one test, kept by an admission controller across requests so that
// admitting or releasing a single task does not re-derive everything a
// full Analyze derives. The contract:
//
//   - TryAdd asks for a verdict on trial = resident ∪ {t} (t is
//     trial's last task). It returns (verdict, true) when the state can
//     produce a verdict it certifies against a from-scratch
//     test.Analyze(ctx, dev, trial). An accepting verdict certifies
//     equality in full: the decision, and a byte-identical certificate
//     re-derived exactly over the full trial set rather than assembled
//     from cached fragments. A rejecting verdict certifies only
//     Schedulable=false: every state checks the newcomer's own bound
//     first, so its FailingTask may name the newcomer even when a
//     resident fails too (from scratch, the first failing task in set
//     order), and its Reason need not match Analyze's. The controller
//     surfaces neither — a rejected Decision carries a fixed Reason.
//     TryAdd returns (Verdict{}, false) when the state cannot certify,
//     and the caller must fall back to the full analysis. TryAdd never
//     mutates committed state: a rejected or abandoned trial leaves
//     the state exactly as it was. An accepted trial is abandoned
//     when the controller cannot log the admission (its write-ahead
//     step failed): no commit call follows, and no later call may
//     apply what the abandoned trial stashed.
//   - ObserveFull reports the verdict of a full Analyze the caller ran
//     after a fallback, letting the state re-warm from it.
//   - CommitAdd reports that trial from the immediately preceding
//     TryAdd/ObserveFull for the same task was made resident;
//     CommitRemove that the resident task at idx was swap-deleted
//     (the last task moved into idx); CommitReplay that t was
//     force-admitted without analysis (WAL replay). Commit calls must
//     mirror every controller mutation, in order, or the state
//     invalidates itself on the next mismatch check. Mutations are
//     logged before they are committed, so no commit is ever undone.
//
// Each of DP, GN1 and GN2 accepts a set only when every task's bound
// holds, so a newcomer that fails its own bound is a sound rejection
// at the cost of one task's check.
//
// Implementations are not safe for concurrent use; the admission
// controller serializes all calls under its own lock.
type AdmitState interface {
	TryAdd(ctx context.Context, trial *task.Set, t task.Task) (Verdict, bool)
	ObserveFull(trial *task.Set, v *Verdict)
	CommitAdd(t task.Task)
	CommitRemove(removed task.Task, idx int)
	CommitReplay(t task.Task)
}

// IncrementalTest is implemented by tests that can maintain AdmitState.
// NewAdmitState may return nil when the concrete configuration does not
// support delta analysis (e.g. GN2's extended λ search); callers must
// treat nil as "always use the full path".
type IncrementalTest interface {
	Test
	NewAdmitState(dev Device) AdmitState
}

// --- DP ---------------------------------------------------------------

// dpAdmitState keeps DP's only cross-request quantity: the exact system
// utilization US(Γ) = Σ Ci·Ai/Ti, maintained by O(1) add/subtract of
// the affected task's term (rat.R stays reduced, so the accumulated
// value — and hence every certificate rational derived from it — is
// identical to the from-scratch sum). TryAdd compares the trial's
// US(Γ) against the newcomer's own bound first, rejecting in O(1); for
// a newcomer that passes, one exact comparison of US(Γ) against the
// smallest right-hand side (dpBounds) decides the rest of the set
// unless some bound fails. An accepted trial's US(Γ) is kept and
// becomes the committed value on the CommitAdd that follows, so an
// admission pays for one big-rational addition, not two. DP is a
// closed-form test, so TryAdd always certifies and never falls back.
type dpAdmitState struct {
	dp           DPTest
	dev          Device
	us           rat.R
	nNonImplicit int // resident tasks with D != T

	// trial is the last accepted TryAdd's US(Γ) and newcomer, valid
	// until the next call of any method.
	trial    rat.R
	trialTk  task.Task
	hasTrial bool
}

// NewAdmitState implements IncrementalTest.
func (dp DPTest) NewAdmitState(dev Device) AdmitState {
	return &dpAdmitState{dp: dp, dev: dev}
}

func (st *dpAdmitState) TryAdd(ctx context.Context, trial *task.Set, t task.Task) (Verdict, bool) {
	st.hasTrial = false
	name := st.dp.Name()
	if err := ctx.Err(); err != nil {
		return aborted(name, err), true
	}
	if v, ok := precheck(name, st.dev, trial); !ok {
		return v, true
	}
	nonImplicit := st.nNonImplicit
	if t.D != t.T {
		nonImplicit++
	}
	if nonImplicit > 0 {
		return Verdict{
			Test:        name,
			Schedulable: false,
			Reason:      "DP requires implicit deadlines (D = T)",
			FailingTask: -1,
		}, true
	}
	us := st.us.Add(dpTerm(t))
	abnd := st.dp.areaBound(st.dev, trial)
	n := len(trial.Tasks) - 1
	if rhs := dpBound(t, abnd); us.Cmp(rhs) > 0 {
		return Verdict{Test: name, Schedulable: false, FailingTask: n, Reason: dpReason(us, rhs, n)}, true
	}
	b := dpBounds(us, trial.Tasks, abnd)
	if k := b.firstFailing(); k >= 0 {
		return Verdict{Test: name, Schedulable: false, FailingTask: k, Reason: dpReason(us, b.rhs[k], k)}, true
	}
	st.trial, st.trialTk, st.hasTrial = us, t, true
	lhs := us.Rat()
	v := Verdict{Test: name, Schedulable: true, FailingTask: -1, Checks: make([]BoundCheck, len(b.rhs))}
	for k, rhs := range b.rhs {
		v.Checks[k] = BoundCheck{TaskIndex: k, LHS: lhs, RHS: rhs.Rat(), Satisfied: true}
	}
	return v, true
}

func (st *dpAdmitState) ObserveFull(*task.Set, *Verdict) { st.hasTrial = false }

func (st *dpAdmitState) apply(t task.Task) {
	if st.hasTrial && st.trialTk == t {
		st.us = st.trial
	} else {
		st.us = st.us.Add(dpTerm(t))
	}
	st.hasTrial = false
	if t.D != t.T {
		st.nNonImplicit++
	}
}

func (st *dpAdmitState) CommitAdd(t task.Task)    { st.apply(t) }
func (st *dpAdmitState) CommitReplay(t task.Task) { st.apply(t) }

func (st *dpAdmitState) CommitRemove(removed task.Task, idx int) {
	st.hasTrial = false
	st.us = st.us.Sub(dpTerm(removed))
	if removed.D != removed.T {
		st.nNonImplicit--
	}
}

// --- GN1 --------------------------------------------------------------

// gn1AdmitState is GN1's newcomer-first stage, and it keeps no state:
// TryAdd decides only the newcomer's own inequality — screened and
// without evidence, one O(N) interference sum — and rejects when it
// fails. A newcomer that passes falls back to the full analysis, which
// re-derives every task's sum and the accepting certificate exactly.
// Maintaining per-resident sums across requests would save work only
// on residents, whose checks a rejection no longer needs.
type gn1AdmitState struct {
	g   GN1Test
	dev Device
}

// NewAdmitState implements IncrementalTest.
func (g GN1Test) NewAdmitState(dev Device) AdmitState {
	return gn1AdmitState{g: g, dev: dev}
}

func (st gn1AdmitState) TryAdd(ctx context.Context, trial *task.Set, t task.Task) (Verdict, bool) {
	name := st.g.Name()
	if err := ctx.Err(); err != nil {
		return aborted(name, err), true
	}
	if v, ok := st.g.applicable(st.dev, trial); !ok {
		return v, true
	}
	var sct *screenCounters
	if ScreenOn(ctx) {
		sct = new(screenCounters)
	}
	n := len(trial.Tasks) - 1
	_, _, ok := st.g.checkTaskR(st.dev, trial, n, new(rat.Acc), sct, false)
	if sct != nil {
		screenStatsFrom(ctx).add(*sct)
	}
	if ok {
		return Verdict{}, false
	}
	return Verdict{
		Test:        name,
		Schedulable: false,
		FailingTask: n,
		Reason:      fmt.Sprintf("interference bound not below slack bound for task %d (%s)", n, t.Name),
	}, true
}

func (gn1AdmitState) ObserveFull(*task.Set, *Verdict) {}
func (gn1AdmitState) CommitAdd(task.Task)             {}
func (gn1AdmitState) CommitRemove(task.Task, int)     {}
func (gn1AdmitState) CommitReplay(task.Task)          {}
