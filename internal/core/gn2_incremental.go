package core

import (
	"context"
	"fmt"

	"fpgasched/internal/rat"
	"fpgasched/internal/task"
)

// gn2AdmitState carries GN2's sweep state across admissions: the
// resident mirror and, per resident task k, its witness — the first λ
// candidate that satisfied condition 1 or 2 at the last accepted
// analysis — together with the exact condition sums at that witness,
//
//	ws1[k] = Σ_i Ai·min(βλk(i), 1−λk)    ws2[k] = Σ_i Ai·min(βλk(i), 1)
//
// accumulated over the resident set. The state is "warm" exactly when
// witnesses and sums describe the current resident set.
//
// The delta argument for an add (device bounds Amax/Amin unchanged,
// which TryAdd checks): a newcomer contributes a non-negative term to
// every condition LHS while every RHS — a function of Abnd, Amin and λk
// only — is unchanged. Candidates that failed for the resident set
// therefore still fail for the trial set. For task k the trial's first
// accepting candidate can thus only be (a) one of the newcomer's ≤2
// fresh candidate values landing in [uk, witness), (b) the old witness
// itself, or (c) some candidate after the old witness — checked in
// exactly that order. The witness re-check is O(1): the trial sum is
// the cached resident sum plus the newcomer's β term, and because both
// are exact rationals the result is value-identical to a from-scratch
// accumulation, so the certificate it emits is byte-identical (big.Rat
// normalizes, making value equality string equality). Fresh values and
// forward scans run through the full sweep's own candidate pipeline
// (gn2Sweep.scan) over the trial set, so acceptance order and
// certificate values match from scratch by construction; nothing
// cached ever reaches a certificate except through an exact
// value-preserving sum.
//
// A release that undoes the most recent admission (LIFO, the
// bounded-lifetime churn pattern) restores the pre-admission witness
// and sum arrays from an undo journal (the arrays are replaced
// wholesale on commit, never mutated, so the journal holds the old
// headers at zero copy cost) and stays warm. Any other mutation —
// out-of-order release, WAL replay, admission proven by another test,
// Amax/Amin drift — drops to cold in O(1); a cold TryAdd still rejects a newcomer that fails
// its own bound, and otherwise falls back to the full analysis, whose
// accepting verdict re-warms the state (ObserveFull).
// A full-run verdict carries witnesses but not both condition sums, so
// the first TryAdd after a re-warm rebuilds the sums with one exact
// evaluation per task and caches them via its pend on success. Sum
// entries are seeded lazily (zero = unseeded; real sums are strictly
// positive): a newly admitted task's sums are deferred to the first
// recheck that actually needs them, so admit/release churn never pays
// for seeding state it immediately discards, and the condition-2 sum
// is maintained only while condition 2 is actually consulted (in the
// steady state condition 1 accepts at the witness and ws2 stays
// unseeded, halving the per-admit exact Adds).
//
// Removals cannot stay warm without the journal: deleting a task
// shrinks condition LHSs, so a candidate before a witness may newly
// accept, moving first-accept witnesses backward in ways a delta scan
// cannot bound without re-checking everything.
type gn2AdmitState struct {
	g   GN2Test
	dev Device

	warm         bool
	tasks        []task.Task
	wit          []rat.R // witness λ per resident task
	ws1, ws2     []rat.R // exact condition sums at the witness (nil right after a re-warm)
	wAmax, wAmin int

	undo []gn2Undo
	pend *gn2Pend
}

// gn2Undo journals one admission so the matching LIFO release can
// restore the pre-admission state exactly: the previous array headers
// (immutable once replaced) and nothing else — the admitted task's
// area was inside [wAmin, wAmax], so the bounds did not move.
type gn2Undo struct {
	name     string
	wit      []rat.R
	ws1, ws2 []rat.R
}

// gn2UndoDepth bounds the journal. Deeper histories lose their oldest
// entries; a LIFO release can only pop the newest entry, so dropping
// the front merely limits how many consecutive LIFO releases stay warm
// before one falls back to a full run.
const gn2UndoDepth = 64

// gn2ScanBudget bounds the forward scan past a failed witness (and the
// exhaustive scan deciding a rejection). A task whose witness moves
// further than this in one add is doing nearly a full sweep's work
// anyway, so TryAdd falls back to the full analysis instead of
// finishing the scan.
const gn2ScanBudget = 24

// gn2Pend stashes the outcome of a TryAdd acceptance (or a full-run
// acceptance via ObserveFull) until the controller commits it. It is
// valid as long as the committed state is untouched — every commit
// clears it — so adopting it at CommitAdd for the same task name is
// sound even when other requests were rejected in between.
type gn2Pend struct {
	name     string
	fromFull bool
	trial    *task.Set
	wit      []rat.R
	ws1, ws2 []rat.R
}

// NewAdmitState implements IncrementalTest. The extended λ search
// derives per-task candidate sets whose delta under an add is not a
// simple splice, so it gets no incremental state (nil: always full
// path).
func (g GN2Test) NewAdmitState(dev Device) AdmitState {
	if g.Options.ExtendedLambdaSearch {
		return nil
	}
	return &gn2AdmitState{g: g, dev: dev}
}

func (st *gn2AdmitState) goCold() {
	st.warm = false
	st.tasks = nil
	st.wit = nil
	st.ws1, st.ws2 = nil, nil
	st.undo = st.undo[:0]
}

func (st *gn2AdmitState) TryAdd(ctx context.Context, trial *task.Set, t task.Task) (Verdict, bool) {
	st.pend = nil
	name := st.g.Name()
	if err := ctx.Err(); err != nil {
		return aborted(name, err), true
	}
	if v, ok := precheck(name, st.dev, trial); !ok {
		return v, true
	}
	n := len(trial.Tasks) - 1
	reject := func(k int) (Verdict, bool) {
		return Verdict{
			Test:        name,
			Schedulable: false,
			FailingTask: k,
			Reason: fmt.Sprintf("no λ ≥ C/T satisfies condition 1 or 2 for task %d (%s)",
				k, trial.Tasks[k].Name),
		}, true
	}
	// The newcomer first, over the trial's own bounds: it has no
	// witness, so its task gets the full sweep, and a failure rejects
	// before any resident is rechecked, whether or not the delta
	// argument applies (warmFor). Off the warm path the sweep builds no
	// evidence and a passing newcomer falls back to the full analysis.
	// On it the bounds equal the resident set's (the newcomer's area
	// lies inside them), the candidate list is the resident list with
	// the newcomer's values spliced in, and the newcomer's accepting
	// check is its certificate entry.
	warm := st.warmFor(trial, t)
	abnd := rat.FromInt(int64(st.dev.Columns - trial.AMax() + 1))
	amin := rat.FromInt(int64(trial.AMin()))
	sw := st.g.newSweep(trial, abnd, amin, warm)
	if ScreenOn(ctx) {
		sw.initScreen(screenStatsFrom(ctx))
	}
	sc := sw.newScratch()
	chk, err := sw.check(ctx, n, sc)
	if err != nil {
		return aborted(name, err), true
	}
	if !chk.Satisfied {
		return reject(n)
	}
	if !warm {
		return Verdict{}, false
	}

	// The newcomer's cached sums stay unseeded (zero — real sums are
	// strictly positive, β > 0 and area ≥ 1): seeding costs an O(N)
	// exact evaluation that only pays off if the newcomer outlives the
	// next admission, so the first later recheck seeds it on demand
	// instead. Short-lived admit/release churn then never pays for it.
	checks := make([]BoundCheck, n+1)
	newWit := make([]rat.R, n+1)
	newWs1 := make([]rat.R, n+1)
	newWs2 := make([]rat.R, n+1)
	checks[n] = chk
	newWit[n] = rat.FromBig(chk.Lambda)

	// The newcomer's candidate values at their indices in the trial list,
	// ascending (Di > Ti makes Ci/Di < Ci/Ti). Evaluating one that is not
	// actually fresh wastes one O(N) check but cannot change the outcome:
	// it failed for the resident set, so by monotonicity it fails for the
	// trial set too.
	fresh := []int{sw.candU[n]}
	if t.D > t.T {
		fresh = []int{sw.candD[n], sw.candU[n]}
	}
	for k := 0; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return aborted(name, err), true
		}
		res, err := st.recheckTask(ctx, sw, sc, k, fresh)
		if err != nil {
			return aborted(name, err), true
		}
		switch res.status {
		case gn2Rejected:
			// A rejecting verdict certifies only the decision (see
			// AdmitState), so the remaining checks are not materialized.
			return reject(k)
		case gn2Fallback:
			return Verdict{}, false
		}
		checks[k] = res.chk
		newWit[k] = res.wit
		newWs1[k] = res.s1
		newWs2[k] = res.s2
	}

	v := Verdict{Test: name, Schedulable: true, FailingTask: -1, Checks: checks}
	for k := range checks {
		checks[k].TaskIndex = k
	}
	st.pend = &gn2Pend{name: t.Name, wit: newWit, ws1: newWs1, ws2: newWs2}
	return v, true
}

// warmFor reports whether the delta argument applies to trial: the
// state is warm, trial is the resident mirror plus t, and t leaves the
// condition RHS invariants unchanged — a newcomer that widens Amax or
// narrows Amin shifts every bound and invalidates all witnesses at
// once.
func (st *gn2AdmitState) warmFor(trial *task.Set, t task.Task) bool {
	n := len(st.tasks)
	if !st.warm || len(trial.Tasks) != n+1 || trial.Tasks[n] != t || t.A > st.wAmax || t.A < st.wAmin {
		return false
	}
	for i := range st.tasks {
		if st.tasks[i] != trial.Tasks[i] {
			return false
		}
	}
	return true
}

type gn2RecheckStatus int

const (
	gn2Accepted gn2RecheckStatus = iota
	gn2Rejected
	gn2Fallback
)

type gn2Recheck struct {
	status gn2RecheckStatus
	chk    BoundCheck
	wit    rat.R
	s1, s2 rat.R // trial-set condition sums at wit
}

// recheckTask is the admit state's driver of the candidate pipeline: it
// finds resident task k's first accepting candidate over the trial set,
// starting from its committed witness w. It runs the newcomer's fresh
// candidates in [uk, w) through the pipeline at their trial-list
// indices, then the witness, then scans forward from the witness under
// gn2ScanBudget. The witness step is O(1) exact work when the sums
// cache is populated (cached resident sums + the newcomer's term);
// every other evaluation is evalCandidate over the trial set.
func (st *gn2AdmitState) recheckTask(ctx context.Context, sw *gn2Sweep, sc *gn2Scratch, k int, fresh []int) (gn2Recheck, error) {
	sw.prepare(k, sc)
	defer sw.flush(sc)
	accept := func(chk BoundCheck, lambda rat.R) (gn2Recheck, error) {
		return gn2Recheck{status: gn2Accepted, chk: chk, wit: lambda, s1: sc.sum1.R(), s2: sc.sum2.R()}, nil
	}
	// Fresh values in [uk, w): every λ below the (valid) witness is
	// valid too, so no λk range check is needed here.
	w := st.wit[k]
	for _, ci := range fresh {
		if ci < sc.lo || sw.cands[ci].Cmp(w) >= 0 {
			continue
		}
		chk, at, err := sw.scan(ctx, sc, ci, ci+1)
		if err != nil {
			return gn2Recheck{}, err
		}
		if at >= 0 {
			return accept(chk, sw.cands[at])
		}
	}

	// The committed witness. With cached sums this is the O(1) heart of
	// the incremental path; a task whose sums are not cached yet — the
	// whole set right after a re-warm, or a recent newcomer whose
	// seeding was deferred — gets one exact evaluation that rebuilds
	// them (zero is the unseeded sentinel: real sums are strictly
	// positive).
	if st.ws1 != nil && st.ws1[k].Sign() != 0 {
		switch res := st.witnessDelta(sw, sc, w); res.status {
		case gn2Accepted:
			return res, nil
		case gn2Fallback:
			// Condition 1 failed and no cached condition-2 sum exists:
			// the witness's fate is unknown until one exact evaluation.
			if chk, ok := sw.evalCandidate(sc, w); ok {
				return accept(chk, w)
			}
		}
	} else if chk, ok := sw.evalCandidate(sc, w); ok {
		return accept(chk, w)
	}

	// The witness failed — the newcomer pushed it past a bound. Scan
	// forward through the trial candidate list (old and fresh values
	// merged by construction). A task whose witness would move further
	// than the budget falls back; reaching the end of the valid range
	// proves rejection.
	lo := lowerBoundR(sw.cands, w) + 1
	hi := sc.validEnd()
	end := min(hi, lo+gn2ScanBudget)
	chk, at, err := sw.scan(ctx, sc, lo, end)
	switch {
	case err != nil:
		return gn2Recheck{}, err
	case at >= 0:
		return accept(chk, sw.cands[at])
	case hi > end:
		return gn2Recheck{status: gn2Fallback}, nil
	}
	return gn2Recheck{status: gn2Rejected}, nil
}

// witnessDelta re-checks the prepared task's committed witness against
// the trial set in O(1) exact work: a trial condition sum is the cached
// resident sum plus the newcomer's β term (the same per-task term
// evalCandidate accumulates, so the totals are value-identical to a
// from-scratch accumulation and the emitted certificate values are
// byte-identical). The condition-2 sum is maintained only while
// condition 2 is actually consulted: when condition 1 accepts — the
// steady state — the result propagates an unseeded s2, saving one exact
// Add per task per admit. Status: gn2Accepted (the witness holds),
// gn2Rejected (both conditions exactly violated — scan forward), or
// gn2Fallback (condition 1 failed with no cached condition-2 sum: the
// caller must evaluate the witness exactly).
func (st *gn2AdmitState) witnessDelta(sw *gn2Sweep, sc *gn2Scratch, w rat.R) gn2Recheck {
	k := sc.k
	oneMinus := sc.oneMinus(w)
	n := len(sw.ui) - 1 // the newcomer's index in the trial set
	beta := sw.beta(sc, n, w)
	s1 := st.ws1[k].Add(sw.area[n].Mul(rat.Min(beta, oneMinus)))

	rhs1 := sw.abnd.Mul(oneMinus)
	if s1.Cmp(rhs1) < 0 {
		return gn2Recheck{
			status: gn2Accepted,
			chk:    BoundCheck{LHS: s1.Rat(), RHS: rhs1.Rat(), Satisfied: true, Lambda: w.Rat(), Condition: 1},
			wit:    w, s1: s1,
		}
	}
	if st.ws2[k].Sign() == 0 {
		return gn2Recheck{status: gn2Fallback}
	}
	s2 := st.ws2[k].Add(sw.area[n].Mul(rat.Min(beta, rat.One)))
	rhs2 := sw.abndMinusAmin.Mul(oneMinus).Add(sw.amin)
	cmp := s2.Cmp(rhs2)
	if cmp < 0 || (sw.g.Options.CondTwoNonStrict && cmp == 0) {
		return gn2Recheck{
			status: gn2Accepted,
			chk:    BoundCheck{LHS: s2.Rat(), RHS: rhs2.Rat(), Satisfied: true, Lambda: w.Rat(), Condition: 2},
			wit:    w, s1: s1, s2: s2,
		}
	}
	return gn2Recheck{status: gn2Rejected}
}

// ObserveFull re-warms the state from a full run's accepting verdict:
// every check of an accepted GN2 analysis carries its witness λ. The
// verdict does not carry both condition sums, so the sums cache starts
// empty and the next TryAdd rebuilds it.
func (st *gn2AdmitState) ObserveFull(trial *task.Set, v *Verdict) {
	st.pend = nil
	if v == nil || !v.Schedulable || v.Err != nil || v.Test != st.g.Name() {
		return
	}
	n := len(trial.Tasks)
	if n == 0 || len(v.Checks) != n {
		return
	}
	wit := make([]rat.R, n)
	for i, chk := range v.Checks {
		if !chk.Satisfied || chk.Lambda == nil {
			return
		}
		wit[i] = rat.FromBig(chk.Lambda)
	}
	st.pend = &gn2Pend{
		name:     trial.Tasks[n-1].Name,
		fromFull: true,
		trial:    trial,
		wit:      wit,
	}
}

func (st *gn2AdmitState) CommitAdd(t task.Task) {
	pend := st.pend
	st.pend = nil
	if pend == nil || pend.name != t.Name {
		st.goCold()
		return
	}
	if pend.fromFull {
		st.rewarm(pend.trial, pend.wit)
		return
	}
	if !st.warm {
		st.goCold()
		return
	}
	// The arrays are replaced wholesale (pend's are freshly built), so
	// the journal can keep the old headers without copying.
	st.undo = append(st.undo, gn2Undo{name: t.Name, wit: st.wit, ws1: st.ws1, ws2: st.ws2})
	if len(st.undo) > gn2UndoDepth {
		copy(st.undo, st.undo[1:])
		st.undo = st.undo[:gn2UndoDepth]
	}
	st.tasks = append(st.tasks, t)
	st.wit = pend.wit
	st.ws1 = pend.ws1
	st.ws2 = pend.ws2
	// t.A was inside [wAmin, wAmax] (TryAdd's range gate), so the
	// hoisted bounds are unchanged.
}

// rewarm rebuilds the mirror from an accepted full analysis.
func (st *gn2AdmitState) rewarm(trial *task.Set, wit []rat.R) {
	st.tasks = append(st.tasks[:0], trial.Tasks...)
	st.wit = wit
	st.ws1, st.ws2 = nil, nil
	st.wAmax = trial.AMax()
	st.wAmin = trial.AMin()
	st.undo = st.undo[:0]
	st.warm = true
}

func (st *gn2AdmitState) CommitRemove(removed task.Task, idx int) {
	st.pend = nil
	if !st.warm {
		return
	}
	n := len(st.tasks)
	if top := len(st.undo) - 1; top >= 0 && idx == n-1 &&
		st.undo[top].name == removed.Name && st.tasks[n-1] == removed {
		// LIFO release: pop the journal and restore the pre-admission
		// witnesses and sums; the state stays warm.
		u := st.undo[top]
		st.undo = st.undo[:top]
		st.tasks = st.tasks[:n-1]
		st.wit = u.wit
		st.ws1 = u.ws1
		st.ws2 = u.ws2
		return
	}
	st.goCold()
}

func (st *gn2AdmitState) CommitReplay(t task.Task) {
	st.pend = nil
	st.goCold()
}
