package core

import (
	"context"
	"fmt"
	"math/big"

	"fpgasched/internal/interval"
	"fpgasched/internal/rat"
	"fpgasched/internal/task"
)

// DPTest is the paper's Theorem 1: the Danne–Platzner utilization bound
// for EDF-FkF, corrected for integer task areas. A periodic taskset Γ is
// feasibly scheduled by EDF-FkF on a device H with A(H) ≥ Amax if, for
// every task τk,
//
//	US(Γ) ≤ (A(H) − Amax + 1)·(1 − UT(τk)) + US(τk)
//
// where US is system utilization (Σ Ci·Ai/Ti), UT(τk) = Ck/Tk and
// US(τk) = Ck·Ak/Tk. The "+1" is the paper's integer-area sharpening of
// Lemma 1: with integer column counts, an idle area of Amax−1 columns is
// the largest that can be unusable, so EDF-FkF is global-α-work-conserving
// with α = 1 − (Amax−1)/A(H). Because EDF-NF dominates EDF-FkF, the test
// is also valid for EDF-NF.
//
// RealValuedAlpha selects the original Danne–Platzner bound
// (A(H) − Amax instead of A(H) − Amax + 1) for the abl-alpha ablation.
//
// The theorem is stated for implicit deadlines (D = T, as in Goossens et
// al.); for constrained deadlines (D < T) the test is not established, so
// Analyze rejects such sets with an explanatory reason rather than give an
// unsound answer. The original statement's non-strict "≤" is kept: the
// paper's Table 1 meets the bound with exact equality at k = 2 and is
// reported accepted.
type DPTest struct {
	// RealValuedAlpha, if true, uses Danne & Platzner's original
	// real-valued-area bound A(H) − Amax in place of the paper's
	// integer-corrected A(H) − Amax + 1.
	RealValuedAlpha bool
}

// Name implements Test.
func (dp DPTest) Name() string {
	if dp.RealValuedAlpha {
		return "DP-real"
	}
	return "DP"
}

// Analyze implements Test. DP is a closed-form bound (one inequality
// per task), so cancellation is only checked once on entry. US(Γ) —
// the same left-hand side for every task — is summed once, and one
// exact comparison against the smallest right-hand side decides the
// whole set when it is accepted (dpBounds).
func (dp DPTest) Analyze(ctx context.Context, dev Device, s *task.Set) Verdict {
	return dp.analyze(ctx, dev, s, true)
}

// analyze is Analyze with the certificate values optional (see
// Decide). The Reason renders from the exact fast-path values either
// way. With evidence, every check shares one *big.Rat for US(Γ)
// (BoundCheck's values are read-only), so the value is copied out of
// the fast path once rather than once per task.
func (dp DPTest) analyze(ctx context.Context, dev Device, s *task.Set, evidence bool) Verdict {
	name := dp.Name()
	if err := ctx.Err(); err != nil {
		return aborted(name, err)
	}
	if v, ok := precheck(name, dev, s); !ok {
		return v
	}
	if !s.ImplicitDeadlines() {
		return Verdict{
			Test:        name,
			Schedulable: false,
			Reason:      "DP requires implicit deadlines (D = T)",
			FailingTask: -1,
		}
	}
	// US(Γ) = Σ Ci·Ai/Ti, exact, computed once for the whole loop.
	var usAcc rat.Acc
	for _, t := range s.Tasks {
		usAcc.Add(dpTerm(t))
	}
	us := usAcc.R()
	b := dpBounds(us, s.Tasks, dp.areaBound(dev, s))
	// The interval screen decides the per-task comparison when certain.
	// As with GN1, every certificate carries the exact US(Γ) and bound,
	// so the screen skips no exact value computation — only the exact
	// comparison, which dpBounds.holds shares across tasks; the
	// screen's counters feed the escalation-rate metrics.
	var sct *screenCounters
	var ius interval.I
	if ScreenOn(ctx) {
		sct = new(screenCounters)
		ius = interval.FromRat(us)
	}
	v := Verdict{Test: name, Schedulable: true, FailingTask: -1, Checks: make([]BoundCheck, 0, len(s.Tasks))}
	var lhs *big.Rat
	if evidence {
		lhs = us.Rat()
	}
	for k, rhs := range b.rhs {
		var ok bool
		if sct != nil {
			sct.evals++
			// Non-strict "≤": satisfied ⇔ us ≤ rhs.
			if irhs := interval.FromRat(rhs); ius.AllLessEq(irhs) {
				sct.decided++
				ok = true
			} else if ius.AllGreater(irhs) {
				sct.decided++
				ok = false
			} else {
				sct.escalated++
				ok = b.holds(k)
			}
		} else {
			ok = b.holds(k)
		}
		chk := BoundCheck{TaskIndex: k, Satisfied: ok}
		if evidence {
			chk.LHS, chk.RHS = lhs, rhs.Rat()
		}
		v.Checks = append(v.Checks, chk)
		if !ok && v.Schedulable {
			v.Schedulable = false
			v.FailingTask = k
			v.Reason = dpReason(us, rhs, k)
		}
	}
	if sct != nil {
		screenStatsFrom(ctx).add(*sct)
	}
	return v
}

// dpTerm is task t's share Ct·At/Tt of the system utilization US(Γ).
func dpTerm(t task.Task) rat.R {
	return rat.FromFrac(int64(t.C), int64(t.T)).Mul(rat.FromInt(int64(t.A)))
}

// dpBoundSet is one set's DP inequalities: US(Γ) against every task's
// right-hand side. The right-hand sides are fast-path values with
// denominator Tk, cheap to compare with each other, while US(Γ)'s
// denominator outgrows int64 within a few dozen tasks — so holds
// compares US(Γ) exactly against the smallest right-hand side once,
// and only when that fails does it compare against task k's own.
type dpBoundSet struct {
	us  rat.R
	rhs []rat.R
	min int // index of the smallest rhs, the first on ties
	all int // 0: not yet compared; 1: us ≤ rhs[min]; -1: us > rhs[min]
}

func dpBounds(us rat.R, ts []task.Task, abnd rat.R) dpBoundSet {
	b := dpBoundSet{us: us, rhs: make([]rat.R, len(ts))}
	for k, tk := range ts {
		b.rhs[k] = dpBound(tk, abnd)
		if b.rhs[k].Cmp(b.rhs[b.min]) < 0 {
			b.min = k
		}
	}
	return b
}

// holds reports whether task k's inequality US(Γ) ≤ rhs[k] holds.
func (b *dpBoundSet) holds(k int) bool {
	if b.all == 0 {
		b.all = 1
		if b.us.Cmp(b.rhs[b.min]) > 0 {
			b.all = -1
		}
	}
	return b.all > 0 || (k != b.min && b.us.Cmp(b.rhs[k]) <= 0)
}

// firstFailing returns the first task, in set order, whose inequality
// fails, or -1 when every inequality holds.
func (b *dpBoundSet) firstFailing() int {
	if b.holds(b.min) {
		return -1
	}
	for k := range b.rhs {
		if !b.holds(k) {
			return k
		}
	}
	return -1
}

// areaBound is A(H) − Amax + 1, or A(H) − Amax under RealValuedAlpha.
func (dp DPTest) areaBound(dev Device, s *task.Set) rat.R {
	slackArea := dev.Columns - s.AMax()
	if !dp.RealValuedAlpha {
		slackArea++ // integer-area correction: A(H) − Amax + 1
	}
	return rat.FromInt(int64(slackArea))
}

// dpBound is task tk's right-hand side Abnd·(1 − UT(τk)) + US(τk),
// evaluated as (Abnd·(Tk − Ck) + Ck·Ak)/Tk: Abnd is an integer, so
// only the final division reduces a fraction.
func dpBound(tk task.Task, abnd rat.R) rat.R {
	c, t := rat.FromInt(int64(tk.C)), rat.FromInt(int64(tk.T))
	return abnd.Mul(t.Sub(c)).Add(c.Mul(rat.FromInt(int64(tk.A)))).Quo(t)
}

// dpReason explains US(Γ) exceeding task k's bound rhs.
func dpReason(us, rhs rat.R, k int) string {
	return fmt.Sprintf("US(Γ)=%s exceeds bound %s at task %d", us.RatString(), rhs.RatString(), k)
}
