package core

import (
	"context"
	"fmt"

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
// per task), so cancellation is only checked once on entry. The system
// utilization US(Γ) and the area bound are hoisted out of the per-task
// loop; each iteration is a handful of exact fast-path operations plus
// the certificate conversions.
func (dp DPTest) Analyze(ctx context.Context, dev Device, s *task.Set) Verdict {
	return dp.analyze(ctx, dev, s, true)
}

// analyze is Analyze with the per-task certificate copies optional
// (see Decide). The Reason renders from the exact fast-path values
// either way.
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
	abnd := dp.areaBound(dev, s)
	// US(Γ) = Σ Ci·Ai/Ti, exact, computed once for the whole loop.
	var usAcc rat.Acc
	for _, t := range s.Tasks {
		usAcc.Add(rat.FromFrac(int64(t.C), int64(t.T)).Mul(rat.FromInt(int64(t.A))))
	}
	us := usAcc.R()
	// The interval screen decides the per-task comparison when certain.
	// As with GN1, every certificate carries the exact US(Γ) and bound,
	// so the screen skips no exact value computation — only the
	// (already cheap) exact comparison; its counters feed the
	// escalation-rate metrics.
	var sct *screenCounters
	var ius interval.I
	if ScreenOn(ctx) {
		sct = new(screenCounters)
		ius = interval.FromRat(us)
	}
	v := Verdict{Test: name, Schedulable: true, FailingTask: -1}
	for k, tk := range s.Tasks {
		rhs := dpBound(tk, abnd)
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
				ok = us.Cmp(rhs) <= 0
			}
		} else {
			ok = us.Cmp(rhs) <= 0
		}
		chk := BoundCheck{TaskIndex: k, Satisfied: ok}
		if evidence {
			chk.LHS, chk.RHS = us.Rat(), rhs.Rat()
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

// areaBound is A(H) − Amax + 1, or A(H) − Amax under RealValuedAlpha.
func (dp DPTest) areaBound(dev Device, s *task.Set) rat.R {
	slackArea := dev.Columns - s.AMax()
	if !dp.RealValuedAlpha {
		slackArea++ // integer-area correction: A(H) − Amax + 1
	}
	return rat.FromInt(int64(slackArea))
}

// dpBound is task tk's right-hand side Abnd·(1 − UT(τk)) + US(τk).
func dpBound(tk task.Task, abnd rat.R) rat.R {
	ut := rat.FromFrac(int64(tk.C), int64(tk.T))
	return rat.One.Sub(ut).Mul(abnd).Add(ut.Mul(rat.FromInt(int64(tk.A))))
}

// dpReason explains US(Γ) exceeding task k's bound rhs.
func dpReason(us, rhs rat.R, k int) string {
	return fmt.Sprintf("US(Γ)=%s exceeds bound %s at task %d", us.RatString(), rhs.RatString(), k)
}
