package core

import (
	"context"
	"fmt"
	"math/big"

	"fpgasched/internal/interval"
	"fpgasched/internal/rat"
	"fpgasched/internal/task"
)

// GN1Variant selects the normalisation of the interference ratio βi in
// GN1 (DESIGN.md item T2-NORM).
type GN1Variant int

const (
	// GN1VariantPaper normalises the interference workload by the
	// interfering task's own deadline, βi = Wi/Di, exactly as printed in
	// Theorem 2 and as used in the paper's own Table-3 walkthrough
	// (β1 = 4.1/5 with D1 = 5, Dk = 7).
	GN1VariantPaper GN1Variant = iota
	// GN1VariantBCL normalises by the analysed window length, βi = Wi/Dk,
	// as in the Bertogna–Cirinei–Lipari multiprocessor test that Theorem 2
	// is derived from. With unit areas this variant degenerates exactly to
	// BCL, which the cross-validation property tests rely on.
	GN1VariantBCL
)

// String returns the variant name.
func (v GN1Variant) String() string {
	if v == GN1VariantBCL {
		return "GN1-Dk"
	}
	return "GN1"
}

// GN1Test is the paper's Theorem 2: a BCL-style interference-bound test
// for EDF-NF. A taskset Γ is schedulable under EDF-NF if, for each τk,
//
//	Σ_{i≠k} Ai·min(βi, 1 − Ck/Dk)  <  (A(H) − Ak + 1)·(1 − Ck/Dk)
//
// with βi = Wi/Di (paper variant; see GN1Variant) and the window workload
// bound of Lemma 4:
//
//	Wi = Ni·Ci + min(Ci, max(Dk − Ni·Ti, 0)),  Ni = max(0, ⌊(Dk−Di)/Ti⌋+1).
//
// The area slack A(H) − Ak + 1 comes from Lemma 2: while a job of τk
// waits, EDF-NF keeps at least that much area busy (interval-α-work-
// conserving). The printed theorem says A(H) − Ak, but Lemma 3 and the
// paper's worked example use A(H) − Ak + 1 (DESIGN.md item T2-BOUND);
// the latter is implemented.
//
// GN1 is NOT valid for EDF-FkF: the per-task slack relies on EDF-NF's
// ability to skip a blocked wide job. The test requires constrained
// deadlines (D ≤ T), as does the BCL analysis it derives from; sets with
// post-period deadlines are rejected with a reason.
//
// Like GN2, the implementation runs on internal/rat: the O(N)
// interference sum per task accumulates in reused scratch, and heap
// rationals are allocated only for the per-task certificate values
// (equivalence with the big.Rat reference build is enforced by the
// differential suite).
type GN1Test struct {
	// Variant selects the βi normalisation; the zero value is the
	// paper-faithful Wi/Di.
	Variant GN1Variant
}

// Name implements Test.
func (g GN1Test) Name() string { return g.Variant.String() }

// Analyze implements Test. The interference sums are O(N²) overall, so
// cancellation is polled once per analysed task.
func (g GN1Test) Analyze(ctx context.Context, dev Device, s *task.Set) Verdict {
	return g.analyze(ctx, dev, s, true)
}

// analyze is Analyze with the certificate values optional (see
// Decide). Without evidence a task's comparison is decided on the
// interval sum alone when it is certain; the exact sum is built only
// when the enclosure straddles (or the screen is off), and once more
// for the first failing task, whose exact sides the Reason prints.
func (g GN1Test) analyze(ctx context.Context, dev Device, s *task.Set, evidence bool) Verdict {
	name := g.Name()
	if err := ctx.Err(); err != nil {
		return aborted(name, err)
	}
	if v, ok := precheck(name, dev, s); !ok {
		return v
	}
	if !s.ConstrainedDeadlines() {
		return Verdict{
			Test:        name,
			Schedulable: false,
			Reason:      "GN1 requires constrained deadlines (D ≤ T)",
			FailingTask: -1,
		}
	}
	var sct *screenCounters
	if ScreenOn(ctx) {
		sct = new(screenCounters)
	}
	var acc rat.Acc // interference-sum scratch, reused across tasks
	v := Verdict{Test: name, Schedulable: true, FailingTask: -1}
	for k, tk := range s.Tasks {
		if err := ctx.Err(); err != nil {
			return aborted(name, err)
		}
		lhs, rhs, ok := g.checkTaskR(dev, s, k, &acc, sct, evidence)
		v.Checks = append(v.Checks, BoundCheck{TaskIndex: k, LHS: lhs, RHS: rhs, Satisfied: ok})
		if !ok && v.Schedulable {
			if lhs == nil {
				lhs, rhs, _ = g.checkTaskR(dev, s, k, &acc, nil, true)
			}
			v.Schedulable = false
			v.FailingTask = k
			v.Reason = fmt.Sprintf("interference bound %s not below slack bound %s for task %d (%s)",
				lhs.RatString(), rhs.RatString(), k, tk.Name)
		}
	}
	if sct != nil {
		screenStatsFrom(ctx).add(sct.decided, sct.escalated)
	}
	return v
}

// checkTaskR evaluates Theorem 2's inequality for task index k,
// reporting whether the strict inequality holds and, with evidence, its
// two sides as certificate rationals. The per-task invariants — the
// normalised slack and the slack bound — are computed once, and the
// interference sum runs allocation-free through acc.
//
// With the screen on (sct non-nil) the comparison is first decided on
// interval enclosures of the terms. A certain decision is certified to
// agree with the exact comparison, so the verdict — and the
// certificate, which never depends on the comparison route — is
// identical to the exact path's. Without evidence a certain decision
// also skips the exact sum, which is then built only for straddling
// enclosures; with evidence the exact sum is needed anyway and the
// screen saves only the final comparison.
func (g GN1Test) checkTaskR(dev Device, s *task.Set, k int, acc *rat.Acc, sct *screenCounters, evidence bool) (lhs, rhs *big.Rat, ok bool) {
	tk := s.Tasks[k]
	// slack = 1 − Ck/Dk, the normalised slack of τk.
	slack := rat.One.Sub(rat.FromFrac(int64(tk.C), int64(tk.D)))
	// RHS = (A(H) − Ak + 1)·slack.
	rhsR := rat.FromInt(int64(dev.Columns - tk.A + 1)).Mul(slack)
	decided := false
	if sct != nil {
		if ok, decided = g.screenTask(s, k, slack, rhsR); decided {
			sct.decided++
		} else {
			sct.escalated++
		}
	}
	if decided && !evidence {
		return nil, nil, ok
	}
	acc.Reset()
	for i, ti := range s.Tasks {
		if i == k {
			continue
		}
		beta := gn1BetaR(ti, tk, g.Variant)
		acc.Add(rat.FromInt(int64(ti.A)).Mul(rat.Min(beta, slack)))
	}
	if !decided {
		ok = acc.Cmp(rhsR) < 0
	}
	if !evidence {
		return nil, nil, ok
	}
	return acc.Rat(), rhsR.Rat(), ok
}

// screenTask decides task k's strict inequality Σ < rhs on interval
// enclosures of the interference terms, taken straight from the
// integer β fractions (no gcd). decided is false when the enclosures
// straddle the bound.
func (g GN1Test) screenTask(s *task.Set, k int, slack, rhs rat.R) (ok, decided bool) {
	tk := s.Tasks[k]
	islack := interval.FromRat(slack)
	var iacc interval.Acc
	for i, ti := range s.Tasks {
		if i == k {
			continue
		}
		num, den := gn1BetaFrac(ti, tk, g.Variant)
		iacc.AddScaled(float64(ti.A), interval.Min(interval.FromFrac(num, den), islack))
	}
	il, irhs := iacc.I(), interval.FromRat(rhs)
	switch {
	case il.AllLess(irhs):
		return true, true
	case il.AllGreaterEq(irhs):
		return false, true
	}
	return false, false
}

// gn1BetaR computes βi, the normalised worst-case interference ratio
// that task ti can contribute inside τk's scheduling window (Lemma 4):
// the deadlines of ti and τk are aligned, Ni full jobs of ti fit in the
// window and at most one carry-in job contributes
// min(Ci, max(Dk − Ni·Ti, 0)). The window arithmetic is integer tick
// counts; only the final ratio is rational.
func gn1BetaR(ti, tk task.Task, variant GN1Variant) rat.R {
	return rat.FromFrac(gn1BetaFrac(ti, tk, variant))
}

// gn1BetaFrac is βi as its unreduced integer fraction (numerator,
// denominator > 0).
func gn1BetaFrac(ti, tk task.Task, variant GN1Variant) (num, den int64) {
	ni := floorDiv(int64(tk.D)-int64(ti.D), int64(ti.T)) + 1
	if ni < 0 {
		ni = 0
	}
	carryCap := int64(tk.D) - ni*int64(ti.T)
	if carryCap < 0 {
		carryCap = 0
	}
	carry := int64(ti.C)
	if carryCap < carry {
		carry = carryCap
	}
	den = int64(ti.D)
	if variant == GN1VariantBCL {
		den = int64(tk.D)
	}
	return ni*int64(ti.C) + carry, den
}
