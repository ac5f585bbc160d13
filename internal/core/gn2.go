package core

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"fpgasched/internal/interval"
	"fpgasched/internal/rat"
	"fpgasched/internal/task"
)

// GN2Options configures the GN2 test's resolution of two published
// ambiguities (DESIGN.md items T3-STRICT and L7-CASE2). The zero value is
// the configuration that reproduces the paper's reported verdicts for
// Tables 1–3.
type GN2Options struct {
	// CondTwoNonStrict evaluates Theorem 3's condition 2 with the printed
	// "≤" instead of the strict "<" needed to reproduce the paper's
	// Table-1 rejection (the Table-1 taskset meets condition 2 with exact
	// equality at λ = 0.19 yet is reported rejected). The default
	// (false) uses the strict comparison.
	CondTwoNonStrict bool
	// CaseTwoBaker replaces the printed middle-case value Ck/Tk of
	// Lemma 7's βλk(i) with the Baker-consistent Ci/Di. The case fires
	// only for tasks with post-period deadlines (Di > Ti), which the
	// paper's evaluation never exercises. The default (false) implements
	// the printed value.
	CaseTwoBaker bool
	// ExtendedLambdaSearch adds the min-crossing breakpoints to the λ
	// candidate set. Theorem 3's remark claims only λ ∈ {Ci/Ti} ∪
	// {Ci/Di : Di > Ti} matter, but condition 1's test function
	// Σ Ai·min(βλk(i), 1−λk) − Abnd·(1−λk) is piecewise linear with
	// additional breakpoints where βλk(i) crosses 1−λk (and condition
	// 2's where βλk(i) crosses 1); its minimum can sit at such a
	// crossing. Evaluating at more λ values is sound — any single λ with
	// λk ≤ 1 certifies schedulability per the proof — so the extended
	// search accepts a superset of the published test (property-tested).
	// Default off to match the paper.
	ExtendedLambdaSearch bool
}

// GN2Test is the paper's Theorem 3: a busy-interval (problem-window
// extension) test in the style of Baker's BAK2, valid for EDF-FkF and —
// since EDF-NF dominates EDF-FkF — for EDF-NF as well.
//
// A taskset Γ is schedulable if for every task τk there exists
// λ ≥ Ck/Tk such that, with λk = λ·max(1, Tk/Dk) and
// Abnd = A(H) − Amax + 1, at least one of
//
//	(1)  Σ_i Ai·min(βλk(i), 1 − λk)  <  Abnd·(1 − λk)
//	(2)  Σ_i Ai·min(βλk(i), 1)      <  (Abnd − Amin)·(1 − λk) + Amin
//
// holds, where βλk(i) is Lemma 7's bound on the fraction of a maximal
// τλk-busy interval during which τi can execute:
//
//	βλk(i) = max(Ci/Ti, Ci/Ti·(1 − Di/Dk) + Ci/Dk)   if Ci/Ti ≤ λ
//	       = Ck/Tk (printed; Ci/Di under CaseTwoBaker) if Ci/Ti > λ ∧ λ ≥ Ci/Di
//	       = Ci/Ti + (Ci − λ·Di)/Dk                    if Ci/Ti > λ ∧ λ < Ci/Di
//
// Only finitely many λ need be considered (the theorem's O(N³) claim):
// the minimum point Ck/Tk and the discontinuities of βλk, i.e. every
// Ci/Ti, and Ci/Di for tasks with Di > Ti (the only tasks for which the
// middle case is reachable).
//
// The sums run over all tasks including i = k, as in the theorem
// statement and its proof (the busy interval contains τk's own
// execution).
//
// The implementation runs on internal/rat's exact fast-path arithmetic
// and is equivalent, verdict for verdict and certificate byte for
// byte, to the all-big.Rat reference build in internal/core/bigref
// (enforced by the differential suite). Per-candidate invariants — the
// λ-independent case-1 βs, the sorted global candidate list, the λk
// multiplier — are hoisted out of the sweep, and the two condition
// sums accumulate in reused scratch, so a sweep allocates O(N) heap
// rationals (the certificate values) instead of O(N³).
type GN2Test struct {
	Options GN2Options
}

// Name implements Test. Each option flag contributes a suffix so every
// distinct configuration carries a distinct name — the engine's verdict
// cache keys on Name(), so two configurations sharing one name would
// unsoundly share cached verdicts.
func (g GN2Test) Name() string {
	name := "GN2"
	if g.Options.ExtendedLambdaSearch {
		name += "x"
	}
	if g.Options.CondTwoNonStrict {
		name += "-le"
	}
	if g.Options.CaseTwoBaker {
		name += "-baker"
	}
	return name
}

// Analyze implements Test. The λ sweep is the O(N³) heart of the test
// (N candidates × N tasks × O(N) sum per condition), so cancellation is
// polled inside checkTask's candidate loop: a disconnected client
// aborts a large analysis mid-sweep, not after it.
//
// The per-task sweeps are independent, so when the context carries a
// sweep-worker budget (WithSweepWorkers; the engine threads
// engine.Config.SweepWorkers through), tasks are checked concurrently
// under that bound, each worker with its own scratch. The verdict is
// identical for every worker count: all tasks are always evaluated and
// the failing-task attribution is resolved in task order afterwards.
func (g GN2Test) Analyze(ctx context.Context, dev Device, s *task.Set) Verdict {
	return g.analyze(ctx, dev, s, true)
}

// analyze is Analyze with the certificate values optional (see
// Decide): without evidence the sweep still decides every task, but
// an accepting candidate yields only its Satisfied bit and a rejected
// task skips the exact re-derivation of its last candidate.
func (g GN2Test) analyze(ctx context.Context, dev Device, s *task.Set, evidence bool) Verdict {
	name := g.Name()
	if err := ctx.Err(); err != nil {
		return aborted(name, err)
	}
	if v, ok := precheck(name, dev, s); !ok {
		return v
	}
	abnd := rat.FromInt(int64(dev.Columns - s.AMax() + 1))
	amin := rat.FromInt(int64(s.AMin()))
	sw := g.newSweep(s, abnd, amin, evidence)
	if ScreenOn(ctx) {
		sw.initScreen(screenStatsFrom(ctx))
	}
	n := len(s.Tasks)
	checks := make([]BoundCheck, n)

	workers := SweepWorkers(ctx)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := sw.newScratch()
		for k := 0; k < n; k++ {
			chk, err := sw.check(ctx, k, sc)
			if err != nil {
				return aborted(name, err)
			}
			checks[k] = chk
		}
	} else {
		var (
			next  atomic.Int64
			stop  atomic.Bool
			once  sync.Once
			first error
			wg    sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := sw.newScratch()
				for !stop.Load() {
					k := int(next.Add(1)) - 1
					if k >= n {
						return
					}
					chk, err := sw.check(ctx, k, sc)
					if err != nil {
						once.Do(func() { first = err })
						stop.Store(true)
						return
					}
					checks[k] = chk
				}
			}()
		}
		wg.Wait()
		if first != nil {
			return aborted(name, first)
		}
	}

	v := Verdict{Test: name, Schedulable: true, FailingTask: -1, Checks: checks}
	for k := range checks {
		checks[k].TaskIndex = k
		if !checks[k].Satisfied && v.Schedulable {
			v.Schedulable = false
			v.FailingTask = k
			v.Reason = fmt.Sprintf("no λ ≥ C/T satisfies condition 1 or 2 for task %d (%s)",
				k, s.Tasks[k].Name)
		}
	}
	return v
}

// gn2Sweep holds everything about one (device, taskset) sweep that is
// shared by — and immutable across — all per-task checks: the exact
// per-task utilizations, densities and areas, the device bounds, and
// the global sorted λ candidate list. Sweep workers read it
// concurrently.
type gn2Sweep struct {
	g             GN2Test
	s             *task.Set
	evidence      bool // build certificate values (false under Decide)
	abnd, amin    rat.R
	abndMinusAmin rat.R
	ui            []rat.R // Ci/Ti
	dens          []rat.R // Ci/Di
	area          []rat.R // Ai
	cands         []rat.R // sorted, deduplicated {Ci/Ti} ∪ {Ci/Di : Di > Ti}

	// Interval-screen state (initScreen; nil/false when the screen is
	// off): certified float64 enclosures of the sweep invariants, so the
	// screened candidate loop touches no exact arithmetic beyond the λk
	// range check until a candidate straddles a bound.
	screen         bool
	stats          *ScreenStats
	fui            []interval.I // encloses ui
	fdens          []interval.I // encloses dens
	farea          []float64    // Ai exactly (small integers)
	fC             []interval.I // encloses Ci (ticks)
	fD             []interval.I // encloses Di (ticks)
	fabnd          interval.I
	famin          interval.I
	fabndMinusAmin interval.I
	// candU[i] / candD[i] are the first indices of cands with λ ≥ Ci/Ti
	// and λ ≥ Ci/Di: the β case thresholds against the global list
	// (nil under ExtendedLambdaSearch, whose per-task lists are merged
	// rather than suffixes). Task k's list starts at candU[k].
	candU, candD []int
}

// newSweep precomputes the sweep invariants: per-task rationals once
// per set (not once per candidate), and the paper's λ candidate set
// sorted and deduplicated once — each task's candidate list is then a
// suffix of it, found by binary search, since task k considers exactly
// the candidates ≥ Ck/Tk and Ck/Tk itself is a member.
func (g GN2Test) newSweep(s *task.Set, abnd, amin rat.R, evidence bool) *gn2Sweep {
	n := len(s.Tasks)
	sw := &gn2Sweep{
		g:             g,
		s:             s,
		evidence:      evidence,
		abnd:          abnd,
		amin:          amin,
		abndMinusAmin: abnd.Sub(amin),
		ui:            make([]rat.R, n),
		dens:          make([]rat.R, n),
		area:          make([]rat.R, n),
		cands:         make([]rat.R, 0, 2*n),
	}
	for i, ti := range s.Tasks {
		sw.ui[i] = rat.FromFrac(int64(ti.C), int64(ti.T))
		sw.dens[i] = rat.FromFrac(int64(ti.C), int64(ti.D))
		sw.area[i] = rat.FromInt(int64(ti.A))
		sw.cands = append(sw.cands, sw.ui[i])
		if ti.D > ti.T {
			sw.cands = append(sw.cands, sw.dens[i])
		}
	}
	sw.cands = sortDedupR(sw.cands)
	return sw
}

// initScreen switches the sweep onto the interval-screened path and
// precomputes float64 enclosures of every sweep invariant. Counters are
// flushed to stats (which may be nil) once per task check.
func (sw *gn2Sweep) initScreen(stats *ScreenStats) {
	sw.screen = true
	sw.stats = stats
	n := len(sw.s.Tasks)
	sw.fui = make([]interval.I, n)
	sw.fdens = make([]interval.I, n)
	sw.farea = make([]float64, n)
	sw.fC = make([]interval.I, n)
	sw.fD = make([]interval.I, n)
	for i, ti := range sw.s.Tasks {
		sw.fui[i] = interval.FromRat(sw.ui[i])
		sw.fdens[i] = interval.FromRat(sw.dens[i])
		sw.farea[i] = float64(ti.A)
		sw.fC[i] = interval.FromInt(int64(ti.C))
		sw.fD[i] = interval.FromInt(int64(ti.D))
	}
	sw.fabnd = interval.FromRat(sw.abnd)
	sw.famin = interval.FromRat(sw.amin)
	sw.fabndMinusAmin = interval.FromRat(sw.abndMinusAmin)
	if !sw.g.Options.ExtendedLambdaSearch {
		sw.candU = make([]int, n)
		sw.candD = make([]int, n)
		for i := range sw.ui {
			sw.candU[i] = lowerBoundR(sw.cands, sw.ui[i])
			sw.candD[i] = lowerBoundR(sw.cands, sw.dens[i])
		}
	}
}

// gn2Scratch is the per-worker reusable state: the λ-independent
// case-1 βs of the task under analysis, the extended-search candidate
// buffer, and the exact sum accumulators. Nothing in it survives a
// task check except its capacity.
type gn2Scratch struct {
	b1         []rat.R // case-1 β per interfering task, for the current k
	cand       []rat.R // extended-search candidate merge buffer
	sum1, sum2 *rat.Acc
	last       *rat.Acc // condition-2 LHS of the last tried candidate

	// Screened-path scratch: enclosures of the hoisted case-1 βs and,
	// per interfering task, the first candidate index at which the β
	// case switches (the candidate list is sorted, so the exact
	// per-term case comparisons collapse to two index thresholds — the
	// sweep's global candU/candD shifted to task k's suffix, or under
	// the extended search one binary search each per task).
	fb1  []interval.I
	thrU []int // first candidate index with λ >= Ci/Ti (case 1)
	thrD []int // first candidate index with λ >= Ci/Di (middle case)
}

func (sw *gn2Sweep) newScratch() *gn2Scratch {
	sc := &gn2Scratch{
		b1:   make([]rat.R, len(sw.s.Tasks)),
		sum1: new(rat.Acc),
		sum2: new(rat.Acc),
		last: new(rat.Acc),
	}
	if sw.screen {
		n := len(sw.s.Tasks)
		sc.fb1 = make([]interval.I, n)
		sc.thrU = make([]int, n)
		sc.thrD = make([]int, n)
	}
	return sc
}

// check dispatches one task check to the screened or exact sweep.
func (sw *gn2Sweep) check(ctx context.Context, k int, sc *gn2Scratch) (BoundCheck, error) {
	if sw.screen {
		return sw.checkTaskScreened(ctx, k, sc)
	}
	return sw.checkTask(ctx, k, sc)
}

// checkTask searches the finite λ candidate set for one that satisfies
// condition 1 or condition 2 for task k. It polls ctx once per
// candidate (each candidate evaluation is O(N) exact work) and returns
// ctx's error when cancelled mid-sweep. Heap rationals are allocated
// only for the returned BoundCheck; every intermediate value lives in
// sc or on the stack.
func (sw *gn2Sweep) checkTask(ctx context.Context, k int, sc *gn2Scratch) (BoundCheck, error) {
	tk := sw.s.Tasks[k]
	dk := int64(tk.D)

	// Hoisted per-candidate invariants: the case-1 β of every task i is
	// independent of λ, so it is computed once per (i, k) pair instead
	// of once per (i, k, λ).
	for i, ti := range sw.s.Tasks {
		sc.b1[i] = gn2CaseOneBeta(ti, sw.ui[i], dk)
	}

	// λk = λ·max(1, Tk/Dk): the multiplier is per-task constant.
	scaled := tk.T > tk.D
	var mK rat.R
	if scaled {
		mK = rat.FromFrac(int64(tk.T), int64(tk.D))
	}

	cands := sw.candidatesFor(k, sc)
	var lastRHS rat.R
	lastValid := false
	for _, lambda := range cands {
		if err := ctx.Err(); err != nil {
			return BoundCheck{}, err
		}
		lambdaK := lambda
		if scaled {
			lambdaK = lambda.Mul(mK)
		}
		oneMinus := rat.One.Sub(lambdaK)
		if oneMinus.Sign() < 0 {
			// λk > 1 makes the proof's Lemma-9 instantiation (x =
			// (1−λk)δ > 0) vacuous: condition 1 would degenerate to the
			// meaningless "ΣAi > Abnd" and certify nothing. Such λ are
			// outside the theorem's effective range (DESIGN.md item
			// T3-RANGE, found by the dense-λ completeness test).
			continue
		}
		chk, rhs2, accepted := sw.evalCandidate(k, lambda, oneMinus, sc)
		if accepted {
			return chk, nil
		}
		lastRHS = rhs2
		lastValid = true
	}
	if !lastValid || !sw.evidence {
		return BoundCheck{}, nil
	}
	return BoundCheck{LHS: sc.last.Rat(), RHS: lastRHS.Rat(), Satisfied: false}, nil
}

// evalCandidate evaluates conditions 1 and 2 exactly for one λ
// candidate (whose λk ≤ 1 the caller has established). On acceptance it
// returns the satisfied BoundCheck (just the bit without evidence).
// Otherwise it parks the condition-2 LHS in sc.last and returns the
// condition-2 RHS, which together form the failing certificate's
// evidence if this turns out to be the last candidate. Both the exact
// and the screened sweep paths funnel through here, so a candidate is
// evaluated identically no matter how it was reached — the screen
// cannot perturb certificates.
func (sw *gn2Sweep) evalCandidate(k int, lambda, oneMinus rat.R, sc *gn2Scratch) (BoundCheck, rat.R, bool) {
	uk := sw.ui[k]
	dk := int64(sw.s.Tasks[k].D)

	// One pass accumulates both condition sums exactly; β is
	// selected per task from the hoisted case-1 value or computed
	// in-place for the λ-dependent cases.
	sc.sum1.Reset()
	sc.sum2.Reset()
	for i := range sw.ui {
		var beta rat.R
		ui := sw.ui[i]
		if ui.Cmp(lambda) <= 0 {
			beta = sc.b1[i]
		} else if lambda.Cmp(sw.dens[i]) >= 0 {
			// Middle case: reachable only when Ci/Di < λ < Ci/Ti,
			// i.e. Di > Ti. Printed value is Ck/Tk (L7-CASE2);
			// Baker's TR uses a task-i quantity, approximated here
			// by Ci/Di when selected.
			if sw.g.Options.CaseTwoBaker {
				beta = sw.dens[i]
			} else {
				beta = uk
			}
		} else {
			// Ci/Ti + (Ci − λ·Di)/Dk.
			ti := sw.s.Tasks[i]
			carry := rat.FromInt(int64(ti.C)).Sub(lambda.Mul(rat.FromInt(int64(ti.D)))).Quo(rat.FromInt(dk))
			beta = ui.Add(carry)
		}
		sc.sum1.Add(sw.area[i].Mul(rat.Min(beta, oneMinus)))
		sc.sum2.Add(sw.area[i].Mul(rat.Min(beta, rat.One)))
	}

	// Condition 1: Σ Ai·min(β, 1−λk) < Abnd·(1−λk), strict.
	rhs1 := sw.abnd.Mul(oneMinus)
	if sc.sum1.Cmp(rhs1) < 0 {
		return sw.satisfied(sc.sum1, rhs1, lambda, 1), rat.R{}, true
	}

	// Condition 2: Σ Ai·min(β, 1) vs (Abnd−Amin)·(1−λk) + Amin.
	rhs2 := sw.abndMinusAmin.Mul(oneMinus).Add(sw.amin)
	cmp := sc.sum2.Cmp(rhs2)
	if cmp < 0 || (sw.g.Options.CondTwoNonStrict && cmp == 0) {
		return sw.satisfied(sc.sum2, rhs2, lambda, 2), rat.R{}, true
	}
	// Keep the failed condition-2 evidence without copying: swap
	// the accumulator with the scratch's holding slot.
	sc.sum2, sc.last = sc.last, sc.sum2
	return BoundCheck{}, rhs2, false
}

// satisfied builds the accepting check for condition cond at λ: the
// exact sides and witness as certificate rationals, or with no
// evidence requested only the Satisfied bit.
func (sw *gn2Sweep) satisfied(lhs *rat.Acc, rhs, lambda rat.R, cond int) BoundCheck {
	if !sw.evidence {
		return BoundCheck{Satisfied: true}
	}
	return BoundCheck{LHS: lhs.Rat(), RHS: rhs.Rat(), Satisfied: true, Lambda: lambda.Rat(), Condition: cond}
}

// gn2CaseOneBeta is Lemma 7's λ-independent case-1 value
//
//	βk(i) = max(Ci/Ti, Ci/Ti·(1 − Di/Dk) + Ci/Dk)
//
// in closed form: the second term is Ci·(Dk + Ti − Di)/(Ti·Dk), which
// exceeds Ci/Ti exactly when Ti > Di. So one integer comparison and
// one fraction replace the rational chain, with an identical value
// (and hence identical certificates). ui must be Ci/Ti. The chain is
// kept as the fallback when an int64 product would overflow. This is
// the single production copy of the case-1 term; internal/core/bigref
// keeps the printed expression as the oracle.
func gn2CaseOneBeta(ti task.Task, ui rat.R, dk int64) rat.R {
	c, d, t := int64(ti.C), int64(ti.D), int64(ti.T)
	if t <= d {
		return ui // Ti = Di makes the two terms equal
	}
	if t-d <= math.MaxInt64-dk {
		nh, num := bits.Mul64(uint64(c), uint64(dk+t-d))
		dh, den := bits.Mul64(uint64(t), uint64(dk))
		if nh == 0 && dh == 0 && num <= math.MaxInt64 && den <= math.MaxInt64 {
			return rat.FromFrac(int64(num), int64(den))
		}
	}
	alt := rat.One.Sub(rat.FromFrac(d, dk)).Mul(ui).Add(rat.FromFrac(c, dk))
	return rat.Max(ui, alt)
}

// oneIv is condition 2's constant cap as an exact interval.
var oneIv = interval.Point(1)

// checkTaskScreened is checkTask with the certified interval pre-filter
// in front of the exact kernel. Every candidate's conditions are first
// evaluated on float64 enclosures; a candidate whose condition-1 AND
// condition-2 intervals certainly violate cannot be the accepting one
// (the enclosure invariant makes "certainly violated" imply "exactly
// violated"), so its exact evaluation is skipped. Any other candidate —
// straddling, or certainly satisfied — escalates to evalCandidate, so
// the first accepting candidate, its certificate values, and the
// task-order failing attribution are byte-identical to the exact sweep
// (enforced by the screen-on/screen-off/bigref differential suite).
func (sw *gn2Sweep) checkTaskScreened(ctx context.Context, k int, sc *gn2Scratch) (BoundCheck, error) {
	tk := sw.s.Tasks[k]
	dk := int64(tk.D)
	var decided, escalated uint64
	defer func() { sw.stats.add(decided, escalated) }()

	// Hoisted exactly as in checkTask — the exact case-1 βs also feed
	// every escalated evaluation — plus their enclosures.
	for i, ti := range sw.s.Tasks {
		sc.b1[i] = gn2CaseOneBeta(ti, sw.ui[i], dk)
		sc.fb1[i] = interval.FromRat(sc.b1[i])
	}

	scaled := tk.T > tk.D
	var mK rat.R
	if scaled {
		mK = rat.FromFrac(int64(tk.T), int64(tk.D))
	}

	cands := sw.candidatesFor(k, sc)
	// The candidate list is sorted ascending, so the exact per-term β
	// case tests "λ ≥ Ci/Ti" and "λ ≥ Ci/Di" hold exactly for the
	// candidates at or beyond a threshold index. The screened inner loop
	// then selects β cases by integer comparison — bit-identically to
	// the exact comparisons. Task k's list is the global list's suffix
	// from candU[k], so the sweep-wide thresholds shift by that offset;
	// the extended search's merged list needs its own binary searches.
	if sw.candU != nil {
		off := sw.candU[k]
		for i := range sw.ui {
			sc.thrU[i] = max(sw.candU[i]-off, 0)
			sc.thrD[i] = max(sw.candD[i]-off, 0)
		}
	} else {
		for i := range sw.ui {
			sc.thrU[i] = lowerBoundR(cands, sw.ui[i])
			sc.thrD[i] = lowerBoundR(cands, sw.dens[i])
		}
	}

	fDk := sw.fD[k]

	// The λk ≤ 1 range check is monotone — λk = λ·mK increases along the
	// sorted candidate list — so the "tried" candidates form a prefix,
	// found once by exact binary search instead of once per candidate
	// (the predicate is the same exact comparison the per-candidate skip
	// used: 1 − λ·mK < 0 ⇔ λ·mK > 1).
	validEnd := len(cands)
	if scaled {
		validEnd = sort.Search(len(cands), func(j int) bool { return cands[j].Mul(mK).Cmp(rat.One) > 0 })
	} else {
		validEnd = sort.Search(len(cands), func(j int) bool { return cands[j].Cmp(rat.One) > 0 })
	}

	var lastRHS rat.R
	lastExactIdx := -1
	// Range-level screen in front of the per-candidate screen: before
	// building full interval sums candidate by candidate, try to certify
	// that a whole block of consecutive candidates violates both
	// conditions, using one interval evaluation over the block's λ hull.
	// A certified block is disposed of in O(N) total instead of O(N) per
	// candidate. Blocks grow while certification keeps succeeding and
	// reset when it fails, so the overhead on never-certifiable sweeps is
	// bounded by one range evaluation per blockMin candidates. The
	// per-candidate path below is unchanged, so escalation order — and
	// with it the first accepting candidate — is preserved.
	ci := 0
	block := gn2RangeBlockMin
	for ci < validEnd {
		if err := ctx.Err(); err != nil {
			return BoundCheck{}, err
		}
		if validEnd-ci >= block && sw.rangeViolated(k, cands, ci, ci+block, scaled, mK, fDk, sc) {
			decided += uint64(block)
			ci += block
			if block < gn2RangeBlockMax {
				block *= 2
			}
			continue
		}
		end := ci + block
		if end > validEnd {
			end = validEnd
		}
		block = gn2RangeBlockMin
		for ; ci < end; ci++ {
			if err := ctx.Err(); err != nil {
				return BoundCheck{}, err
			}
			lambda := cands[ci]
			lambdaK := lambda
			if scaled {
				lambdaK = lambda.Mul(mK)
			}
			oneMinus := rat.One.Sub(lambdaK)

			fLambda := interval.FromRat(lambda)
			fOneMinus := interval.FromRat(oneMinus)
			var s1, s2 interval.Acc
			for i := range sw.ui {
				var fb interval.I
				if ci >= sc.thrU[i] {
					fb = sc.fb1[i]
				} else if ci >= sc.thrD[i] {
					if sw.g.Options.CaseTwoBaker {
						fb = sw.fdens[i]
					} else {
						fb = sw.fui[k]
					}
				} else {
					fb = sw.fui[i].Add(sw.fC[i].Sub(fLambda.Mul(sw.fD[i])).Quo(fDk))
				}
				s1.AddScaled(sw.farea[i], interval.Min(fb, fOneMinus))
				s2.AddScaled(sw.farea[i], interval.Min(fb, oneIv))
			}

			// A candidate is screened out only when BOTH conditions are
			// certainly violated on the enclosures; condition 1 is strict
			// "<" (violated ⇔ ≥), condition 2's violation depends on the
			// strictness option.
			violated := s1.I().AllGreaterEq(sw.fabnd.Mul(fOneMinus))
			if violated {
				frhs2 := sw.fabndMinusAmin.Mul(fOneMinus).Add(sw.famin)
				if sw.g.Options.CondTwoNonStrict {
					violated = s2.I().AllGreater(frhs2)
				} else {
					violated = s2.I().AllGreaterEq(frhs2)
				}
			}
			if violated {
				decided++
				continue
			}
			escalated++
			chk, rhs2, accepted := sw.evalCandidate(k, lambda, oneMinus, sc)
			if accepted {
				return chk, nil
			}
			lastRHS = rhs2
			lastExactIdx = ci
		}
	}
	lastIdx := validEnd - 1
	if lastIdx < 0 || !sw.evidence {
		return BoundCheck{}, nil
	}
	if lastExactIdx != lastIdx {
		// No candidate accepted and the last tried one was screened
		// out — but the failing certificate carries exactly its
		// condition-2 evidence. Re-derive it with the exact kernel (it
		// migrates from decided to escalated: its exact values were
		// needed after all). Acceptance here is impossible for a sound
		// screen, but the exact kernel keeps authority if it happens.
		decided--
		escalated++
		lambda := cands[lastIdx]
		lambdaK := lambda
		if scaled {
			lambdaK = lambda.Mul(mK)
		}
		oneMinus := rat.One.Sub(lambdaK)
		chk, rhs2, accepted := sw.evalCandidate(k, lambda, oneMinus, sc)
		if accepted {
			return chk, nil
		}
		lastRHS = rhs2
	}
	return BoundCheck{LHS: sc.last.Rat(), RHS: lastRHS.Rat(), Satisfied: false}, nil
}

// gn2RangeBlockMin/Max bound the range screen's block sizes: blocks
// start at Min (so a failed certification costs at most 1/Min of the
// per-candidate work that follows), double on success, and cap at Max.
const (
	gn2RangeBlockMin = 8
	gn2RangeBlockMax = 1024
)

// rangeViolated certifies, with one interval evaluation, that every
// candidate in cands[lo:hi) violates both conditions for task k — in
// which case the whole block can be counted decided without building
// per-candidate sums. λ is enclosed by the hull of the block's
// endpoints (the list is sorted), 1−λk by 1 − mK·λ over that hull, and
// each task's β by the hull of every case value the block's indices can
// select (the β case switches at the exact index thresholds already in
// sc.thrU/thrD, so case selection per index stays exact). For any
// specific λ in the block, each exact quantity lies inside its
// enclosure, so LHS(λ) ≥ lo(sum) and RHS(λ) ≤ hi(rhs); lo(sum) ≥
// hi(rhs) for both conditions therefore proves every candidate fails —
// the same soundness argument as the per-candidate screen, lifted to a
// range. It can only return false negatives (a violating block it
// cannot certify), never screen out an accepting candidate.
func (sw *gn2Sweep) rangeViolated(k int, cands []rat.R, lo, hi int, scaled bool, mK rat.R, fDk interval.I, sc *gn2Scratch) bool {
	fLambda := interval.Hull(interval.FromRat(cands[lo]), interval.FromRat(cands[hi-1]))
	fOneMinus := oneIv.Sub(fLambda)
	if scaled {
		fOneMinus = oneIv.Sub(interval.FromRat(mK).Mul(fLambda))
	}

	var fmid interval.I
	if sw.g.Options.CaseTwoBaker {
		fmid = interval.I{} // per-task, resolved below
	} else {
		fmid = sw.fui[k]
	}

	var s1, s2 interval.Acc
	for i := range sw.ui {
		thrU, thrD := sc.thrU[i], sc.thrD[i]
		mid := fmid
		if sw.g.Options.CaseTwoBaker {
			mid = sw.fdens[i]
		}
		var fb interval.I
		switch {
		case lo >= thrU:
			// Case 1 for the whole block.
			fb = sc.fb1[i]
		case hi <= thrU && lo >= thrD:
			// Middle case for the whole block.
			fb = mid
		case hi <= thrU && hi <= thrD:
			// Case 3 for the whole block: β(λ) = ui + (Ci − λ·Di)/Dk,
			// evaluated over the block's λ hull.
			fb = sw.fui[i].Add(sw.fC[i].Sub(fLambda.Mul(sw.fD[i])).Quo(fDk))
		default:
			// The block straddles a case threshold: hull every case any
			// of its indices selects. The case-3 piece is evaluated over
			// the full λ hull — a superset of its true subrange, which
			// only widens the enclosure (sound).
			first := true
			add := func(p interval.I) {
				if first {
					fb, first = p, false
				} else {
					fb = interval.Hull(fb, p)
				}
			}
			if hi > thrU {
				add(sc.fb1[i])
			}
			mlo, mhi := lo, hi
			if thrD > mlo {
				mlo = thrD
			}
			if thrU < mhi {
				mhi = thrU
			}
			if mlo < mhi {
				add(mid)
			}
			c3hi := hi
			if thrD < c3hi {
				c3hi = thrD
			}
			if thrU < c3hi {
				c3hi = thrU
			}
			if lo < c3hi {
				add(sw.fui[i].Add(sw.fC[i].Sub(fLambda.Mul(sw.fD[i])).Quo(fDk)))
			}
		}
		s1.AddScaled(sw.farea[i], interval.Min(fb, fOneMinus))
		s2.AddScaled(sw.farea[i], interval.Min(fb, oneIv))
	}

	if !s1.I().AllGreaterEq(sw.fabnd.Mul(fOneMinus)) {
		return false
	}
	frhs2 := sw.fabndMinusAmin.Mul(fOneMinus).Add(sw.famin)
	if sw.g.Options.CondTwoNonStrict {
		return s2.I().AllGreater(frhs2)
	}
	return s2.I().AllGreaterEq(frhs2)
}

// candidatesFor returns task k's λ candidates in ascending order: the
// suffix of the global sorted candidate list starting at uk (uk is
// always a member), plus — under ExtendedLambdaSearch — the
// min-crossing breakpoints, merged in the scratch buffer.
func (sw *gn2Sweep) candidatesFor(k int, sc *gn2Scratch) []rat.R {
	var idx int
	if sw.candU != nil {
		idx = sw.candU[k]
	} else {
		idx = lowerBoundR(sw.cands, sw.ui[k])
	}
	base := sw.cands[idx:]
	if !sw.g.Options.ExtendedLambdaSearch {
		return base
	}
	return sw.extendedCandidatesFor(k, sc, base)
}

// extendedCandidatesFor appends, for the analysed task tk, every λ at
// which some βλk(i) crosses 1−λk (condition 1's cap) or the constant 1
// (condition 2's cap) — the breakpoints of the piecewise-linear test
// functions that the paper's candidate set omits. Only values in
// [uk, 1/m] (so that λk ≤ 1) are kept. The merged list is re-sorted
// and deduplicated in the scratch buffer. Requires sc.b1 to be filled
// for task k (the case-1 βs double as the crossing constants).
func (sw *gn2Sweep) extendedCandidatesFor(k int, sc *gn2Scratch, base []rat.R) []rat.R {
	tk := sw.s.Tasks[k]
	uk := sw.ui[k]
	// m = max(1, Tk/Dk); λk = m·λ.
	m := rat.One
	if tk.T > tk.D {
		m = rat.FromFrac(int64(tk.T), int64(tk.D))
	}
	// λ must satisfy λk ≤ 1, i.e. λ ≤ 1/m.
	lambdaMax := rat.One.Quo(m)
	out := append(sc.cand[:0], base...)
	add := func(r rat.R) {
		if r.Cmp(uk) >= 0 && r.Cmp(lambdaMax) <= 0 {
			out = append(out, r)
		}
	}
	dkR := rat.FromInt(int64(tk.D))
	for i, ti := range sw.s.Tasks {
		ui := sw.ui[i]
		// Case-1 region (λ ≥ ui): βi is the hoisted constant sc.b1[i].
		// Crossing with 1−mλ at λ* = (1−b)/m, valid when λ* lies in the
		// region.
		lam := rat.One.Sub(sc.b1[i]).Quo(m)
		if lam.Cmp(ui) >= 0 {
			add(lam)
		}
		// Case-3 region (λ < min(ui, Ci/Di)): βi(λ) = ui + (Ci−λDi)/Dk.
		// Crossing with 1−mλ: λ·(m − Di/Dk) = 1 − ui − Ci/Dk.
		dRatio := rat.FromFrac(int64(ti.D), int64(tk.D))
		den := m.Sub(dRatio)
		if den.Sign() != 0 {
			num := rat.One.Sub(ui).Sub(rat.FromFrac(int64(ti.C), int64(tk.D)))
			lam3 := num.Quo(den)
			if lam3.Cmp(ui) < 0 && lam3.Cmp(sw.dens[i]) < 0 {
				add(lam3)
			}
		}
		// Case-3 crossing with the constant 1 (condition 2's cap):
		// ui + (Ci−λDi)/Dk = 1 → λ = (Ci − (1−ui)·Dk)/Di.
		lam1 := rat.FromInt(int64(ti.C)).Sub(rat.One.Sub(ui).Mul(dkR)).Quo(rat.FromInt(int64(ti.D)))
		if lam1.Cmp(ui) < 0 && lam1.Cmp(sw.dens[i]) < 0 {
			add(lam1)
		}
	}
	sc.cand = sortDedupR(out)
	return sc.cand
}

// sortDedupR sorts rs ascending and removes duplicates in place.
func sortDedupR(rs []rat.R) []rat.R {
	if len(rs) == 0 {
		return rs
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Cmp(rs[j]) < 0 })
	uniq := rs[:1]
	for _, c := range rs[1:] {
		if c.Cmp(uniq[len(uniq)-1]) != 0 {
			uniq = append(uniq, c)
		}
	}
	return uniq
}

// checkTask is the historical single-task entry point, kept for the
// λ-completeness and certificate tests: it runs the production sweep
// machinery for exactly one task with explicitly supplied bounds.
func (g GN2Test) checkTask(ctx context.Context, s *task.Set, k int, abnd, amin *big.Rat) (BoundCheck, error) {
	sw := g.newSweep(s, rat.FromBig(abnd), rat.FromBig(amin), true)
	return sw.checkTask(ctx, k, sw.newScratch())
}

// beta evaluates Lemma 7's βλk(i) for one task pair, on the production
// arithmetic. The sweep itself uses the hoisted per-task forms; this
// entry point exists for the spec-level unit tests and point
// evaluations.
func (g GN2Test) beta(ti, tk task.Task, lambda *big.Rat) *big.Rat {
	return g.betaR(ti, tk, rat.FromBig(lambda)).Rat()
}

func (g GN2Test) betaR(ti, tk task.Task, lambda rat.R) rat.R {
	ui := rat.FromFrac(int64(ti.C), int64(ti.T))
	if ui.Cmp(lambda) <= 0 {
		return gn2CaseOneBeta(ti, ui, int64(tk.D))
	}
	dens := rat.FromFrac(int64(ti.C), int64(ti.D))
	if lambda.Cmp(dens) >= 0 {
		if g.Options.CaseTwoBaker {
			return dens
		}
		return rat.FromFrac(int64(tk.C), int64(tk.T))
	}
	// Ci/Ti + (Ci − λ·Di)/Dk.
	carry := rat.FromInt(int64(ti.C)).Sub(lambda.Mul(rat.FromInt(int64(ti.D)))).Quo(rat.FromInt(int64(tk.D)))
	return ui.Add(carry)
}

// lambdaCandidates returns the sorted, deduplicated set of λ values
// that need to be tried for a task with utilization uk: the minimum
// point uk itself, every task utilization Ci/Ti ≥ uk, and every density
// Ci/Di ≥ uk of tasks with post-period deadlines (where βλk is
// discontinuous). The sweep materialises these lists as suffixes of
// one global sorted list; this standalone form (which accepts an
// arbitrary uk) backs the candidate-set unit tests.
func lambdaCandidates(s *task.Set, uk *big.Rat) []*big.Rat {
	ukR := rat.FromBig(uk)
	cands := []rat.R{ukR}
	add := func(r rat.R) {
		if r.Cmp(ukR) >= 0 {
			cands = append(cands, r)
		}
	}
	for _, ti := range s.Tasks {
		add(rat.FromFrac(int64(ti.C), int64(ti.T)))
		if ti.D > ti.T {
			add(rat.FromFrac(int64(ti.C), int64(ti.D)))
		}
	}
	cands = sortDedupR(cands)
	out := make([]*big.Rat, len(cands))
	for i, c := range cands {
		out[i] = c.Rat()
	}
	return out
}
