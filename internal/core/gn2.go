package core

import (
	"context"
	"fmt"
	"math"
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
// polled inside the candidate scan: a disconnected client aborts a
// large analysis mid-sweep, not after it.
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
// the global sorted λ candidate list with its β case thresholds. Sweep
// workers read it concurrently.
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
	// candU[i] / candD[i] are the first indices of cands with λ ≥ Ci/Ti
	// and λ ≥ Ci/Di: the β case thresholds against the global list.
	// Task k's candidates start at candU[k].
	candU, candD []int

	// Interval-screen state (initScreen; nil/false when the screen is
	// off): certified float64 enclosures of the sweep invariants, so the
	// screen stages touch no exact arithmetic.
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
		candU:         make([]int, n),
		candD:         make([]int, n),
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
	for i := range sw.ui {
		sw.candU[i] = lowerBoundR(sw.cands, sw.ui[i])
		sw.candD[i] = lowerBoundR(sw.cands, sw.dens[i])
	}
	return sw
}

// initScreen switches on the pipeline's two screen stages and
// precomputes float64 enclosures of every sweep invariant. Counters are
// flushed to stats (which may be nil) once per task.
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
}

// gn2Scratch is one worker's pipeline state for the task it is
// checking (set by prepare) plus reusable buffers. Nothing in it
// survives to the next task except capacity.
type gn2Scratch struct {
	k      int
	dk     int64
	scaled bool  // Tk > Dk, so λk = λ·mK
	mK     rat.R // Tk/Dk when scaled
	// cands is task k's candidate list (the global list, or under the
	// extended search a per-task merge) and lo the index of its first
	// candidate Ck/Tk. thrU[i] / thrD[i] are the first indices of cands
	// with λ ≥ Ci/Ti and λ ≥ Ci/Di: the list is sorted, so the screen's
	// β case selection is an integer comparison, bit-identical to the
	// exact comparisons.
	cands      []rat.R
	lo         int
	thrU, thrD []int

	// Rows of the case-1 β per interfering task, filled on first use:
	// the exact row when task k first escalates to evalCandidate, the
	// enclosures when it is first screened. A recheck that never gets
	// that far pays for neither.
	b1          []rat.R
	fb1         []interval.I
	b1ok, fb1ok bool

	screenCounters      // screen tally, flushed per task
	rangeLast      bool // the last screened-out candidate went by a range evaluation

	sum1, sum2 *rat.Acc
	last       *rat.Acc // condition-2 LHS of the last exact-evaluated candidate
	lastRHS    rat.R    // and its RHS
	lastIdx    int      // its index in cands, -1 before any

	ext    []rat.R // extended-search candidate merge buffer
	extThr []int   // extended-search thresholds (thrU then thrD)
}

func (sw *gn2Sweep) newScratch() *gn2Scratch {
	n := len(sw.s.Tasks)
	sc := &gn2Scratch{
		b1:   make([]rat.R, n),
		sum1: new(rat.Acc),
		sum2: new(rat.Acc),
		last: new(rat.Acc),
	}
	if sw.screen {
		sc.fb1 = make([]interval.I, n)
	}
	if sw.g.Options.ExtendedLambdaSearch {
		sc.extThr = make([]int, 2*n)
	}
	return sc
}

// prepare points sc at task k. It is O(1) exact work — the case-1 rows
// and the end of the valid range are computed on demand — except under
// the extended search, whose merged candidate list is built from the
// exact case-1 row up front.
func (sw *gn2Sweep) prepare(k int, sc *gn2Scratch) {
	tk := sw.s.Tasks[k]
	sc.k, sc.dk = k, int64(tk.D)
	sc.scaled = tk.T > tk.D
	if sc.scaled {
		sc.mK = rat.FromFrac(int64(tk.T), int64(tk.D))
	}
	sc.b1ok, sc.fb1ok = false, false
	sc.screenCounters, sc.lastIdx = screenCounters{}, -1
	sc.cands, sc.lo, sc.thrU, sc.thrD = sw.cands, sw.candU[k], sw.candU, sw.candD
	if !sw.g.Options.ExtendedLambdaSearch {
		return
	}
	sw.fillB1(sc)
	sc.cands, sc.lo = sw.extendedCandidatesFor(sc, sw.cands[sw.candU[k]:]), 0
	n := len(sw.ui)
	sc.thrU, sc.thrD = sc.extThr[:n], sc.extThr[n:]
	for i := range sw.ui {
		sc.thrU[i] = lowerBoundR(sc.cands, sw.ui[i])
		sc.thrD[i] = lowerBoundR(sc.cands, sw.dens[i])
	}
}

// flush hands task k's screen counters to the sweep's sink.
func (sw *gn2Sweep) flush(sc *gn2Scratch) { sw.stats.add(sc.screenCounters) }

// fillB1 hoists the λ-independent case-1 βs of task k out of the
// candidate loop: once per (i, k) pair instead of once per (i, k, λ).
func (sw *gn2Sweep) fillB1(sc *gn2Scratch) {
	if sc.b1ok {
		return
	}
	for i, ti := range sw.s.Tasks {
		sc.b1[i] = gn2CaseOneBeta(ti, sw.ui[i], sc.dk)
	}
	sc.b1ok = true
}

// fillFB1 encloses the case-1 row from its unreduced integer fraction,
// so the screen pays no gcd for it.
func (sw *gn2Sweep) fillFB1(sc *gn2Scratch) {
	if sc.fb1ok {
		return
	}
	for i, ti := range sw.s.Tasks {
		if ti.T <= ti.D {
			sc.fb1[i] = sw.fui[i]
		} else if num, den, ok := gn2CaseOneFrac(ti, sc.dk); ok {
			sc.fb1[i] = interval.FromFrac(num, den)
		} else {
			sc.fb1[i] = interval.FromRat(gn2CaseOneBeta(ti, sw.ui[i], sc.dk))
		}
	}
	sc.fb1ok = true
}

// oneMinus is 1 − λk for task k at λ.
func (sc *gn2Scratch) oneMinus(lambda rat.R) rat.R {
	if sc.scaled {
		lambda = lambda.Mul(sc.mK)
	}
	return rat.One.Sub(lambda)
}

// fOneMinus encloses 1 − λk for task k over the λ enclosure fLambda.
func (sc *gn2Scratch) fOneMinus(fLambda interval.I) interval.I {
	if sc.scaled {
		fLambda = interval.FromRat(sc.mK).Mul(fLambda)
	}
	return oneIv.Sub(fLambda)
}

// validEnd returns the end of task k's valid candidates. λk > 1 makes
// the proof's Lemma-9 instantiation (x = (1−λk)δ > 0) vacuous:
// condition 1 would degenerate to the meaningless "ΣAi > Abnd" and
// certify nothing, so such λ are outside the theorem's effective range
// (DESIGN.md item T3-RANGE, found by the dense-λ completeness test).
// λk increases along the sorted list, so the valid candidates form a
// prefix, found by exact binary search.
func (sc *gn2Scratch) validEnd() int {
	return sc.lo + sort.Search(len(sc.cands)-sc.lo, func(j int) bool {
		return sc.oneMinus(sc.cands[sc.lo+j]).Sign() < 0
	})
}

// check is the from-scratch driver of the candidate pipeline: it scans
// task k's whole valid range for the first λ that satisfies condition 1
// or condition 2. Heap rationals are allocated only for the returned
// BoundCheck; every intermediate value lives in sc or on the stack.
func (sw *gn2Sweep) check(ctx context.Context, k int, sc *gn2Scratch) (BoundCheck, error) {
	sw.prepare(k, sc)
	defer sw.flush(sc)
	hi := sc.validEnd()
	chk, at, err := sw.scan(ctx, sc, sc.lo, hi)
	if err != nil || at >= 0 || hi <= sc.lo || !sw.evidence {
		return chk, err
	}
	if sc.lastIdx != hi-1 {
		// No candidate accepted and the last one was screened out — but
		// the failing certificate carries exactly its condition-2
		// evidence. Re-derive it with the exact kernel (it migrates from
		// decided to escalated: its exact values were needed after all).
		// Acceptance here is impossible for a sound screen, but the exact
		// kernel keeps authority if it happens.
		sc.decided--
		sc.escalated++
		if sc.rangeLast {
			sc.rangePruned--
		}
		if chk, ok := sw.evalCandidate(sc, sc.cands[hi-1]); ok {
			return chk, nil
		}
	}
	return BoundCheck{LHS: sc.last.Rat(), RHS: sc.lastRHS.Rat(), Satisfied: false}, nil
}

// scan runs the candidate pipeline over cands[lo:hi) of the prepared
// task and returns the first accepting candidate's check and index (-1
// if none). Each candidate passes through up to three stages:
//
//  1. the range screen, which bisects: one interval evaluation over
//     the range's λ hull certifies that every candidate in it violates
//     both conditions; a range it cannot certify splits at its
//     midpoint, and the halves are scanned left first;
//  2. the point screen, the same certification for a single candidate;
//  3. evalCandidate, the exact kernel, for every candidate neither
//     screen could dispose of — straddling or certainly satisfied.
//
// A rejected task, whose whole range usually certifies at once, thus
// costs one interval evaluation instead of one per candidate. The
// screens only ever discard candidates that exactly violate both
// conditions (the enclosure invariant makes "certainly violated" imply
// "exactly violated"), and the left-first recursion hands candidates to
// stage 3 in list order, so the first accepting candidate and its
// certificate are byte-identical to the screen-off scan, which runs
// stage 3 alone. ctx is polled once per range evaluation and once per
// candidate (each evaluation is O(N) work), so a disconnected client
// aborts a large analysis mid-sweep.
func (sw *gn2Sweep) scan(ctx context.Context, sc *gn2Scratch, lo, hi int) (BoundCheck, int, error) {
	if sw.screen && hi-lo > 1 {
		if err := ctx.Err(); err != nil {
			return BoundCheck{}, -1, err
		}
		fLambda := interval.Hull(interval.FromRat(sc.cands[lo]), interval.FromRat(sc.cands[hi-1]))
		if sw.violated(sc, lo, hi, fLambda, sc.fOneMinus(fLambda)) {
			sc.decided += uint64(hi - lo)
			sc.rangePruned += uint64(hi - lo)
			sc.rangeLast = true
			return BoundCheck{}, -1, nil
		}
		mid := lo + (hi-lo)/2
		if chk, at, err := sw.scan(ctx, sc, lo, mid); err != nil || at >= 0 {
			return chk, at, err
		}
		return sw.scan(ctx, sc, mid, hi)
	}
	for ci := lo; ci < hi; ci++ {
		if err := ctx.Err(); err != nil {
			return BoundCheck{}, -1, err
		}
		lambda := sc.cands[ci]
		if sw.screen && sw.violated(sc, ci, ci+1, interval.FromRat(lambda), interval.FromRat(sc.oneMinus(lambda))) {
			sc.decided++
			sc.rangeLast = false
			continue
		}
		sc.escalated++
		if chk, ok := sw.evalCandidate(sc, lambda); ok {
			return chk, ci, nil
		}
		sc.lastIdx = ci
	}
	return BoundCheck{}, -1, nil
}

// oneIv is condition 2's constant cap as an exact interval.
var oneIv = interval.Point(1)

// violated is both screen stages: it certifies, with one interval
// evaluation (counted in sc.evals), that every candidate in
// cands[lo:hi) violates both conditions for the prepared task, given
// enclosures fLambda of the range's λ values and fOneMinus of their
// 1−λk. Each task's β is enclosed by fbeta at the range's cases; a
// range that straddles a case threshold takes the hull of every case
// its indices select (the case-3 piece evaluated over the whole λ hull,
// a superset of its true subrange, which only widens the enclosure).
// For any λ in the range each exact quantity lies inside its enclosure,
// so LHS(λ) ≥ lo(sum) and RHS(λ) ≤ hi(rhs); lo(sum) ≥ hi(rhs) for both
// conditions therefore proves every candidate fails. It can return
// false negatives (a violating range it cannot certify), never screen
// out an accepting candidate. Condition 1 is strict "<" (violated ⇔
// ≥); condition 2's violation depends on the strictness option.
func (sw *gn2Sweep) violated(sc *gn2Scratch, lo, hi int, fLambda, fOneMinus interval.I) bool {
	sw.fillFB1(sc)
	sc.evals++
	var s1, s2 interval.Acc
	for i := range sw.ui {
		fb := sw.fbeta(sc, i, lo, fLambda)
		// A single candidate never straddles a threshold.
		if u, d := sc.thrU[i], sc.thrD[i]; hi-lo > 1 && (lo < u && u < hi || lo < d && d < hi && d < u) {
			fb = interval.Hull(fb, sw.fbeta(sc, i, hi-1, fLambda))
			if max(lo, d) < min(hi, u) {
				fb = interval.Hull(fb, sw.fmid(sc, i))
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

// fbeta encloses beta at candidate index ci of the prepared task, with
// λ enclosed by fLambda: the screen's one β case selector. It runs once
// per term of every screen evaluation, so the case-1 lookup is kept
// small enough to inline and the other cases sit in fbetaBelow.
func (sw *gn2Sweep) fbeta(sc *gn2Scratch, i, ci int, fLambda interval.I) interval.I {
	if ci >= sc.thrU[i] {
		return sc.fb1[i]
	}
	return sw.fbetaBelow(sc, i, ci, fLambda)
}

// fbetaBelow is fbeta for a candidate below task i's case-1 threshold.
// Case 3 scales by Di and divides by Dk, exact positive points for any
// deadline up to 2^53 ticks, so it uses the two-bound scalar operations
// (the same bounds the general ones compute for a point) and falls back
// to the general ones only beyond that.
func (sw *gn2Sweep) fbetaBelow(sc *gn2Scratch, i, ci int, fLambda interval.I) interval.I {
	if ci >= sc.thrD[i] {
		return sw.fmid(sc, i)
	}
	di, dk := sw.fD[i], sw.fD[sc.k]
	if di.Lo == di.Hi && dk.Lo == dk.Hi {
		return sw.fui[i].Add(sw.fC[i].Sub(fLambda.MulPos(di.Lo)).QuoPos(dk.Lo))
	}
	return sw.fui[i].Add(sw.fC[i].Sub(fLambda.Mul(di)).Quo(dk))
}

// fmid encloses beta's middle case.
func (sw *gn2Sweep) fmid(sc *gn2Scratch, i int) interval.I {
	if sw.g.Options.CaseTwoBaker {
		return sw.fdens[i]
	}
	return sw.fui[sc.k]
}

// beta is Lemma 7's βλk(i) for the prepared task k: the pipeline's one
// exact β case selector. The case-1 value comes from the hoisted row
// once filled, and is computed in place before that (a recheck settled
// at the witness needs a single term).
func (sw *gn2Sweep) beta(sc *gn2Scratch, i int, lambda rat.R) rat.R {
	ui := sw.ui[i]
	if ui.Cmp(lambda) <= 0 {
		if sc.b1ok {
			return sc.b1[i]
		}
		return gn2CaseOneBeta(sw.s.Tasks[i], ui, sc.dk)
	}
	if lambda.Cmp(sw.dens[i]) >= 0 {
		// Middle case: reachable only when Ci/Di < λ < Ci/Ti, i.e.
		// Di > Ti. Printed value is Ck/Tk (L7-CASE2); Baker's TR uses a
		// task-i quantity, approximated here by Ci/Di when selected.
		if sw.g.Options.CaseTwoBaker {
			return sw.dens[i]
		}
		return sw.ui[sc.k]
	}
	// Ci/Ti + (Ci − λ·Di)/Dk.
	ti := sw.s.Tasks[i]
	carry := rat.FromInt(int64(ti.C)).Sub(lambda.Mul(rat.FromInt(int64(ti.D)))).Quo(rat.FromInt(sc.dk))
	return ui.Add(carry)
}

// evalCandidate evaluates conditions 1 and 2 exactly for the prepared
// task at one valid λ. On acceptance it returns the satisfied
// BoundCheck (just the bit without evidence) and leaves both condition
// sums in sc.sum1/sum2. Otherwise it parks the condition-2 LHS in
// sc.last and its RHS in sc.lastRHS, which together form the failing
// certificate's evidence if this turns out to be the last candidate.
// Every route to an exact value — scan, the from-scratch evidence
// re-derivation, the admit state's witness — funnels through here, so a
// candidate is evaluated identically no matter how it was reached.
func (sw *gn2Sweep) evalCandidate(sc *gn2Scratch, lambda rat.R) (BoundCheck, bool) {
	sw.fillB1(sc)
	oneMinus := sc.oneMinus(lambda)
	sc.sum1.Reset()
	sc.sum2.Reset()
	for i := range sw.ui {
		beta := sw.beta(sc, i, lambda)
		sc.sum1.Add(sw.area[i].Mul(rat.Min(beta, oneMinus)))
		sc.sum2.Add(sw.area[i].Mul(rat.Min(beta, rat.One)))
	}

	// Condition 1: Σ Ai·min(β, 1−λk) < Abnd·(1−λk), strict.
	rhs1 := sw.abnd.Mul(oneMinus)
	if sc.sum1.Cmp(rhs1) < 0 {
		return sw.satisfied(sc.sum1, rhs1, lambda, 1), true
	}

	// Condition 2: Σ Ai·min(β, 1) vs (Abnd−Amin)·(1−λk) + Amin.
	rhs2 := sw.abndMinusAmin.Mul(oneMinus).Add(sw.amin)
	cmp := sc.sum2.Cmp(rhs2)
	if cmp < 0 || (sw.g.Options.CondTwoNonStrict && cmp == 0) {
		return sw.satisfied(sc.sum2, rhs2, lambda, 2), true
	}
	// Keep the failed condition-2 evidence without copying: swap the
	// accumulator with the scratch's holding slot.
	sc.sum2, sc.last = sc.last, sc.sum2
	sc.lastRHS = rhs2
	return BoundCheck{}, false
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
	if ti.T <= ti.D {
		return ui // Ti = Di makes the two terms equal
	}
	if num, den, ok := gn2CaseOneFrac(ti, dk); ok {
		return rat.FromFrac(num, den)
	}
	c, d := int64(ti.C), int64(ti.D)
	alt := rat.One.Sub(rat.FromFrac(d, dk)).Mul(ui).Add(rat.FromFrac(c, dk))
	return rat.Max(ui, alt)
}

// gn2CaseOneFrac is the case-1 value of a task with Ti > Di as its
// unreduced integer fraction Ci·(Dk + Ti − Di) / (Ti·Dk); ok is false
// when an int64 product would overflow.
func gn2CaseOneFrac(ti task.Task, dk int64) (num, den int64, ok bool) {
	c, d, t := int64(ti.C), int64(ti.D), int64(ti.T)
	if t-d > math.MaxInt64-dk {
		return 0, 0, false
	}
	nh, nl := bits.Mul64(uint64(c), uint64(dk+t-d))
	dh, dl := bits.Mul64(uint64(t), uint64(dk))
	if nh != 0 || dh != 0 || nl > math.MaxInt64 || dl > math.MaxInt64 {
		return 0, 0, false
	}
	return int64(nl), int64(dl), true
}

// extendedCandidatesFor appends, for the prepared task k, every λ at
// which some βλk(i) crosses 1−λk (condition 1's cap) or the constant 1
// (condition 2's cap) — the breakpoints of the piecewise-linear test
// functions that the paper's candidate set omits — to task k's suffix
// base of the global list. Only values in [uk, 1/m] (so that λk ≤ 1)
// are kept. The merged list is re-sorted and deduplicated in the
// scratch buffer. Requires sc.b1 to be filled for task k (the case-1
// βs double as the crossing constants).
func (sw *gn2Sweep) extendedCandidatesFor(sc *gn2Scratch, base []rat.R) []rat.R {
	tk := sw.s.Tasks[sc.k]
	uk := sw.ui[sc.k]
	// m = max(1, Tk/Dk); λk = m·λ.
	m := rat.One
	if sc.scaled {
		m = sc.mK
	}
	// λ must satisfy λk ≤ 1, i.e. λ ≤ 1/m.
	lambdaMax := rat.One.Quo(m)
	out := append(sc.ext[:0], base...)
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
	sc.ext = sortDedupR(out)
	return sc.ext
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

// lowerBoundR returns the first index with rs[i] >= v.
func lowerBoundR(rs []rat.R, v rat.R) int {
	return sort.Search(len(rs), func(i int) bool { return rs[i].Cmp(v) >= 0 })
}
