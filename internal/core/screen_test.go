package core_test

// Tests for the interval screen's observable contract: the switch and
// counter plumbing, the guarantee that near-boundary bounds escalate to
// exact arithmetic rather than being decided on floats, and the
// counters' per-kernel accounting invariants. The screen's semantic
// equivalence is covered by the widened differential suite
// (diffCompare runs every pair screen-on and screen-off).

import (
	"context"
	"testing"

	"fpgasched/internal/core"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

// statsCtx returns a context with the screen on and a fresh counter
// sink attached.
func statsCtx() (context.Context, *core.ScreenStats) {
	st := new(core.ScreenStats)
	return core.WithScreenStats(context.Background(), st), st
}

// TestScreenKnifeEdgeEscalates pins the adversarial near-boundary case:
// the paper's Table-1 taskset meets GN2's condition 2 with EXACT
// equality at the accepting candidate λ = 0.19 (DESIGN.md item
// T3-STRICT). No float comparison can be trusted to resolve an exact
// tie, and the interval screen never tries: widening makes every
// post-operation enclosure non-degenerate, so the equality straddles
// the bound and the candidate escalates to the exact kernel — under
// both resolutions of the strictness ambiguity, and with the verdict
// identical to the screen-off path.
func TestScreenKnifeEdgeEscalates(t *testing.T) {
	dev := core.NewDevice(workload.TableDeviceColumns)
	set := workload.Table1()
	for _, g := range []core.GN2Test{
		{}, // strict condition 2: Table 1 rejected at the tie
		{Options: core.GN2Options{CondTwoNonStrict: true}}, // non-strict: accepted at the tie
	} {
		ctx, st := statsCtx()
		screened := g.Analyze(ctx, dev, set)
		unscreened := g.Analyze(core.WithScreen(context.Background(), false), dev, set)
		assertIdentical(t, "knife-edge/"+g.Name(), screened, unscreened)
		if esc := st.Escalated.Load(); esc < 1 {
			t.Fatalf("%s: knife-edge candidate decided on floats (escalated=%d, decided=%d)",
				g.Name(), esc, st.Decided.Load())
		}
	}
}

// TestScreenDecidesOffBoundaryCandidates verifies the screen earns its
// keep: on a taskset GN2 rejects, the failing task's sweep tries every
// candidate, and the candidates that are not near a bound must be
// disposed of without exact arithmetic.
func TestScreenDecidesOffBoundaryCandidates(t *testing.T) {
	dev := core.NewDevice(workload.FigureDeviceColumns)
	for seed := uint64(1); seed <= 30; seed++ {
		s := workload.Unconstrained(30).Generate(workload.Rand(seed))
		ctx, st := statsCtx()
		v := (core.GN2Test{}).Analyze(ctx, dev, s)
		if v.Schedulable {
			continue
		}
		if st.Decided.Load() == 0 {
			t.Fatalf("seed %d: rejecting sweep decided no candidate on intervals (escalated=%d)",
				seed, st.Escalated.Load())
		}
		return
	}
	t.Fatal("no rejecting taskset found in 30 seeds; widen the search")
}

// TestScreenOffCountsNothing: with the screen disabled the kernels must
// not touch the counters — the sink observing zero is how the engine's
// screen=off mode is asserted end to end.
func TestScreenOffCountsNothing(t *testing.T) {
	st := new(core.ScreenStats)
	ctx := core.WithScreen(core.WithScreenStats(context.Background(), st), false)
	dev := core.NewDevice(workload.TableDeviceColumns)
	for _, tt := range []core.Test{core.DPTest{}, core.GN1Test{}, core.GN2Test{}} {
		tt.Analyze(ctx, dev, workload.Table3())
	}
	if d, e := st.Decided.Load(), st.Escalated.Load(); d != 0 || e != 0 {
		t.Fatalf("screen off but counters moved: decided=%d escalated=%d", d, e)
	}
}

// TestScreenCountersAccountPerBound pins the counters' unit: GN1 and DP
// classify exactly one bound per task (their certificates always carry
// the exact sides, so the screen decides only the comparison), hence
// decided + escalated equals the task count whenever the set reaches
// the per-task loop.
func TestScreenCountersAccountPerBound(t *testing.T) {
	dev := core.NewDevice(workload.TableDeviceColumns)
	cases := []struct {
		test core.Test
		set  *task.Set
	}{
		{core.GN1Test{}, workload.Table3()},
		{core.DPTest{}, workload.Table1()},
		{core.DPTest{}, workload.Table2()},
	}
	for _, c := range cases {
		ctx, st := statsCtx()
		v := c.test.Analyze(ctx, dev, c.set)
		if v.Err != nil {
			t.Fatalf("%s: unexpected abort: %v", c.test.Name(), v.Err)
		}
		want := uint64(len(c.set.Tasks))
		if got := st.Decided.Load() + st.Escalated.Load(); got != want {
			t.Fatalf("%s: decided+escalated = %d, want one per task = %d (decided=%d escalated=%d)",
				c.test.Name(), got, want, st.Decided.Load(), st.Escalated.Load())
		}
	}
}

// TestScreenStatsSharedAcrossParallelSweep: the counter sink is shared
// by all sweep workers (atomics), and the totals are deterministic for
// a rejecting set — every worker tries the full candidate list of its
// failing tasks regardless of interleaving.
func TestScreenStatsSharedAcrossParallelSweep(t *testing.T) {
	dev := core.NewDevice(workload.FigureDeviceColumns)
	var set *task.Set
	for seed := uint64(1); seed <= 30; seed++ {
		s := workload.Unconstrained(20).Generate(workload.Rand(seed))
		if v := (core.GN2Test{}).Analyze(context.Background(), dev, s); !v.Schedulable && v.Err == nil {
			set = s
			break
		}
	}
	if set == nil {
		t.Skip("no rejecting taskset found")
	}
	serialCtx, serialSt := statsCtx()
	(core.GN2Test{}).Analyze(serialCtx, dev, set)
	parCtx, parSt := statsCtx()
	(core.GN2Test{}).Analyze(core.WithSweepWorkers(parCtx, 4), dev, set)
	// Accepting tasks stop at the same first accepting candidate in
	// both modes; failing tasks sweep everything. Totals must agree.
	if serialSt.Decided.Load() != parSt.Decided.Load() || serialSt.Escalated.Load() != parSt.Escalated.Load() {
		t.Fatalf("parallel sweep changed screen accounting: serial=(%d,%d) parallel=(%d,%d)",
			serialSt.Decided.Load(), serialSt.Escalated.Load(),
			parSt.Decided.Load(), parSt.Escalated.Load())
	}
}

// TestColdMixGN2ScreenWork pins what GN2's screens cost on the served
// analyze-cold mix (coldSets) under Decide: GN2 rejects the tasks of
// nearly every set that reaches it. The set-level stage rejects most
// such sets with one interval evaluation; on the rest a rejected
// task's whole candidate range should certify with about one range
// evaluation. The bound of 1.6 evaluations per task leaves headroom
// over the 1.49 the range screen alone measured (0.06 with the stage);
// screening each of a task's ~15 candidates on its own would cost ~15.
// No candidate may need the exact kernel.
func TestColdMixGN2ScreenWork(t *testing.T) {
	dev := core.NewDevice(workload.FigureDeviceColumns)
	nf := core.ForNF()
	ctx, st := statsCtx()
	sets, tasks := 0, 0
	for _, s := range coldSets(512) {
		// Only sets that DP and GN1 both reject reach GN2 under any-nf.
		if v := core.Decide(context.Background(), nf, dev, s); len(v.SubVerdicts) < len(nf.Tests) {
			continue
		}
		if v := core.Decide(ctx, core.GN2Test{}, dev, s); v.Err != nil {
			t.Fatal(v.Err)
		}
		sets++
		tasks += s.Len()
	}
	if tasks == 0 {
		t.Fatal("no cold set reached GN2")
	}
	evals, esc := st.Evals.Load(), st.Escalated.Load()
	perTask := float64(evals) / float64(tasks)
	t.Logf("%d sets, %d tasks reach GN2: %d evaluations (%.2f per task), %d range-pruned, %d decided, %d escalated",
		sets, tasks, evals, perTask, st.RangePruned.Load(), st.Decided.Load(), esc)
	if perTask > 1.6 {
		t.Errorf("GN2 screen evaluations per task = %.2f, want <= 1.6", perTask)
	}
	if esc != 0 {
		t.Errorf("exact evaluations = %d, want 0", esc)
	}
	if st.RangePruned.Load() > st.Decided.Load() {
		t.Errorf("range-pruned %d exceeds decided %d", st.RangePruned.Load(), st.Decided.Load())
	}
}
