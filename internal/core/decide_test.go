package core_test

import (
	"context"
	"reflect"
	"testing"

	"fpgasched/internal/core"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

// stripEvidence returns v with every exact certificate value removed
// from its checks (recursively through composite sub-verdicts): the
// shape core.Decide promises to return.
func stripEvidence(v core.Verdict) core.Verdict {
	if v.Checks != nil {
		checks := make([]core.BoundCheck, len(v.Checks))
		for i, c := range v.Checks {
			checks[i] = core.BoundCheck{TaskIndex: c.TaskIndex, Satisfied: c.Satisfied}
		}
		v.Checks = checks
	}
	if v.SubVerdicts != nil {
		subs := make([]core.Verdict, len(v.SubVerdicts))
		for i, sv := range v.SubVerdicts {
			subs[i] = stripEvidence(sv)
		}
		v.SubVerdicts = subs
	}
	return v
}

// decideTests is every registry entry plus the option variants the
// registry does not name, so each kernel's evidence flag is exercised
// under every configuration.
func decideTests(t *testing.T) []core.Test {
	t.Helper()
	var tests []core.Test
	for _, name := range core.TestNames() {
		tt, err := core.TestByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tests = append(tests, tt)
	}
	return append(tests,
		core.GN2Test{Options: core.GN2Options{CondTwoNonStrict: true}},
		core.GN2Test{Options: core.GN2Options{CaseTwoBaker: true}},
		core.Composite{Tests: []core.Test{core.GN2Test{}, core.MPTest{Kind: core.MPBAK2}, core.GN1Test{}}},
	)
}

// decideCompare asserts Decide ≡ Analyze-with-values-stripped for every
// test on one (device, set), with the interval screen on and off.
func decideCompare(t *testing.T, label string, tests []core.Test, dev core.Device, s *task.Set) {
	t.Helper()
	for _, ctx := range []context.Context{
		context.Background(),
		core.WithScreen(context.Background(), false),
	} {
		for _, tt := range tests {
			full := tt.Analyze(ctx, dev, s)
			got := core.Decide(ctx, tt, dev, s)
			if want := stripEvidence(full); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s/screen=%v: Decide differs from stripped Analyze\n got: %+v\nwant: %+v",
					label, tt.Name(), core.ScreenOn(ctx), got, want)
			}
		}
	}
}

// TestDecideMatchesAnalyze pins Decide's contract over the same corpus
// as the differential suite: the paper's tables, 1080 generated sets
// from the three workload profiles, and random sets with post-period
// and constrained deadlines (GN2's middle β case and λk scaling).
func TestDecideMatchesAnalyze(t *testing.T) {
	tests := decideTests(t)
	tables := core.NewDevice(workload.TableDeviceColumns)
	for name, set := range map[string]*task.Set{
		"table1": workload.Table1(),
		"table2": workload.Table2(),
		"table3": workload.Table3(),
	} {
		decideCompare(t, name, tests, tables, set)
	}

	profiles := []func(int) workload.Profile{
		workload.Unconstrained,
		workload.SpatiallyHeavyTemporallyLight,
		workload.SpatiallyLightTemporallyHeavy,
	}
	dev := core.NewDevice(workload.FigureDeviceColumns)
	sets := 0
	for pi, pf := range profiles {
		for seed := uint64(1); seed <= 120; seed++ {
			for si, n := range []int{2, 5, 8} {
				r := workload.Rand(seed + uint64(pi)*1000 + uint64(si)*100000)
				decideCompare(t, pf(n).Name, tests, dev, pf(n).Generate(r))
				sets++
			}
		}
	}
	if sets != 1080 {
		t.Fatalf("corpus covered %d generated sets, want 1080", sets)
	}

	post := core.NewDevice(12)
	for seed := uint64(1); seed <= 150; seed++ {
		r := workload.Rand(seed)
		s := &task.Set{}
		for i := 0; i < 1+int(seed%6); i++ {
			period := int64(4+r.IntN(16)) * 10000
			d := period
			switch r.IntN(3) {
			case 0:
				d = period * 2
			case 1:
				d = period / 2
			}
			c := 1 + r.Int64N(min64(d, period))
			s.Tasks = append(s.Tasks, task.Task{C: taskTime(c), D: taskTime(d), T: taskTime(period), A: 1 + r.IntN(10)})
		}
		if s.ValidateFor(post.Columns) == nil {
			decideCompare(t, "postperiod", tests, post, s)
		}
	}
}

// TestDecideLargeSets covers the paper-sized sets the served workload
// draws (30 tasks), where GN2 rejects at many tasks at once and every
// Satisfied bit matters to the caller's failing-task attribution, with
// serial and parallel sweeps.
func TestDecideLargeSets(t *testing.T) {
	dev := core.NewDevice(workload.FigureDeviceColumns)
	par := core.WithSweepWorkers(context.Background(), 4)
	for seed := uint64(1); seed <= 12; seed++ {
		s := workload.Unconstrained(30).Generate(workload.Rand(seed))
		for _, tt := range []core.Test{core.ForNF(), core.ForFkF(), core.GN2Test{Options: core.GN2Options{ExtendedLambdaSearch: true}}} {
			want := stripEvidence(tt.Analyze(context.Background(), dev, s))
			for _, ctx := range []context.Context{context.Background(), par, core.WithScreen(par, false)} {
				if got := core.Decide(ctx, tt, dev, s); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s: Decide differs from stripped Analyze", seed, tt.Name())
				}
			}
		}
	}
}

// TestDecideCancelled checks that an aborted Decide is reported like an
// aborted Analyze: Err set, nothing to act on. The set is cold-mix set
// 73 (coldSets): DP and GN1 reject it, and its US(Γ) ≈ 46 is below
// Abnd = 53, so GN2's set-level stage cannot reject it and the per-task
// sweep runs into the poll budget.
func TestDecideCancelled(t *testing.T) {
	r := workload.Rand(74)
	s, _ := workload.Heterogeneous(30).GenerateWithTargetUS(r, 10+r.Float64()*50)
	dev := core.NewDevice(workload.FigureDeviceColumns)
	ctx := &pollLimitedCtx{Context: context.Background(), limit: 40}
	v := core.Decide(ctx, core.ForNF(), dev, s)
	if v.Err == nil || v.Schedulable {
		t.Fatalf("cancelled Decide returned a definite verdict: %+v", v)
	}
}
