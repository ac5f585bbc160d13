package core_test

import (
	"context"
	"reflect"
	"testing"

	"fpgasched/internal/core"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

// stageVariants is every GN2 configuration the set-level stage serves,
// alone and as the last member of the recommended composites.
var stageVariants = []core.GN2Test{
	{},
	{Options: core.GN2Options{CondTwoNonStrict: true}},
	{Options: core.GN2Options{ExtendedLambdaSearch: true}},
	{Options: core.GN2Options{CaseTwoBaker: true}},
}

// checkStage asserts the stage's soundness on one (device, set): if it
// rejects for a GN2 variant, the screen-off Analyze of that variant
// rejects every task, and Decide, with the stage, returns that verdict
// stripped of its values. For any-nf and any-fkf it asserts the same of
// the GN2 member whenever the composite reaches it. It returns whether
// the stage rejected for the plain variant.
func checkStage(t *testing.T, label string, dev core.Device, s *task.Set) bool {
	t.Helper()
	off := core.WithScreen(context.Background(), false)
	fired := false
	for _, g := range stageVariants {
		if !core.GN2SetStageRejects(g, dev, s) {
			continue
		}
		fired = fired || g == core.GN2Test{}
		full := g.Analyze(off, dev, s)
		if full.Schedulable || full.FailingTask != 0 {
			t.Fatalf("%s/%s: stage rejects but Analyze says %v", label, g.Name(), full)
		}
		for _, c := range full.Checks {
			if c.Satisfied {
				t.Fatalf("%s/%s: stage rejects but Analyze accepts task %d at λ=%v", label, g.Name(), c.TaskIndex, c.Lambda)
			}
		}
		if got, want := core.Decide(context.Background(), g, dev, s), stripEvidence(full); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%s: staged Decide differs from stripped Analyze\n got: %+v\nwant: %+v", label, g.Name(), got, want)
		}
	}
	if !core.GN2SetStageRejects(core.GN2Test{}, dev, s) {
		return fired
	}
	for _, c := range []core.Composite{core.ForNF(), core.ForFkF()} {
		full := c.Analyze(off, dev, s)
		if len(full.SubVerdicts) == len(c.Tests) {
			for _, chk := range full.SubVerdicts[len(c.Tests)-1].Checks {
				if chk.Satisfied {
					t.Fatalf("%s/%s: stage rejects but GN2 accepts task %d", label, c.Name(), chk.TaskIndex)
				}
			}
		}
		if got, want := core.Decide(context.Background(), c, dev, s), stripEvidence(full); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%s: staged Decide differs from stripped Analyze", label, c.Name())
		}
	}
	return fired
}

// TestGN2SetStageSound is the set-level stage's property test: over
// random small constrained-deadline sets, drawn so that US(Γ) lands on
// both sides of max(Abnd, Amin) and often exactly on it, and over the
// served cold mix, no set the stage rejects has a task that the
// screen-off sweep accepts.
func TestGN2SetStageSound(t *testing.T) {
	r := workload.Rand(26)
	fired, total := 0, 0
	for range 4000 {
		cols := 1 + r.IntN(12)
		s := &task.Set{}
		for range 1 + r.IntN(6) {
			period := int64(1+r.IntN(8)) * 4
			d := period - int64(r.IntN(int(period)))
			c := 1 + r.Int64N(d)
			if r.IntN(3) == 0 {
				c = d // a full-density task puts US(Γ) on integers
			}
			s.Tasks = append(s.Tasks, task.Task{C: taskTime(c), D: taskTime(d), T: taskTime(period), A: 1 + r.IntN(cols)})
		}
		total++
		if checkStage(t, "random", core.NewDevice(cols), s) {
			fired++
		}
	}
	dev := core.NewDevice(workload.FigureDeviceColumns)
	// The first 64 sets of the cold mix: the screen-off sweeps of every
	// variant on 30 tasks cost ~70 ms a set.
	cold := coldSets(64)
	if testing.Short() {
		cold = cold[:16]
	}
	for _, s := range cold {
		total++
		if checkStage(t, "cold", dev, s) {
			fired++
		}
	}
	t.Logf("stage rejected %d of %d sets", fired, total)
	if fired == 0 || fired == total {
		t.Fatalf("stage rejected %d of %d sets; the corpus must exercise both outcomes", fired, total)
	}
}

// TestGN2SetStageScope pins where the stage may act: never on a set
// with a post-period deadline (Lemma 7's middle case can push β below
// Ci/Ti), and never on an exact tie US(Γ) = max(Abnd, Amin), whose
// widened enclosure straddles the bound, so the sweep decides it (the
// tie violates condition 2 only under the strict comparison).
// Unit-utilization tasks put US(Γ) on an integer, so the tie is exact.
func TestGN2SetStageScope(t *testing.T) {
	full := func(c, d, tt int64, a int) task.Task {
		return task.Task{C: taskTime(c), D: taskTime(d), T: taskTime(tt), A: a}
	}
	// Two unit-utilization tasks of area 2 and 3 on 4 columns: US = 5,
	// Abnd = 4 − 3 + 1 = 2, Amin = 2.
	over := task.NewSet(full(4, 4, 4, 2), full(4, 4, 4, 3))
	// US = 3 exactly: equal to max(Abnd, Amin) = 4 − 2 + 1 = 3.
	equal := task.NewSet(full(4, 4, 4, 2), full(4, 4, 4, 1))
	// The same load with one post-period deadline.
	post := task.NewSet(full(4, 4, 4, 2), full(4, 8, 4, 3))
	dev := core.NewDevice(4)
	le := core.GN2Test{Options: core.GN2Options{CondTwoNonStrict: true}}
	for _, tc := range []struct {
		name string
		g    core.GN2Test
		s    *task.Set
		want bool
	}{
		{"over", core.GN2Test{}, over, true},
		{"over-le", le, over, true},
		{"equal", core.GN2Test{}, equal, false},
		{"equal-le", le, equal, false},
		{"post-period", core.GN2Test{}, post, false},
	} {
		if got := core.GN2SetStageRejects(tc.g, dev, tc.s); got != tc.want {
			t.Errorf("%s: stage rejects = %v, want %v", tc.name, got, tc.want)
		}
		checkStage(t, tc.name, dev, tc.s)
	}
}
