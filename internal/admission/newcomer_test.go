package admission

import (
	"context"
	"encoding/json"
	"testing"

	"fpgasched/internal/core"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

// TestNewcomerRejectMatchesAnalyze checks every admit state's newcomer-
// first stage against the from-scratch analysis. Each task of every
// generated corpus set (the 1080 sets of the churn differential) and of
// the paper's Tables 1–3 in turn becomes the newcomer: the rest of its
// set is replayed into a fresh single-test controller, and the first
// Request must decide exactly as Analyze does on the same trial set,
// with a byte-identical certificate on acceptance. When the newcomer's
// own bound fails (Analyze's check for the last task), the rejection
// must come from the admit state alone: no full run counted.
func TestNewcomerRejectMatchesAnalyze(t *testing.T) {
	tests := []core.Test{
		core.DPTest{},
		core.GN1Test{},
		core.GN2Test{},
		core.GN2Test{Options: core.GN2Options{CondTwoNonStrict: true}},
		core.GN2Test{Options: core.GN2Options{CaseTwoBaker: true}},
	}
	type corpusSet struct {
		columns int
		s       *task.Set
	}
	var corpus []corpusSet
	for _, s := range []*task.Set{workload.Table1(), workload.Table2(), workload.Table3()} {
		corpus = append(corpus, corpusSet{workload.TableDeviceColumns, s})
	}
	profiles := []func(int) workload.Profile{
		workload.Unconstrained,
		workload.SpatiallyHeavyTemporallyLight,
		workload.SpatiallyLightTemporallyHeavy,
	}
	for pi, pf := range profiles {
		for seed := uint64(1); seed <= 120; seed++ {
			for si, n := range []int{2, 5, 8} {
				r := workload.Rand(seed + uint64(pi)*1000 + uint64(si)*100000)
				corpus = append(corpus, corpusSet{workload.FigureDeviceColumns, pf(n).Generate(r)})
			}
		}
	}

	for _, screen := range []bool{true, false} {
		ctx := core.WithScreen(context.Background(), screen)
		var requests, newcomerRejects int
		for ci, cs := range corpus {
			n := len(cs.s.Tasks)
			for k := range cs.s.Tasks {
				trial := task.NewSet()
				for i, tk := range cs.s.Tasks {
					if i != k {
						trial.Tasks = append(trial.Tasks, tk)
					}
				}
				newcomer := cs.s.Tasks[k]
				trial.Tasks = append(trial.Tasks, newcomer)
				for _, test := range tests {
					c, err := NewController(cs.columns, test)
					if err != nil {
						t.Fatal(err)
					}
					for _, tk := range trial.Tasks[:n-1] {
						if err := c.ForceAdmit(tk); err != nil {
							t.Fatalf("set %d: %v", ci, err)
						}
					}
					d := c.Request(ctx, newcomer)
					want := test.Analyze(ctx, core.NewDevice(cs.columns), trial)
					requests++
					if d.Err != nil || d.Admitted != want.Schedulable {
						t.Fatalf("screen=%v set %d newcomer %d %s: admitted=%v (err %v), Analyze says %v (%s)",
							screen, ci, k, test.Name(), d.Admitted, d.Err, want.Schedulable, want.Reason)
					}
					if d.Admitted {
						cert := want.Certificate()
						a, _ := json.Marshal(d.Certificate)
						b, _ := json.Marshal(&cert)
						if string(a) != string(b) {
							t.Fatalf("screen=%v set %d newcomer %d %s: certificates differ:\nadmit:   %s\nanalyze: %s",
								screen, ci, k, test.Name(), a, b)
						}
					}
					if len(want.Checks) == n && !want.Checks[n-1].Satisfied {
						newcomerRejects++
						if st := c.Stats(); d.Admitted || st.FullRuns != 0 {
							t.Fatalf("screen=%v set %d newcomer %d %s: newcomer fails its own bound, yet admitted=%v after %d full runs",
								screen, ci, k, test.Name(), d.Admitted, st.FullRuns)
						}
					}
				}
			}
		}
		if newcomerRejects == 0 {
			t.Fatalf("screen=%v: no newcomer failed its own bound in %d requests", screen, requests)
		}
		t.Logf("screen=%v: %d first requests match Analyze; %d newcomer rejections without a full run",
			screen, requests, newcomerRejects)
	}
}
