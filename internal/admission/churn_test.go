package admission

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"fpgasched/internal/core"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

// The churn differential suite: the incremental admission path must be
// indistinguishable from the from-scratch path — identical decisions,
// byte-identical accepting certificates, identical resident sets —
// over randomized admit/release sequences on the same generated corpus
// the core differential suite uses (3 profiles × 120 seeds × 3 sizes =
// 1080 tasksets), with the interval screen on and off. Controllers
// share the swap-delete release, so even resident order must agree at
// every step.

// churnStep compares one request against both controllers.
func churnDecisionsEqual(t *testing.T, label string, inc, ref Decision) {
	t.Helper()
	if inc.Admitted != ref.Admitted || inc.ProvedBy != ref.ProvedBy || inc.Reason != ref.Reason {
		t.Fatalf("%s: decisions diverge:\nincremental: %+v\nfrom-scratch: %+v", label, inc, ref)
	}
	if (inc.Err == nil) != (ref.Err == nil) {
		t.Fatalf("%s: error divergence: %v vs %v", label, inc.Err, ref.Err)
	}
	if (inc.Certificate == nil) != (ref.Certificate == nil) {
		t.Fatalf("%s: certificate presence diverges", label)
	}
	if inc.Certificate != nil {
		a, err := json.Marshal(inc.Certificate)
		if err != nil {
			t.Fatalf("%s: marshal incremental certificate: %v", label, err)
		}
		b, err := json.Marshal(ref.Certificate)
		if err != nil {
			t.Fatalf("%s: marshal reference certificate: %v", label, err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s: certificates differ:\nincremental: %s\nfrom-scratch: %s", label, a, b)
		}
	}
}

// churnCompare drives the same randomized admit/release sequence
// through an incremental controller and a from-scratch reference,
// asserting equality after every operation. The sequence retries
// previously rejected tasks after the set shrinks (exercising pending
// incremental results that outlive a round) and ends with a
// deterministic admit-then-release phase (exercising the LIFO undo
// journal).
func churnCompare(t *testing.T, label string, columns int, pool []task.Task, seed uint64, screen bool, workers int, tests ...core.Test) Stats {
	t.Helper()
	inc, err := NewController(columns, tests...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ref, err := NewController(columns, tests...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ref.DisableIncremental()

	ctx := core.WithScreen(context.Background(), screen)
	if workers > 1 {
		ctx = core.WithSweepWorkers(ctx, workers)
	}
	r := workload.Rand(seed)

	resident := make([]string, 0, len(pool))
	byName := make(map[string]task.Task, len(pool))
	isResident := make(map[string]bool, len(pool))
	for _, tk := range pool {
		byName[tk.Name] = tk
	}

	check := func(step string) {
		t.Helper()
		ri, rr := inc.Resident(), ref.Resident()
		if !reflect.DeepEqual(ri.Tasks, rr.Tasks) {
			t.Fatalf("%s %s: resident sets diverge:\nincremental: %v\nfrom-scratch: %v", label, step, ri.Tasks, rr.Tasks)
		}
	}

	for step := 0; step < 4*len(pool); step++ {
		admit := len(resident) == 0 || r.IntN(10) < 6
		if admit && len(resident) == len(pool) {
			admit = false
		}
		if admit {
			// Pick a random non-resident task (possibly one rejected
			// before).
			var candidates []string
			for _, tk := range pool {
				if !isResident[tk.Name] {
					candidates = append(candidates, tk.Name)
				}
			}
			name := candidates[r.IntN(len(candidates))]
			di := inc.Request(ctx, byName[name])
			dr := ref.Request(ctx, byName[name])
			churnDecisionsEqual(t, label+" admit "+name, di, dr)
			if di.Admitted {
				resident = append(resident, name)
				isResident[name] = true
			}
		} else {
			i := r.IntN(len(resident))
			name := resident[i]
			oki := inc.Release(name)
			okr := ref.Release(name)
			if oki != okr || !oki {
				t.Fatalf("%s release %s: %v vs %v", label, name, oki, okr)
			}
			resident[i] = resident[len(resident)-1]
			resident = resident[:len(resident)-1]
			isResident[name] = false
		}
		check("churn")
	}

	// LIFO phase: each remaining non-resident task is admitted and — if
	// accepted — immediately released, which must pop the GN2 undo
	// journal and keep the incremental state warm (its next decision
	// still has to match from scratch).
	for _, tk := range pool {
		if isResident[tk.Name] {
			continue
		}
		di := inc.Request(ctx, tk)
		dr := ref.Request(ctx, tk)
		churnDecisionsEqual(t, label+" lifo-admit "+tk.Name, di, dr)
		if di.Admitted {
			if !inc.Release(tk.Name) || !ref.Release(tk.Name) {
				t.Fatalf("%s: lifo release %s failed", label, tk.Name)
			}
		}
		check("lifo")
	}

	st := inc.Stats()
	if st.Requests != st.Admitted+st.Rejected+st.Aborted {
		t.Fatalf("%s: stats don't balance: %+v", label, st)
	}
	if rs := ref.Stats(); rs.IncrementalHits != 0 {
		t.Fatalf("%s: reference controller served incremental hits: %+v", label, rs)
	}
	return st
}

// gn2PinnedHits and gn2PinnedFullRuns are the GN2-only churn runs'
// routing totals over the generated corpus.
const (
	gn2PinnedHits     = 1411
	gn2PinnedFullRuns = 8312
)

func TestChurnDifferentialGenerated(t *testing.T) {
	profiles := []func(int) workload.Profile{
		workload.Unconstrained,
		workload.SpatiallyHeavyTemporallyLight,
		workload.SpatiallyLightTemporallyHeavy,
	}
	sizes := []int{2, 5, 8}
	for _, screen := range []bool{true, false} {
		name := "screen-on"
		if !screen {
			name = "screen-off"
		}
		t.Run(name, func(t *testing.T) {
			sets := 0
			var agg, gn2 Stats
			for pi, pf := range profiles {
				for seed := uint64(1); seed <= 120; seed++ {
					for si, n := range sizes {
						r := workload.Rand(seed + uint64(pi)*1000 + uint64(si)*100000)
						p := pf(n)
						s := p.Generate(r)
						label := p.Name
						st := churnCompare(t, label, workload.FigureDeviceColumns, s.Tasks, seed*7+uint64(si),
							screen, 1, core.DPTest{}, core.GN1Test{}, core.GN2Test{})
						agg.IncrementalHits += st.IncrementalHits
						agg.FullRuns += st.FullRuns
						// GN2 alone on the largest sets: every request
						// reaches the sweep state, no earlier test
						// masks it.
						if n == 8 {
							st = churnCompare(t, label+"/gn2-only", workload.FigureDeviceColumns, s.Tasks, seed*11+3,
								screen, 1, core.GN2Test{})
							agg.IncrementalHits += st.IncrementalHits
							agg.FullRuns += st.FullRuns
							gn2.IncrementalHits += st.IncrementalHits
							gn2.FullRuns += st.FullRuns
						}
						sets++
					}
				}
			}
			if sets < 1000 {
				t.Fatalf("churn corpus covered %d sets, want >= 1000", sets)
			}
			if agg.IncrementalHits == 0 {
				t.Fatal("the incremental path never served a single analysis over the whole corpus")
			}
			// DP's admit state always certifies, so the aggregate above
			// would pass even if GN2's never did. The GN2-only runs pin
			// its routing exactly: how many requests its admit state
			// served and how many fell back to a full run. The counts do
			// not depend on the screen, which never changes which
			// candidates a scan visits.
			if gn2.IncrementalHits != gn2PinnedHits || gn2.FullRuns != gn2PinnedFullRuns {
				t.Fatalf("GN2-only routing moved: %d incremental hits / %d full runs, want %d / %d",
					gn2.IncrementalHits, gn2.FullRuns, gn2PinnedHits, gn2PinnedFullRuns)
			}
			t.Logf("incremental ≡ from-scratch over churn on %d generated tasksets (%d incremental hits, %d full runs)",
				sets, agg.IncrementalHits, agg.FullRuns)
		})
	}
}

// TestChurnParallelSweepWorkers runs the deterministic churn comparison
// with the kernels' parallel sweep workers enabled — under -race this
// exercises the incremental path's interaction with concurrent sweep
// scratch — for both screen settings.
func TestChurnParallelSweepWorkers(t *testing.T) {
	profiles := []func(int) workload.Profile{
		workload.Unconstrained,
		workload.SpatiallyLightTemporallyHeavy,
	}
	for _, screen := range []bool{true, false} {
		for pi, pf := range profiles {
			p := pf(8)
			for seed := uint64(1); seed <= 10; seed++ {
				r := workload.Rand(seed + uint64(pi)*77)
				s := p.Generate(r)
				churnCompare(t, p.Name+"/workers", workload.FigureDeviceColumns, s.Tasks, seed,
					screen, 4, core.DPTest{}, core.GN1Test{}, core.GN2Test{})
			}
		}
	}
}

// TestChurnGN2Variants covers the GN2 option flags that keep
// incremental state (strictness, Baker middle case) and the extended
// search, which must transparently fall back to full runs.
func TestChurnGN2Variants(t *testing.T) {
	variants := []core.GN2Test{
		{Options: core.GN2Options{CondTwoNonStrict: true}},
		{Options: core.GN2Options{CaseTwoBaker: true}},
		{Options: core.GN2Options{ExtendedLambdaSearch: true}},
	}
	p := workload.Unconstrained(8)
	for vi, g := range variants {
		for seed := uint64(1); seed <= 20; seed++ {
			r := workload.Rand(seed + uint64(vi)*555)
			s := p.Generate(r)
			churnCompare(t, g.Name()+"/variant", workload.FigureDeviceColumns, s.Tasks, seed, true, 1, g)
		}
	}
}

// TestIncrementalAfterReplayMatches rebuilds a controller the way WAL
// recovery does (ForceAdmit, no analysis) and verifies the incremental
// path recovers — first request falls back, acceptance re-warms —
// while matching from-scratch decisions throughout.
func TestIncrementalAfterReplayMatches(t *testing.T) {
	p := workload.SpatiallyLightTemporallyHeavy(8)
	for seed := uint64(1); seed <= 20; seed++ {
		s := p.Generate(workload.Rand(seed))
		inc, _ := NewController(workload.FigureDeviceColumns, core.GN2Test{})
		ref, _ := NewController(workload.FigureDeviceColumns, core.GN2Test{})
		ref.DisableIncremental()
		ctx := context.Background()

		// Find a provable prefix live, then replay it into both.
		probe, _ := NewController(workload.FigureDeviceColumns, core.GN2Test{})
		var proven []task.Task
		for _, tk := range s.Tasks[:4] {
			if probe.Request(ctx, tk).Admitted {
				proven = append(proven, tk)
			}
		}
		for _, tk := range proven {
			if err := inc.ForceAdmit(tk); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := ref.ForceAdmit(tk); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		for _, tk := range s.Tasks[4:] {
			di := inc.Request(ctx, tk)
			dr := ref.Request(ctx, tk)
			churnDecisionsEqual(t, "post-replay", di, dr)
		}
		if st := inc.Stats(); st.Requests > 0 && st.FullRuns == 0 {
			t.Fatalf("seed %d: expected at least one full-run fallback after replay, got %+v", seed, st)
		}
	}
}

// TestReleaseSwapDeleteInvariant is the satellite regression test for
// the O(1) release: over a long interleaved admit/release sequence the
// name index must never drift from the resident slice.
func TestReleaseSwapDeleteInvariant(t *testing.T) {
	c, err := NewController(1000, core.DPTest{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := workload.Rand(42)
	live := map[string]bool{}
	next := 0
	for step := 0; step < 2000; step++ {
		if len(live) == 0 || r.IntN(2) == 0 {
			tk := task.Task{Name: "", C: 1, D: 1000, T: 1000, A: 1}
			tk.Name = names(next)
			next++
			if d := c.Request(ctx, tk); !d.Admitted {
				t.Fatalf("step %d: tiny task rejected: %s", step, d.Reason)
			}
			live[tk.Name] = true
		} else {
			var name string
			n := r.IntN(len(live))
			for k := range live {
				if n == 0 {
					name = k
					break
				}
				n--
			}
			if !c.Release(name) {
				t.Fatalf("step %d: release %q failed", step, name)
			}
			delete(live, name)
		}
		// Invariant: the index agrees with the slice exactly.
		c.mu.Lock()
		if len(c.byName) != len(c.resident.Tasks) {
			c.mu.Unlock()
			t.Fatalf("step %d: index size %d vs slice %d", step, len(c.byName), len(c.resident.Tasks))
		}
		for i, tk := range c.resident.Tasks {
			if c.byName[tk.Name] != i {
				c.mu.Unlock()
				t.Fatalf("step %d: index drift: %q at slot %d indexed %d", step, tk.Name, i, c.byName[tk.Name])
			}
		}
		c.mu.Unlock()
		if len(live) != c.Len() {
			t.Fatalf("step %d: live %d vs resident %d", step, len(live), c.Len())
		}
	}
}

func names(i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	out := []byte{letters[i%26]}
	for i /= 26; i > 0; i /= 26 {
		out = append(out, letters[i%26])
	}
	return string(out)
}

// TestRemoveReinsertInverse checks that Reinsert is the exact inverse
// of the swap-delete Remove at every position.
func TestRemoveReinsertInverse(t *testing.T) {
	c, err := NewController(1000, core.DPTest{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		tk := task.Task{Name: names(i), C: 1, D: 1000, T: 1000, A: 1}
		if d := c.Request(ctx, tk); !d.Admitted {
			t.Fatalf("admit %d: %s", i, d.Reason)
		}
	}
	before := c.Resident()
	for i := 0; i < 6; i++ {
		name := names(i)
		tk, idx, ok := c.Remove(name)
		if !ok {
			t.Fatalf("remove %q", name)
		}
		if err := c.Reinsert(tk, idx); err != nil {
			t.Fatalf("reinsert %q: %v", name, err)
		}
		after := c.Resident()
		if !reflect.DeepEqual(before.Tasks, after.Tasks) {
			t.Fatalf("remove+reinsert %q not an identity:\nbefore: %v\nafter:  %v", name, before.Tasks, after.Tasks)
		}
	}
}
