package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpgasched/internal/core"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

// shuffled returns a copy of s in a random task order.
func shuffled(s *task.Set, r *rand.Rand) *task.Set {
	out := s.Clone()
	r.Shuffle(len(out.Tasks), func(i, j int) { out.Tasks[i], out.Tasks[j] = out.Tasks[j], out.Tasks[i] })
	return out
}

// coldSet draws a 30-task set like the served analyze-cold workload:
// alternately Unconstrained and Heterogeneous, rescaled to a total
// system utilization in [10, 60].
func coldSet(i int) *task.Set {
	r := workload.Rand(uint64(i) + 7)
	prof := workload.Unconstrained(30)
	if i%2 == 1 {
		prof = workload.Heterogeneous(30)
	}
	s, _ := prof.GenerateWithTargetUS(r, 10+r.Float64()*50)
	return s
}

func certJSON(t *testing.T, v core.Verdict) []byte {
	t.Helper()
	b, err := json.Marshal(v.Certificate())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecisionFailingTaskMatchesFullPath: a non-explain miss runs
// core.Decide, and the failing task it reports in the caller's order —
// derived from every Satisfied bit of the canonical verdict — must be
// the one the full analysis reports, under random permutations.
func TestDecisionFailingTaskMatchesFullPath(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tests := []core.Test{core.ForNF(), core.ForFkF(), core.GN2Test{}, core.GN1Test{}}
	rejected := 0
	for i := 0; i < 24; i++ {
		base := coldSet(i)
		for _, test := range tests {
			decide := New(Config{Workers: 1, CacheSize: 16})
			full := New(Config{Workers: 1, CacheSize: 16})
			for p := 0; p < 3; p++ {
				set := shuffled(base, r)
				got, err := decide.Analyze(context.Background(), Request{Columns: workload.FigureDeviceColumns, Set: set, Test: test, OmitChecks: true})
				if err != nil {
					t.Fatal(err)
				}
				want, err := full.Analyze(context.Background(), Request{Columns: workload.FigureDeviceColumns, Set: set, Test: test})
				if err != nil {
					t.Fatal(err)
				}
				if got.FailingTask != want.FailingTask || got.Schedulable != want.Schedulable ||
					got.AcceptedBy != want.AcceptedBy || got.Reason != want.Reason {
					t.Fatalf("set %d %s perm %d: decision %+v, full %+v", i, test.Name(), p, got, want)
				}
				if !got.Schedulable {
					rejected++
				}
			}
			if st := decide.Stats(); st.Analyses != 1 || st.Upgrades != 0 {
				t.Fatalf("decision engine: analyses=%d upgrades=%d, want 1 and 0", st.Analyses, st.Upgrades)
			}
			decide.Close()
			full.Close()
		}
	}
	if rejected == 0 {
		t.Fatal("corpus has no rejected sets; failing-task attribution untested")
	}
}

// TestExplainAfterDecisionUpgrades: an explain request on a key first
// analysed without explain pays one full analysis (an upgrade) and
// gets a certificate byte-identical to a cold explain of its own
// permutation; later explain requests are cache hits.
func TestExplainAfterDecisionUpgrades(t *testing.T) {
	nf := core.ForNF()
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		base := coldSet(i)
		e := New(Config{Workers: 2, CacheSize: 16})
		if _, err := e.Analyze(context.Background(), Request{Columns: workload.FigureDeviceColumns, Set: base, Test: nf, OmitChecks: true}); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 3; p++ {
			set := shuffled(base, r)
			got, err := e.Analyze(context.Background(), Request{Columns: workload.FigureDeviceColumns, Set: set, Test: nf})
			if err != nil {
				t.Fatal(err)
			}
			cold := New(Config{Workers: 1, CacheSize: -1})
			want, err := cold.Analyze(context.Background(), Request{Columns: workload.FigureDeviceColumns, Set: set, Test: nf})
			cold.Close()
			if err != nil {
				t.Fatal(err)
			}
			if g, w := certJSON(t, got), certJSON(t, want); !bytes.Equal(g, w) {
				t.Fatalf("set %d perm %d: upgraded certificate differs from a cold explain\n got %s\nwant %s", i, p, g, w)
			}
		}
		if st := e.Stats(); st.Analyses != 2 || st.Upgrades != 1 || st.Misses != 2 || st.Hits != 2 {
			t.Fatalf("set %d: analyses=%d upgrades=%d misses=%d hits=%d, want 2, 1, 2, 2",
				i, st.Analyses, st.Upgrades, st.Misses, st.Hits)
		}
		e.Close()
	}
}

// TestConcurrentExplainAndDecisionRunTwoAnalyses: while a decision is
// in flight, explain requests on the same key cannot use it and share
// one full analysis; later non-explain requests join the full one. So
// exactly two analyses run, and the certified result is what stays
// cached whichever finishes first.
func TestConcurrentExplainAndDecisionRunTwoAnalyses(t *testing.T) {
	b := newBlockingTest("blocking")
	e := New(Config{Workers: 4, CacheSize: 16})
	defer e.Close()
	set := table3()
	req := func(explain bool) Request {
		return Request{Columns: 10, Set: set, Test: b, OmitChecks: !explain}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	run := func(explain bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.Analyze(context.Background(), req(explain))
			errs <- err
		}()
	}
	run(false)
	waitStarted(t, b) // the decision owns its flight
	for i := 0; i < 4; i++ {
		run(true)
	}
	waitStarted(t, b) // one full flight serves every explain request
	for i := 0; i < 4; i++ {
		run(false)
	}
	waitInflight(t, e, 2)
	time.Sleep(10 * time.Millisecond) // let the late requests reach their waits
	close(b.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Analyses != 2 || st.Misses != 2 || st.Hits != 7 {
		t.Fatalf("analyses=%d misses=%d hits=%d, want 2, 2, 7", st.Analyses, st.Misses, st.Hits)
	}
	if _, err := e.Analyze(context.Background(), req(true)); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Analyses != 2 || st.Upgrades != 0 {
		t.Fatalf("after the race: analyses=%d upgrades=%d, want 2 and 0 (the certified entry must stay cached)", st.Analyses, st.Upgrades)
	}
}

// waitInflight waits until n distinct flights are registered.
func waitInflight(t *testing.T, e *Engine, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().InFlight != n {
		if time.Now().After(deadline) {
			t.Fatalf("in_flight = %d, want %d", e.Stats().InFlight, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedTest analyses table-3-like sets instantly, except while gate is
// set: then an analysis announces itself and runs until its context is
// cancelled, returning an aborted verdict as a real sweep would.
type gatedTest struct {
	gate    atomic.Bool
	started chan struct{}
}

func (g *gatedTest) Name() string { return "gated" }

func (g *gatedTest) Analyze(ctx context.Context, dev core.Device, s *task.Set) core.Verdict {
	if g.gate.Load() {
		g.started <- struct{}{}
		<-ctx.Done()
		return core.Verdict{Test: "gated", FailingTask: -1, Err: ctx.Err()}
	}
	return core.GN2Test{}.Analyze(ctx, dev, s)
}

// TestCancelledUpgradeKeepsDecision: an upgrade whose request is
// cancelled mid-analysis caches nothing, leaves the decision-only entry
// serving non-explain requests, and the next explain request upgrades
// it.
func TestCancelledUpgradeKeepsDecision(t *testing.T) {
	g := &gatedTest{started: make(chan struct{}, 1)}
	e := New(Config{Workers: 2, CacheSize: 16})
	defer e.Close()
	set := table3()
	decided, err := e.Analyze(context.Background(), Request{Columns: 10, Set: set, Test: g, OmitChecks: true})
	if err != nil {
		t.Fatal(err)
	}

	g.gate.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Analyze(ctx, Request{Columns: 10, Set: set, Test: g})
		done <- err
	}()
	<-g.started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled upgrade returned %v, want context.Canceled", err)
	}
	g.gate.Store(false)

	again, err := e.Analyze(context.Background(), Request{Columns: 10, Set: set, Test: g, OmitChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	if again.Schedulable != decided.Schedulable || again.FailingTask != decided.FailingTask {
		t.Fatalf("decision changed after a cancelled upgrade: %+v vs %+v", again, decided)
	}
	if st := e.Stats(); st.Analyses != 1 || st.Upgrades != 0 || st.CacheLen != 1 {
		t.Fatalf("after cancelled upgrade: analyses=%d upgrades=%d cache_len=%d, want 1, 0, 1", st.Analyses, st.Upgrades, st.CacheLen)
	}
	full, err := e.Analyze(context.Background(), Request{Columns: 10, Set: set, Test: g})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Checks) == 0 || full.Checks[0].LHS == nil {
		t.Fatalf("upgrade after a cancelled one carries no evidence: %+v", full)
	}
	if st := e.Stats(); st.Analyses != 2 || st.Upgrades != 1 {
		t.Fatalf("analyses=%d upgrades=%d, want 2 and 1", st.Analyses, st.Upgrades)
	}
}

// TestPeekCanonicalUpgradesDecision: a peer lookup (PeekCanonical with
// evidence) on a decision-only entry certifies it with one analysis of
// the stored set; without evidence it serves the decision as is; and
// an uncached key is still a miss that analyses nothing.
func TestPeekCanonicalUpgradesDecision(t *testing.T) {
	nf := core.ForNF()
	e := New(Config{Workers: 2, CacheSize: 16})
	defer e.Close()
	set := coldSet(3)
	perm := set.CanonicalPerm()
	fp := set.FingerprintFromPerm(perm)
	cols := workload.FigureDeviceColumns
	ctx := context.Background()

	if _, ok := e.PeekCanonical(ctx, nf.Name(), cols, fp, true); ok {
		t.Fatal("lookup of an uncached key hit")
	}
	if _, err := e.Analyze(ctx, Request{Columns: cols, Set: set, Test: nf, OmitChecks: true}); err != nil {
		t.Fatal(err)
	}
	dec, ok := e.PeekCanonical(ctx, nf.Name(), cols, fp, false)
	if !ok || len(dec.Checks) == 0 || dec.Checks[0].RHS != nil {
		t.Fatalf("decision-only peek = %+v, %v; want the decision without evidence", dec, ok)
	}
	if st := e.Stats(); st.Analyses != 1 {
		t.Fatalf("analyses = %d after a peek without evidence, want 1", st.Analyses)
	}
	got, ok := e.PeekCanonical(ctx, nf.Name(), cols, fp, true)
	if !ok {
		t.Fatal("lookup with evidence missed a cached decision")
	}
	want := nf.Analyze(ctx, core.NewDevice(cols), set.CanonicalFromPerm(perm))
	if g, w := certJSON(t, got), certJSON(t, want); !bytes.Equal(g, w) {
		t.Fatalf("upgraded lookup differs from the full analysis\n got %s\nwant %s", g, w)
	}
	if st := e.Stats(); st.Analyses != 2 || st.Upgrades != 1 {
		t.Fatalf("analyses=%d upgrades=%d, want 2 and 1", st.Analyses, st.Upgrades)
	}
	if _, err := e.Analyze(ctx, Request{Columns: cols, Set: set, Test: nf}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Analyses != 2 {
		t.Fatalf("explain after an upgraded lookup ran an analysis (analyses = %d)", st.Analyses)
	}
}
