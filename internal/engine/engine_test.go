package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fpgasched/internal/core"
	"fpgasched/internal/task"
	"fpgasched/internal/timeunit"
	"fpgasched/internal/workload"
)

func table3() *task.Set { return workload.Table3() }

// permute returns a copy of s with tasks in a rotated order.
func permute(s *task.Set, by int) *task.Set {
	out := s.Clone()
	n := len(out.Tasks)
	rot := make([]task.Task, 0, n)
	for i := 0; i < n; i++ {
		rot = append(rot, out.Tasks[(i+by)%n])
	}
	out.Tasks = rot
	return out
}

func TestCacheHitOnPermutedEqualSets(t *testing.T) {
	e := New(Config{Workers: 2, CacheSize: 16})
	defer e.Close()
	s := table3()
	v1, err := e.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: core.GN2Test{}})
	if err != nil {
		t.Fatal(err)
	}
	for by := 1; by < s.Len(); by++ {
		v2, err := e.Analyze(context.Background(), Request{Columns: 10, Set: permute(s, by), Test: core.GN2Test{}})
		if err != nil {
			t.Fatal(err)
		}
		if v2.Schedulable != v1.Schedulable {
			t.Fatalf("permutation %d changed the verdict", by)
		}
	}
	st := e.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (only the first request analyses)", st.Misses)
	}
	if st.Hits != uint64(s.Len()-1) {
		t.Errorf("hits = %d, want %d", st.Hits, s.Len()-1)
	}
	if st.Analyses != 1 {
		t.Errorf("analyses = %d, want 1", st.Analyses)
	}
}

// TestPerTestCounters pins the per-test-name slice of the cache
// counters: each test accumulates its own hits/misses/analyses, their
// sums match the aggregates, and the returned map is a snapshot the
// caller can hold without racing the engine.
func TestPerTestCounters(t *testing.T) {
	e := New(Config{Workers: 2, CacheSize: 16})
	defer e.Close()
	s := table3()
	for i := 0; i < 3; i++ {
		if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: core.GN2Test{}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: core.DPTest{}}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	got := st.Tests["GN2"]
	if got.Hits != 2 || got.Misses != 1 || got.Analyses != 1 {
		t.Errorf("GN2 counters = %+v, want 2 hits, 1 miss, 1 analysis", got)
	}
	if got.ScreenDecided+got.ScreenEscalated == 0 {
		t.Errorf("GN2 analysis recorded no interval-screen activity: %+v", got)
	}
	gotDP := st.Tests["DP"]
	if gotDP.Hits != 0 || gotDP.Misses != 1 || gotDP.Analyses != 1 {
		t.Errorf("DP counters = %+v, want 1 miss, 1 analysis", gotDP)
	}
	// DP's screen classifies exactly one bound per task per analysis.
	if sum := gotDP.ScreenDecided + gotDP.ScreenEscalated; sum != uint64(s.Len()) {
		t.Errorf("DP screen counters = %+v, want decided+escalated = one bound per task = %d", gotDP, s.Len())
	}
	var hits, misses, analyses, dec, esc uint64
	for _, ts := range st.Tests {
		hits += ts.Hits
		misses += ts.Misses
		analyses += ts.Analyses
		dec += ts.ScreenDecided
		esc += ts.ScreenEscalated
	}
	if hits != st.Hits || misses != st.Misses || analyses != st.Analyses {
		t.Errorf("per-test sums (%d/%d/%d) != aggregates (%d/%d/%d)",
			hits, misses, analyses, st.Hits, st.Misses, st.Analyses)
	}
	if dec != st.ScreenDecided || esc != st.ScreenEscalated {
		t.Errorf("per-test screen sums (%d/%d) != aggregates (%d/%d)",
			dec, esc, st.ScreenDecided, st.ScreenEscalated)
	}
	// The map is a snapshot: mutating it must not reach the engine.
	st.Tests["GN2"] = TestStats{}
	if again := e.Stats().Tests["GN2"]; again.Hits != 2 {
		t.Error("Stats().Tests aliases the engine's live counters")
	}
}

// TestScreenCounterHarvest pins the engine half of the interval-screen
// contract: counters accumulate only when an analysis actually runs
// (cache hits add nothing) and they are attributed to the analysed
// test's name.
func TestScreenCounterHarvest(t *testing.T) {
	s := table3()
	on := New(Config{Workers: 2, CacheSize: 16})
	defer on.Close()
	if _, err := on.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: core.GN2Test{}}); err != nil {
		t.Fatal(err)
	}
	st := on.Stats()
	if st.ScreenDecided+st.ScreenEscalated == 0 || st.ScreenEvals == 0 {
		t.Fatalf("no screen counters harvested: %+v", st)
	}
	if st.ScreenRangePruned > st.ScreenDecided {
		t.Errorf("range-pruned %d exceeds decided %d", st.ScreenRangePruned, st.ScreenDecided)
	}
	screen := func(s Stats) [4]uint64 {
		return [4]uint64{s.ScreenDecided, s.ScreenEscalated, s.ScreenRangePruned, s.ScreenEvals}
	}
	// A cache hit runs no kernel: the counters must not move.
	if _, err := on.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: core.GN2Test{}}); err != nil {
		t.Fatal(err)
	}
	st2 := on.Stats()
	if screen(st2) != screen(st) {
		t.Errorf("cache hit moved screen counters: %+v -> %+v", st, st2)
	}
	g := st.Tests["GN2"]
	if [4]uint64{g.ScreenDecided, g.ScreenEscalated, g.ScreenRangePruned, g.ScreenEvals} != screen(st) {
		t.Errorf("GN2 screen counters %+v not attributed to GN2 (aggregates %+v)", g, st)
	}
}

func TestCacheMissOnDifferentDeviceWidth(t *testing.T) {
	e := New(Config{Workers: 2, CacheSize: 16})
	defer e.Close()
	s := table3()
	if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: core.GN2Test{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Analyze(context.Background(), Request{Columns: 11, Set: s, Test: core.GN2Test{}}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses 0 hits (width is part of the key)", st)
	}
}

func TestCacheMissOnDifferentTest(t *testing.T) {
	e := New(Config{Workers: 2, CacheSize: 16})
	defer e.Close()
	s := table3()
	for _, test := range []core.Test{core.DPTest{}, core.GN1Test{}, core.GN2Test{}} {
		if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: test}); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Misses != 3 {
		t.Errorf("misses = %d, want 3 (test name is part of the key)", st.Misses)
	}
}

func TestVerdictsMatchDirectAnalysis(t *testing.T) {
	e := New(Config{Workers: 4, CacheSize: 64})
	defer e.Close()
	dev := core.NewDevice(10)
	for _, s := range []*task.Set{workload.Table1(), workload.Table2(), workload.Table3()} {
		for _, test := range []core.Test{core.DPTest{}, core.GN1Test{}, core.GN2Test{}} {
			want := test.Analyze(context.Background(), dev, s)
			got, err := e.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: test})
			if err != nil {
				t.Fatal(err)
			}
			if got.Schedulable != want.Schedulable {
				t.Errorf("%s: engine verdict %+v, direct %+v", test.Name(), got, want)
			}
			// The engine analyses in canonical order and remaps the
			// failing index back to the caller's order; the task it
			// names must be one the direct analysis also rejects.
			if !want.Schedulable && got.FailingTask >= 0 {
				direct := map[int]bool{}
				for _, chk := range want.Checks {
					if !chk.Satisfied {
						direct[chk.TaskIndex] = true
					}
				}
				if len(direct) > 0 && !direct[got.FailingTask] {
					t.Errorf("%s: remapped failing task %d is not failing in direct analysis (%v)",
						test.Name(), got.FailingTask, direct)
				}
			}
		}
	}
}

func TestAnalyzeAllEqualsSequential(t *testing.T) {
	// Batch over distinct random sets with caching off: results must be
	// identical (position by position) to sequential Analyze calls.
	e := New(Config{Workers: 4, CacheSize: -1})
	defer e.Close()
	r := workload.Rand(42)
	prof := workload.Unconstrained(6)
	var reqs []Request
	for i := 0; i < 24; i++ {
		s := prof.Generate(r)
		test := []core.Test{core.DPTest{}, core.GN1Test{}, core.GN2Test{}}[i%3]
		reqs = append(reqs, Request{Columns: 100, Set: s, Test: test})
	}
	batch, err := e.AnalyzeAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		want := r.Test.Analyze(context.Background(), core.NewDevice(r.Columns), r.Set)
		if batch[i].Schedulable != want.Schedulable || batch[i].Test != want.Test {
			t.Errorf("request %d: batch %v, sequential %v", i, batch[i], want)
		}
	}
}

func TestCachedVerdictIndicesFollowCallerOrder(t *testing.T) {
	// Regression: the cache is keyed order-independently, so the verdict
	// served to a permuted requester must have FailingTask and
	// Checks[].TaskIndex remapped to *that* requester's ordering, not
	// the ordering that first populated the cache.
	e := New(Config{Workers: 1, CacheSize: 16})
	defer e.Close()
	// Under DP (RHS = Abnd·(1−UT) + US(τk)) the heavy wide task meets
	// its own bound (8.3 ≥ US=8.15) while the light narrow task's bound
	// fails (1.95 < 8.15) — so "light" is the failing task, at whichever
	// position the caller put it.
	light := task.New("light", "0.5", "10", "10", 1)
	heavy := task.New("heavy", "9.0", "10", "10", 9)
	for _, order := range [][]task.Task{{heavy, light}, {light, heavy}} {
		s := task.NewSet(order...)
		v, err := e.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: core.DPTest{}})
		if err != nil {
			t.Fatal(err)
		}
		if v.Schedulable {
			t.Fatal("set must be rejected")
		}
		wantIdx := 0
		if order[0].Name == "heavy" {
			wantIdx = 1
		}
		if v.FailingTask != wantIdx {
			t.Errorf("order %q first: failing_task = %d, want %d (light's index)", order[0].Name, v.FailingTask, wantIdx)
		}
		for j, chk := range v.Checks {
			if chk.TaskIndex != j {
				t.Errorf("order %q first: checks[%d].TaskIndex = %d, want %d", order[0].Name, j, chk.TaskIndex, j)
			}
		}
		if v.Checks[wantIdx].Satisfied || !v.Checks[1-wantIdx].Satisfied {
			t.Errorf("order %q first: check satisfaction not remapped (light=%v heavy=%v)",
				order[0].Name, v.Checks[wantIdx].Satisfied, v.Checks[1-wantIdx].Satisfied)
		}
	}
	if st := e.Stats(); st.Analyses != 1 {
		t.Errorf("analyses = %d, want 1 (both orders share the cache entry)", st.Analyses)
	}
}

func TestAnalyzeAllBoundsGoroutines(t *testing.T) {
	// A huge batch must not spawn a goroutine per element: the fan-out
	// is capped at the pool size. Sample the goroutine count while a
	// 2000-element batch drains through a 2-worker pool.
	e := New(Config{Workers: 2, CacheSize: -1})
	defer e.Close()
	s := table3()
	reqs := make([]Request, 2000)
	for i := range reqs {
		reqs[i] = Request{Columns: 10 + i%5, Set: s, Test: core.DPTest{}}
	}
	before := runtime.NumGoroutine()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := e.AnalyzeAll(context.Background(), reqs); err != nil {
			t.Error(err)
		}
	}()
	peak := 0
	for sampling := true; sampling; {
		select {
		case <-done:
			sampling = false
		default:
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Pre-fix this peaked near before+2000; the bound is workers plus
	// a small constant for runtime/test goroutines.
	if peak > before+50 {
		t.Errorf("goroutine peak %d (baseline %d): batch fan-out is not bounded", peak, before)
	}
}

func TestCachingDisabled(t *testing.T) {
	e := New(Config{Workers: 2, CacheSize: -1})
	defer e.Close()
	s := table3()
	for i := 0; i < 3; i++ {
		if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: core.DPTest{}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Analyses != 3 || st.Hits != 0 || st.CacheCap != 0 {
		t.Errorf("stats = %+v, want 3 analyses and no cache", st)
	}
}

func TestLRUEviction(t *testing.T) {
	e := New(Config{Workers: 1, CacheSize: 2})
	defer e.Close()
	s := table3()
	for cols := 10; cols < 14; cols++ { // 4 distinct keys through a 2-entry cache
		if _, err := e.Analyze(context.Background(), Request{Columns: cols, Set: s, Test: core.DPTest{}}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if st.CacheLen != 2 {
		t.Errorf("cache len = %d, want 2", st.CacheLen)
	}
	// Oldest entry (10) evicted: analysing it again is a miss; the
	// newest (13) is still a hit.
	if _, err := e.Analyze(context.Background(), Request{Columns: 13, Set: s, Test: core.DPTest{}}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Hits; got != st.Hits+1 {
		t.Errorf("hits = %d, want %d (13 must still be cached)", got, st.Hits+1)
	}
	if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: core.DPTest{}}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Misses; got != st.Misses+1 {
		t.Errorf("misses = %d, want %d (10 must have been evicted)", got, st.Misses+1)
	}
}

func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	e := New(Config{Workers: 4, CacheSize: 64})
	defer e.Close()
	s := table3()
	const goroutines = 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(by int) {
			defer wg.Done()
			set := permute(s, by%s.Len())
			if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: set, Test: core.GN2Test{}}); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	st := e.Stats()
	if st.Analyses != 1 {
		t.Errorf("analyses = %d, want 1 (all identical requests must coalesce)", st.Analyses)
	}
	if st.Hits+st.Misses != goroutines {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, goroutines)
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	// -race soak: random permutations of a few sets across widths.
	e := New(Config{Workers: 4, CacheSize: 8})
	defer e.Close()
	sets := []*task.Set{workload.Table1(), workload.Table2(), workload.Table3()}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				s := sets[r.Intn(len(sets))]
				req := Request{
					Columns: 10 + r.Intn(3),
					Set:     permute(s, r.Intn(s.Len())),
					Test:    []core.Test{core.DPTest{}, core.GN1Test{}, core.GN2Test{}}[r.Intn(3)],
				}
				if _, err := e.Analyze(context.Background(), req); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	st := e.Stats()
	if st.Hits+st.Misses != 400 {
		t.Errorf("hits+misses = %d, want 400", st.Hits+st.Misses)
	}
}

func TestCacheMissOnDifferentTestVariant(t *testing.T) {
	// GN2 option variants must carry distinct names, or the cache would
	// serve one variant's verdict for another (GN2x accepts a strict
	// superset of GN2, so sharing entries would be unsound).
	e := New(Config{Workers: 1, CacheSize: 16})
	defer e.Close()
	s := table3()
	gn2 := core.GN2Test{}
	gn2x := core.GN2Test{Options: core.GN2Options{ExtendedLambdaSearch: true}}
	if gn2.Name() == gn2x.Name() {
		t.Fatalf("GN2 variants share the name %q", gn2.Name())
	}
	if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: gn2}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: gn2x}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Analyses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 analyses 0 hits (variants must not share entries)", st)
	}
}

// panicTest always panics from Analyze, standing in for a buggy custom
// Test embedded through the facade.
type panicTest struct{}

func (panicTest) Name() string { return "panic" }
func (panicTest) Analyze(context.Context, core.Device, *task.Set) core.Verdict {
	panic("boom")
}

func TestPanickingTestDoesNotLeakSlotsOrWaiters(t *testing.T) {
	e := New(Config{Workers: 1, CacheSize: 16})
	defer e.Close()
	s := table3()
	// Concurrent identical requests: one runs and panics, coalesced
	// waiters must get the error, not hang.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: panicTest{}})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("request %d: err = %v, want panic error", i, err)
		}
	}
	// The single worker slot must have been released: a normal analysis
	// still completes (a leaked slot would deadlock here).
	v, err := e.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: core.GN2Test{}})
	if err != nil || !v.Schedulable {
		t.Fatalf("engine unusable after panic: v=%v err=%v", v, err)
	}
	// Nothing cached for the panicking key: retrying re-runs (and
	// re-fails) rather than serving a zero verdict.
	if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: panicTest{}}); err == nil {
		t.Error("retry after panic must fail again, not hit a cache entry")
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	e := New(Config{Workers: 1, CacheSize: 4})
	e.Close()
	e.Close() // idempotent
	if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: table3(), Test: core.DPTest{}}); err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestNilInputs(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: table3()}); err == nil {
		t.Error("nil test must error")
	}
	if _, err := e.Analyze(context.Background(), Request{Columns: 10, Test: core.DPTest{}}); err == nil {
		t.Error("nil set must error")
	}
}

// BenchmarkAnalyzeCold measures the uncached GN2 analysis of the paper's
// Table 3 set; BenchmarkAnalyzeWarm the memoized path for permuted
// copies. Here the two benchmarks expose the ratio; the server package's
// TestWarmSpeedup asserts it, on a 60-task set: an engine hit at least
// 10x faster than a cold engine analysis, and every warm POST over HTTP
// a hit that runs no analysis.
func BenchmarkAnalyzeCold(b *testing.B) {
	e := New(Config{Workers: 1, CacheSize: -1})
	defer e.Close()
	s := table3()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: core.GN2Test{}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeWarm(b *testing.B) {
	e := New(Config{Workers: 1, CacheSize: 16})
	defer e.Close()
	s := table3()
	perms := make([]*task.Set, s.Len())
	for i := range perms {
		perms[i] = permute(s, i)
	}
	if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: s, Test: core.GN2Test{}}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: perms[i%len(perms)], Test: core.GN2Test{}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeAllBatch(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := New(Config{Workers: workers, CacheSize: -1})
			defer e.Close()
			r := workload.Rand(7)
			prof := workload.Unconstrained(8)
			reqs := make([]Request, 32)
			for i := range reqs {
				reqs[i] = Request{Columns: 100, Set: prof.Generate(r), Test: core.GN2Test{}}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.AnalyzeAll(context.Background(), reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// blockingTest parks inside Analyze until released, so tests can hold
// the worker pool at a precise point. Analysis starts are announced on
// started (buffered sends, never blocking).
type blockingTest struct {
	name    string
	started chan struct{}
	release chan struct{}
}

func newBlockingTest(name string) *blockingTest {
	return &blockingTest{name: name, started: make(chan struct{}, 16), release: make(chan struct{})}
}

func (b *blockingTest) Name() string { return b.name }

func (b *blockingTest) Analyze(context.Context, core.Device, *task.Set) core.Verdict {
	select {
	case b.started <- struct{}{}:
	default:
	}
	<-b.release
	return core.Verdict{Test: b.name, Schedulable: true, FailingTask: -1}
}

// waitStarted fails the test if no analysis starts within the deadline.
func waitStarted(t *testing.T, b *blockingTest) {
	t.Helper()
	select {
	case <-b.started:
	case <-time.After(5 * time.Second):
		t.Fatal("analysis never started")
	}
}

func TestAnalyzeCancelledWhileQueuedReleasesNothing(t *testing.T) {
	e := New(Config{Workers: 1, CacheSize: 16})
	defer e.Close()
	blocker := newBlockingTest("blocker")
	hold := make(chan struct{})
	go func() {
		defer close(hold)
		if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: table3(), Test: blocker}); err != nil {
			t.Error(err)
		}
	}()
	waitStarted(t, blocker)

	// A second request now queues on the single pool slot; cancelling it
	// must return promptly even though the slot never frees.
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := e.Analyze(ctx, Request{Columns: 10, Set: table3(), Test: core.DPTest{}})
		queued <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it reach the pool wait
	cancel()
	select {
	case err := <-queued:
		if err != context.Canceled {
			t.Errorf("queued err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued request did not return")
	}

	// The abandoned request must leave no inflight entry and no slot
	// debt: after the blocker finishes, a fresh analysis of the same key
	// succeeds and runs exactly once.
	close(blocker.release)
	<-hold
	v, err := e.Analyze(context.Background(), Request{Columns: 10, Set: table3(), Test: core.DPTest{}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Test == "" {
		t.Error("empty verdict after recovery")
	}
	e.mu.Lock()
	inflight := len(e.inflight)
	e.mu.Unlock()
	if inflight != 0 {
		t.Errorf("inflight = %d, want 0", inflight)
	}
}

func TestAnalyzeCancelledWhileCoalescedWaiting(t *testing.T) {
	e := New(Config{Workers: 1, CacheSize: 16})
	defer e.Close()
	blocker := newBlockingTest("blocker")
	owner := make(chan error, 1)
	go func() {
		_, err := e.Analyze(context.Background(), Request{Columns: 10, Set: table3(), Test: blocker})
		owner <- err
	}()
	waitStarted(t, blocker)

	// Identical request coalesces onto the in-flight call; cancelling
	// the waiter must not disturb the owner.
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := e.Analyze(ctx, Request{Columns: 10, Set: table3(), Test: blocker})
		waiter <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-waiter:
		if err != context.Canceled {
			t.Errorf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
	close(blocker.release)
	if err := <-owner; err != nil {
		t.Errorf("owner err = %v (waiter cancellation must not leak into the owner)", err)
	}
	// The completed analysis is cached despite the waiter's departure.
	if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: table3(), Test: blocker}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Analyses != 1 {
		t.Errorf("analyses = %d, want 1 (cache must survive waiter cancellation)", st.Analyses)
	}
}

func TestAbandonedOwnerHandsOverToLiveWaiter(t *testing.T) {
	// The owner of a coalesced key is cancelled while queued for a slot;
	// a live waiter on the same key must take over and complete the
	// analysis rather than inheriting the owner's cancellation.
	e := New(Config{Workers: 1, CacheSize: 16})
	defer e.Close()
	blocker := newBlockingTest("blocker")
	hold := make(chan struct{})
	go func() {
		defer close(hold)
		if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: table3(), Test: blocker}); err != nil {
			t.Error(err)
		}
	}()
	waitStarted(t, blocker)

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, err := e.Analyze(ownerCtx, Request{Columns: 10, Set: table3(), Test: core.GN1Test{}})
		ownerErr <- err
	}()
	// Wait until the owner registered its inflight call, then attach a
	// waiter with a live context to the same key.
	for {
		e.mu.Lock()
		n := len(e.inflight)
		e.mu.Unlock()
		if n == 2 { // blocker + GN1 owner
			break
		}
		time.Sleep(time.Millisecond)
	}
	waiterErr := make(chan error, 1)
	var waiterVerdict core.Verdict
	go func() {
		v, err := e.Analyze(context.Background(), Request{Columns: 10, Set: table3(), Test: core.GN1Test{}})
		waiterVerdict = v
		waiterErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancelOwner()
	if err := <-ownerErr; err != context.Canceled {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	// Free the pool; the waiter (now owner) must complete normally.
	close(blocker.release)
	<-hold
	select {
	case err := <-waiterErr:
		if err != nil {
			t.Fatalf("waiter err = %v, want nil (must retry after abandoned owner)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung after owner abandonment")
	}
	if waiterVerdict.Test == "" {
		t.Error("waiter got a zero verdict")
	}
	if st := e.Stats(); st.Analyses != 2 {
		t.Errorf("analyses = %d, want 2 (blocker + handed-over GN1)", st.Analyses)
	}
}

func TestAnalyzeAllCancelledMidBatchAbandonsQueuedWork(t *testing.T) {
	// Acceptance check for cancellation semantics: cancelling an
	// AnalyzeAll mid-batch returns ctx.Err() promptly once running work
	// drains, abandons every queued element, leaks no pool slot, and
	// leaves the verdict cache consistent.
	e := New(Config{Workers: 1, CacheSize: 64})
	defer e.Close()
	blocker := newBlockingTest("blocker")
	reqs := make([]Request, 64)
	reqs[0] = Request{Columns: 10, Set: table3(), Test: blocker}
	for i := 1; i < len(reqs); i++ {
		reqs[i] = Request{Columns: 10 + i, Set: table3(), Test: core.DPTest{}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		verdicts []core.Verdict
		err      error
	}
	done := make(chan result, 1)
	go func() {
		vs, err := e.AnalyzeAll(ctx, reqs)
		done <- result{vs, err}
	}()
	waitStarted(t, blocker)
	cancel()
	close(blocker.release)
	var res result
	select {
	case res = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled AnalyzeAll did not return")
	}
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled joined in", res.err)
	}
	// Only the already-running analysis executed; the 63 queued ones
	// were abandoned without burning a worker on them.
	st := e.Stats()
	if st.Analyses != 1 {
		t.Errorf("analyses = %d, want 1 (queued work must be abandoned)", st.Analyses)
	}
	// The finished analysis is cached and correct.
	if res.verdicts[0].Test != "blocker" || !res.verdicts[0].Schedulable {
		t.Errorf("running verdict = %+v, want completed blocker verdict", res.verdicts[0])
	}
	if _, err := e.Analyze(context.Background(), reqs[0]); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats(); got.Analyses != 1 || got.Hits != st.Hits+1 {
		t.Errorf("stats after re-request = %+v, want a pure cache hit", got)
	}
	// No pool slot leaked: a full round of fresh analyses drains through
	// the single worker.
	for i := 1; i < 4; i++ {
		if _, err := e.Analyze(context.Background(), reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	inflight := len(e.inflight)
	e.mu.Unlock()
	if inflight != 0 {
		t.Errorf("inflight = %d, want 0", inflight)
	}
}

func TestAnalyzeNilAndPreCancelledContext(t *testing.T) {
	e := New(Config{Workers: 1, CacheSize: 4})
	defer e.Close()
	// nil context is tolerated (treated as Background) for embedders.
	if _, err := e.Analyze(nil, Request{Columns: 10, Set: table3(), Test: core.DPTest{}}); err != nil { //lint:ignore SA1012 deliberate nil-context tolerance test
		t.Fatalf("nil ctx: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Analyze(ctx, Request{Columns: 10, Set: table3(), Test: core.DPTest{}}); err != context.Canceled {
		t.Errorf("pre-cancelled err = %v, want context.Canceled", err)
	}
	if _, err := e.AnalyzeAll(ctx, []Request{{Columns: 10, Set: table3(), Test: core.DPTest{}}}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled AnalyzeAll err = %v, want context.Canceled", err)
	}
}

// TestCachedExplainCertificatesByteIdentical proves certificate
// memoization is transparent: analysing a permuted copy of a cached
// set (a guaranteed cache hit) must return a certificate that is
// byte-for-byte identical to what a cold engine computes for that
// permutation directly — the remapping of Checks, FailingTask and
// composite SubVerdicts back to the caller's task order loses nothing.
func TestCachedExplainCertificatesByteIdentical(t *testing.T) {
	mixed := task.NewSet(
		task.New("a", "2.10", "5", "5", 7),
		task.New("b", "2.00", "7", "7", 7),
		task.New("c", "1.00", "9", "9", 3),
		task.New("d", "0.50", "3", "3", 2),
	)
	test, err := core.TestByName("any-nf")
	if err != nil {
		t.Fatal(err)
	}
	warm := New(Config{Workers: 2, CacheSize: 16})
	defer warm.Close()
	if _, err := warm.Analyze(context.Background(), Request{Columns: 10, Set: mixed, Test: test}); err != nil {
		t.Fatal(err)
	}
	for by := 1; by < mixed.Len(); by++ {
		perm := permute(mixed, by)
		hit, err := warm.Analyze(context.Background(), Request{Columns: 10, Set: perm, Test: test})
		if err != nil {
			t.Fatal(err)
		}
		cold := New(Config{Workers: 1, CacheSize: -1})
		fresh, err := cold.Analyze(context.Background(), Request{Columns: 10, Set: perm, Test: test})
		cold.Close()
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(hit.Certificate())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(fresh.Certificate())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("permutation %d: cached certificate drifted from fresh analysis\n--- cached ---\n%s\n--- fresh ---\n%s", by, got, want)
		}
	}
	if st := warm.Stats(); st.Analyses != 1 {
		t.Errorf("analyses = %d, want 1 (every permuted request must hit the cache)", st.Analyses)
	}
}

// TestCancellationAbortsRunningGN2 proves cancellation reaches inside
// an executing analysis: a GN2x run over a large set aborts at the λ
// sweep's next poll instead of pinning the worker until the O(N³)
// search completes, the aborted verdict is not cached, and the pool
// slot is released for the next caller.
func TestCancellationAbortsRunningGN2(t *testing.T) {
	e := New(Config{Workers: 1, CacheSize: 16})
	defer e.Close()
	big := &task.Set{}
	for i := 0; i < 250; i++ {
		big.Tasks = append(big.Tasks, task.Task{
			C: timeunit.FromUnits(1 + int64(i%7)),
			D: timeunit.FromUnits(20 + int64(i%13)),
			T: timeunit.FromUnits(20 + int64(i%13)),
			A: 1 + i%3,
		})
	}
	gn2x := core.GN2Test{Options: core.GN2Options{ExtendedLambdaSearch: true}}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := e.Analyze(ctx, Request{Columns: 30, Set: big, Test: gn2x})
		done <- err
	}()
	// Let the analysis actually claim the slot and start sweeping.
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Misses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("analysis never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled GN2x analysis did not return within 10s")
	}
	aborted := time.Since(start)
	// The aborted verdict must not have been cached, and the slot must
	// be free: a small analysis completes immediately.
	if st := e.Stats(); st.CacheLen != 0 {
		t.Errorf("cache len = %d after aborted analysis, want 0", st.CacheLen)
	}
	if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: table3(), Test: core.DPTest{}}); err != nil {
		t.Fatalf("slot leaked: follow-up analysis failed: %v", err)
	}
	t.Logf("aborted after %v", aborted)
}

// sweepProbe records the sweep-worker budget the engine threads into
// the analysis context.
type sweepProbe struct {
	got int
}

func (p *sweepProbe) Name() string { return "sweep-probe" }

func (p *sweepProbe) Analyze(ctx context.Context, dev core.Device, s *task.Set) core.Verdict {
	p.got = core.SweepWorkers(ctx)
	return core.Verdict{Test: p.Name(), Schedulable: true, FailingTask: -1}
}

// TestSweepWorkersThreadedIntoAnalysis pins the Config.SweepWorkers
// plumbing: the value (resolved: 0 → serial, negative → GOMAXPROCS)
// must reach the test through the analysis context.
func TestSweepWorkersThreadedIntoAnalysis(t *testing.T) {
	cases := []struct {
		cfg  int
		want int
	}{
		{cfg: 0, want: 1},
		{cfg: 1, want: 1},
		{cfg: 4, want: 4},
		{cfg: -1, want: runtime.GOMAXPROCS(0)},
	}
	for _, tc := range cases {
		e := New(Config{Workers: 1, CacheSize: -1, SweepWorkers: tc.cfg})
		probe := &sweepProbe{}
		if _, err := e.Analyze(context.Background(), Request{Columns: 10, Set: table3(), Test: probe}); err != nil {
			t.Fatalf("cfg %d: %v", tc.cfg, err)
		}
		want := tc.want
		if want < 1 {
			want = 1
		}
		if probe.got != want {
			t.Errorf("SweepWorkers=%d: analysis saw %d sweep workers, want %d", tc.cfg, probe.got, want)
		}
		if st := e.Stats(); st.SweepWorkers != want {
			t.Errorf("SweepWorkers=%d: Stats().SweepWorkers = %d, want %d", tc.cfg, st.SweepWorkers, want)
		}
		e.Close()
	}
}

// TestSweepWorkersVerdictInvariant asserts a parallel-sweep engine and
// a serial one produce byte-identical certificates for the same GN2
// request — the property that keeps SweepWorkers out of the cache key.
func TestSweepWorkersVerdictInvariant(t *testing.T) {
	set := workload.Unconstrained(24).Generate(workload.Rand(11))
	req := func() Request {
		return Request{Columns: workload.FigureDeviceColumns, Set: set, Test: core.GN2Test{}}
	}
	serial := New(Config{Workers: 1, CacheSize: -1})
	defer serial.Close()
	parallel := New(Config{Workers: 1, CacheSize: -1, SweepWorkers: -1})
	defer parallel.Close()
	vs, err := serial.Analyze(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	vp, err := parallel.Analyze(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	cs, _ := json.Marshal(vs.Certificate())
	cp, _ := json.Marshal(vp.Certificate())
	if !bytes.Equal(cs, cp) {
		t.Fatalf("parallel sweep changed the certificate:\nserial:   %s\nparallel: %s", cs, cp)
	}
}
