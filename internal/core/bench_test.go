package core_test

// Micro-benchmarks for the analysis kernels, with the frozen big.Rat
// reference build as the before/after baseline. `make bench` archives
// these as bench-results/BENCH_core.json (uploaded from CI), so the
// perf trajectory of the numeric layer is recorded from the fast-path
// PR onward: compare BenchmarkGN2Sweep against BenchmarkGN2SweepRef
// for the speedup, and allocs/op for the allocation reduction.

import (
	"context"
	"runtime"
	"testing"

	"fpgasched/internal/core"
	"fpgasched/internal/core/bigref"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

// benchSet100 is the 100-task acceptance workload: the paper's
// unconstrained Figure-3 distribution at production scale, on the
// figure device. Heavily loaded, so GN2 sweeps the full candidate set
// for most tasks — the worst case the serving path must survive.
func benchSet100() (*workload.Profile, int) {
	p := workload.Unconstrained(100)
	return &p, workload.FigureDeviceColumns
}

func benchAnalyze(b *testing.B, ctx context.Context, t core.Test, n int) {
	b.Helper()
	p, cols := benchSet100()
	p.N = n
	set := p.Generate(workload.Rand(uint64(n)))
	dev := core.NewDevice(cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := t.Analyze(ctx, dev, set)
		if v.Err != nil {
			b.Fatal(v.Err)
		}
	}
}

// noScreen pins a benchmark to the pure exact path so the pre-screen
// numbers stay comparable across runs (the interval screen is on by
// default everywhere else).
func noScreen() context.Context {
	return core.WithScreen(context.Background(), false)
}

// BenchmarkGN2Sweep is the pre-screen acceptance benchmark: the
// production λ sweep on a 100-task set (serial, as a request under
// full engine load runs it), interval screen off for baseline
// continuity with earlier archives.
func BenchmarkGN2Sweep(b *testing.B) {
	benchAnalyze(b, noScreen(), core.GN2Test{}, 100)
}

// BenchmarkGN2SweepScreened is the same sweep with the certified
// interval pre-filter on (the serving default): strictly-violated
// candidates are discarded by directed-rounding float intervals and
// only straddling ones reach the exact kernel.
func BenchmarkGN2SweepScreened(b *testing.B) {
	benchAnalyze(b, context.Background(), core.GN2Test{}, 100)
}

// BenchmarkGN2SweepRef is the same sweep on the big.Rat reference
// build — the pre-refactor implementation, kept runnable so the
// speedup stays measurable in every future run.
func BenchmarkGN2SweepRef(b *testing.B) {
	benchAnalyze(b, context.Background(), bigref.GN2Test{}, 100)
}

// BenchmarkGN2SweepParallel is the production sweep with the per-task
// checks fanned across all CPUs (engine.Config.SweepWorkers < 0), the
// single-large-analysis latency configuration.
func BenchmarkGN2SweepParallel(b *testing.B) {
	ctx := core.WithSweepWorkers(noScreen(), runtime.GOMAXPROCS(0))
	benchAnalyze(b, ctx, core.GN2Test{}, 100)
}

// BenchmarkGN2SweepParallelScreened stacks both latency levers: the
// interval screen plus the fanned per-task checks.
func BenchmarkGN2SweepParallelScreened(b *testing.B) {
	ctx := core.WithSweepWorkers(context.Background(), runtime.GOMAXPROCS(0))
	benchAnalyze(b, ctx, core.GN2Test{}, 100)
}

// BenchmarkGN2xSweep covers the extended-λ variant (a superset
// candidate list, so proportionally more per-candidate work).
func BenchmarkGN2xSweep(b *testing.B) {
	benchAnalyze(b, noScreen(), core.GN2Test{Options: core.GN2Options{ExtendedLambdaSearch: true}}, 100)
}

func BenchmarkGN2xSweepScreened(b *testing.B) {
	benchAnalyze(b, context.Background(), core.GN2Test{Options: core.GN2Options{ExtendedLambdaSearch: true}}, 100)
}

// BenchmarkGN1 / BenchmarkGN1Ref measure the O(N²) interference test.
func BenchmarkGN1(b *testing.B) {
	benchAnalyze(b, noScreen(), core.GN1Test{}, 100)
}

// BenchmarkGN1Screened runs GN1 with the screen on. GN1 certificates
// need the exact per-task sums regardless, so the screen only replaces
// the final comparisons — expect parity with BenchmarkGN1, archived to
// prove the screen costs nothing where it cannot win.
func BenchmarkGN1Screened(b *testing.B) {
	benchAnalyze(b, context.Background(), core.GN1Test{}, 100)
}

func BenchmarkGN1Ref(b *testing.B) {
	benchAnalyze(b, context.Background(), bigref.GN1Test{}, 100)
}

// BenchmarkDP / BenchmarkDPRef measure the closed-form bound.
func BenchmarkDP(b *testing.B) {
	benchAnalyze(b, noScreen(), core.DPTest{}, 100)
}

// BenchmarkDPScreened: as with GN1, the DP certificate is exact either
// way; the screened variant documents comparison-only screening parity.
func BenchmarkDPScreened(b *testing.B) {
	benchAnalyze(b, context.Background(), core.DPTest{}, 100)
}

func BenchmarkDPRef(b *testing.B) {
	benchAnalyze(b, context.Background(), bigref.DPTest{}, 100)
}

// coldSets is the served analyze-cold mix in-process: 30-task sets,
// alternately Unconstrained and Heterogeneous, rescaled to a total
// system utilization drawn from [10, 60] so some are accepted and some
// rejected.
func coldSets(n int) []*task.Set {
	sets := make([]*task.Set, n)
	for i := range sets {
		r := workload.Rand(uint64(i) + 1)
		prof := workload.Unconstrained(30)
		if i%2 == 1 {
			prof = workload.Heterogeneous(30)
		}
		sets[i], _ = prof.GenerateWithTargetUS(r, 10+r.Float64()*50)
	}
	return sets
}

func benchCold(b *testing.B, run func(context.Context, core.Test, core.Device, *task.Set) core.Verdict) {
	sets := coldSets(512)
	dev := core.NewDevice(workload.FigureDeviceColumns)
	nf := core.ForNF()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := run(ctx, nf, dev, sets[i%len(sets)]); v.Err != nil {
			b.Fatal(v.Err)
		}
	}
}

// BenchmarkColdAnalyze is one full any-nf analysis (with certificate
// values) per cold 30-task set: the explain and admission cost.
func BenchmarkColdAnalyze(b *testing.B) {
	benchCold(b, func(ctx context.Context, t core.Test, dev core.Device, s *task.Set) core.Verdict {
		return t.Analyze(ctx, dev, s)
	})
}

// BenchmarkColdDecide is the same any-nf analysis through core.Decide:
// the non-explain serving cost.
func BenchmarkColdDecide(b *testing.B) {
	benchCold(b, core.Decide)
}
