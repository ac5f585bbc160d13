// Package experiments reproduces the paper's evaluation (Section 6): the
// three verdict tables and the four acceptance-ratio figures, plus the
// ablations called out in DESIGN.md. Each experiment is registered under
// a stable ID (table1..3, fig3a/b, fig4a/b, ablation-*) and produces a
// report.Table and Markdown suitable for EXPERIMENTS.md.
//
// Acceptance-ratio sweeps follow the paper's method: generate many random
// tasksets per system-utilization bin, run every schedulability test and
// a synchronous-release simulation on each, and plot the fraction
// accepted per bin. Generation is stratified (execution times rescaled to
// hit each bin's target US) so every bin has a full population; the
// paper's raw-sampling alternative is available via SweepConfig.Raw.
// Work is spread over a worker pool with per-sample deterministic seeds,
// so results are reproducible regardless of worker count.
//
// Every experiment runs under a context.Context and aborts promptly when
// it is cancelled: sweep workers poll the context between samples and the
// context reaches inside each schedulability analysis (GN2's λ sweep
// polls it), so a cancelled run returns ctx.Err() without finishing the
// bin it was in. Runs report per-bin progress through
// RunOptions.OnProgress and can route their analyses through an external
// AnalyzeFunc (the serving engine's memoizing cache, when driven by
// internal/jobs) instead of calling the tests directly — the verdicts are
// identical either way because the tests are pure.
package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"fpgasched/internal/core"
	"fpgasched/internal/report"
	"fpgasched/internal/sim"
	"fpgasched/internal/task"
	"fpgasched/internal/timeunit"
	"fpgasched/internal/workload"
)

// PolicyFactory builds a simulation policy for a concrete taskset.
// Stateless policies ignore the arguments; hybrids (EDF-US) classify the
// set's tasks at construction time.
type PolicyFactory struct {
	// Name labels the simulation series (e.g. "sim-NF").
	Name string
	// New builds the policy for one taskset on a device.
	New func(s *task.Set, columns int) (sim.Policy, error)
}

// AnalyzeFunc evaluates one schedulability test on one taskset. It lets
// a caller route experiment analyses through an external evaluator —
// internal/jobs injects the serving engine here, so sweeps share its
// memoizing verdict cache and repeated sweeps of overlapping tasksets
// get warm hits. Implementations must be pure in (columns, set, test):
// the sweep treats the verdict as the test's own answer.
type AnalyzeFunc func(ctx context.Context, columns int, set *task.Set, t core.Test) (core.Verdict, error)

// analyzeOne evaluates test t on set s through analyze when non-nil, or
// directly otherwise — the single place experiment code dispatches an
// analysis. Experiments read only the decision, so the direct path runs
// core.Decide and builds no certificate values. Cancellation and
// evaluator failures surface as the error (a directly-run test records
// an abort in Verdict.Err, which is promoted here so both paths fail
// identically).
func analyzeOne(ctx context.Context, analyze AnalyzeFunc, columns int, s *task.Set, t core.Test) (core.Verdict, error) {
	var v core.Verdict
	if analyze != nil {
		var err error
		if v, err = analyze(ctx, columns, s, t); err != nil {
			return core.Verdict{}, err
		}
	} else {
		v = core.Decide(ctx, t, core.NewDevice(columns), s)
	}
	return v, v.Err
}

// Progress is a point-in-time account of an experiment run. Progress is
// reported per bin, not per sample: a bin (or, for ablations with other
// loop shapes, one bin-sized chunk of draws) is the unit of work, so the
// event volume stays bounded (~20 events per figure) no matter how many
// samples the run draws. SamplesDone counts completed draws, including
// raw-mode draws that landed outside the bin grid.
type Progress struct {
	// BinsDone and BinsTotal count completed work chunks.
	BinsDone, BinsTotal int
	// SamplesDone and SamplesTotal count individual draws.
	SamplesDone, SamplesTotal int
}

// RunOptions tunes a registered experiment run.
type RunOptions struct {
	// Samples is the taskset count per utilization bin. Zero means 500
	// (≈10,000 per figure over 20 bins, the paper's floor). Table
	// experiments ignore it.
	Samples int
	// Seed defaults to 1.
	Seed uint64
	// Workers defaults to GOMAXPROCS.
	Workers int
	// SimHorizonCap defaults to 200 time units per simulation.
	SimHorizonCap timeunit.Time
	// OnProgress, when non-nil, receives per-bin progress as the run
	// advances. It is called synchronously from worker goroutines (under
	// the run's accounting lock, so events arrive in monotonic order) and
	// must return quickly.
	OnProgress func(Progress)
	// Analyze, when non-nil, evaluates schedulability tests in place of
	// calling core.Test.Analyze directly (see AnalyzeFunc). Simulation
	// series always run locally.
	Analyze AnalyzeFunc
}

// WithDefaults returns o with zero knobs resolved to their defaults —
// the effective parameters a run will use, which job managers echo back
// to clients.
func (o RunOptions) WithDefaults() RunOptions {
	if o.Samples <= 0 {
		o.Samples = 500
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SimHorizonCap <= 0 {
		o.SimHorizonCap = timeunit.FromUnits(200)
	}
	return o
}

// Output is a registered experiment's result.
type Output struct {
	// ID echoes the experiment ID.
	ID string
	// Table is the numeric result (nil for pure-matrix experiments).
	Table *report.Table
	// Markdown is the rendered result for EXPERIMENTS.md.
	Markdown string
	// Notes carries observations (e.g. dominance violations found: none).
	Notes []string
	// Counts is the per-bin sample population for sweeps.
	Counts []int
}

// Definition is a runnable experiment.
type Definition struct {
	// ID is the stable identifier (e.g. "fig3a").
	ID string
	// Title describes what the paper shows.
	Title string
	// Run executes the experiment under ctx; cancellation aborts the run
	// mid-sweep with ctx.Err().
	Run func(ctx context.Context, opts RunOptions) (*Output, error)
}

// SweepConfig configures an acceptance-ratio sweep.
type SweepConfig struct {
	// Name titles the resulting table (e.g. "fig3a").
	Name string
	// Columns is the device area (the paper uses 100 for figures).
	Columns int
	// Profile draws the tasksets.
	Profile workload.Profile
	// Bins are the system-utilization bin centers. Empty means
	// 5, 10, ..., Columns.
	Bins []float64
	// SamplesPerBin is the taskset count per bin (the paper uses ≥10000
	// per experiment group; benchmarks use far less).
	SamplesPerBin int
	// Tests are the schedulability tests to compare.
	Tests []core.Test
	// Policies are the simulation series to include.
	Policies []PolicyFactory
	// Seed makes the sweep reproducible.
	Seed uint64
	// SimHorizonCap bounds each simulation run (zero: sim default).
	SimHorizonCap timeunit.Time
	// Workers bounds parallelism (zero: GOMAXPROCS).
	Workers int
	// Raw switches from stratified generation to the paper's raw
	// sampling: SamplesPerBin·len(Bins) sets are drawn from the profile
	// unmodified and binned by their achieved US (bins may then be
	// unevenly populated; empty bins yield NaN).
	Raw bool
	// OnProgress receives per-bin progress (see RunOptions.OnProgress).
	OnProgress func(Progress)
	// Analyze, when non-nil, evaluates the Tests series (see
	// AnalyzeFunc).
	Analyze AnalyzeFunc
}

// SweepResult is the outcome of a sweep.
type SweepResult struct {
	// Table has one row per bin and one column per test and policy.
	Table *report.Table
	// Counts is the number of tasksets that landed in each bin.
	Counts []int
}

// defaultBins returns 5, 10, ..., columns.
func defaultBins(columns int) []float64 {
	var bins []float64
	for u := 5; u <= columns; u += 5 {
		bins = append(bins, float64(u))
	}
	return bins
}

// seriesCount returns the column count: tests then policies.
func (cfg *SweepConfig) seriesCount() int { return len(cfg.Tests) + len(cfg.Policies) }

// progressMeter folds completed samples into per-bin Progress events.
// The zero meter (nil callback) is a no-op; step is safe for concurrent
// use and emits events with monotonically increasing counters.
type progressMeter struct {
	mu       sync.Mutex
	on       func(Progress)
	perChunk int
	total    int
	chunks   int
	done     int
	emitted  int // chunks reported so far
}

// newProgressMeter reports progress to on (which may be nil) for a run
// of chunks×perChunk samples.
func newProgressMeter(on func(Progress), chunks, perChunk int) *progressMeter {
	return &progressMeter{on: on, perChunk: perChunk, total: chunks * perChunk, chunks: chunks}
}

// step records n completed samples and emits a Progress event each time
// a chunk boundary is crossed. The callback runs under the meter's lock
// so events are strictly ordered; it must be fast.
func (p *progressMeter) step(n int) {
	if p.on == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done += n
	newChunks := p.done / p.perChunk
	if newChunks > p.chunks {
		newChunks = p.chunks
	}
	if newChunks > p.emitted {
		p.emitted = newChunks
		p.on(Progress{BinsDone: newChunks, BinsTotal: p.chunks, SamplesDone: p.done, SamplesTotal: p.total})
	}
}

// Run executes the sweep under ctx. Cancellation aborts promptly: the
// workers stop picking up samples, in-flight analyses abort at their
// next cancellation poll, and Run returns ctx.Err().
func (cfg SweepConfig) Run(ctx context.Context) (*SweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	if cfg.Columns < 1 {
		return nil, fmt.Errorf("experiments: columns %d", cfg.Columns)
	}
	if cfg.SamplesPerBin < 1 {
		return nil, fmt.Errorf("experiments: samples per bin %d", cfg.SamplesPerBin)
	}
	bins := cfg.Bins
	if len(bins) == 0 {
		bins = defaultBins(cfg.Columns)
	}
	accept, counts, err := tally(ctx, cfg.Workers, cfg.OnProgress, len(bins), cfg.SamplesPerBin, len(bins), cfg.seriesCount(),
		func(ctx context.Context, b, i int) (int, []bool, error) {
			r := workload.Rand(cfg.Seed ^ (uint64(b+1) * 0x9e3779b97f4a7c15) ^ (uint64(i+1) * 0xbf58476d1ce4e5b9))
			var s *task.Set
			if cfg.Raw {
				s = cfg.Profile.Generate(r)
				if b = nearestBin(bins, workload.USFloat(s)); b < 0 {
					return -1, nil, nil
				}
			} else {
				s, _ = cfg.Profile.GenerateWithTargetUS(r, bins[b])
			}
			hits, err := cfg.evaluate(ctx, s)
			return b, hits, err
		})
	if err != nil {
		return nil, err
	}

	tbl := &report.Table{Title: cfg.Name, XLabel: "system utilization US", X: bins}
	for si, t := range cfg.Tests {
		tbl.AddColumn(t.Name(), ratios(accept, counts, si))
	}
	for pi, p := range cfg.Policies {
		tbl.AddColumn(p.Name, ratios(accept, counts, len(cfg.Tests)+pi))
	}
	return &SweepResult{Table: tbl, Counts: counts}, nil
}

// sampler draws and evaluates sample i of job under ctx. It seeds its
// own draw from (job, i), so a sample's outcome does not depend on
// which worker runs it or when. It returns the bin the sample landed in
// (-1: outside the grid — work done, tallied nowhere) and whether each
// series accepted it.
type sampler func(ctx context.Context, job, i int) (bin int, hits []bool, err error)

// tally is the one sample loop behind every sampled experiment. It runs
// sample for every (job, i) with job < jobs and i < perJob on a pool of
// workers (zero: GOMAXPROCS), and returns accept[bin][series] (samples
// each series accepted) and counts[bin] (samples that landed in each
// bin). Progress is reported once per completed job's worth of samples.
// The tallies are integer sums, so the result is the same for every
// worker count.
//
// Cancellation aborts promptly: workers stop picking up samples,
// in-flight samples see the cancelled ctx, and tally returns ctx.Err().
// A failed sample stops the run the same way and its error is returned.
func tally(ctx context.Context, workers int, onProgress func(Progress), jobs, perJob, bins, series int, sample sampler) (accept [][]int, counts []int, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := jobs * perJob
	workers = min(workers, total)
	meter := newProgressMeter(onProgress, jobs, perJob)
	accept = make([][]int, bins)
	for b := range accept {
		accept[b] = make([]int, series)
	}
	counts = make([]int, bins)

	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for n := int(next.Add(1) - 1); n < total && runCtx.Err() == nil; n = int(next.Add(1) - 1) {
				bin, hits, err := sample(runCtx, n/perJob, n%perJob)
				mu.Lock()
				switch {
				case err != nil:
					if firstErr == nil {
						firstErr = err
						stop()
					}
				case bin >= 0:
					counts[bin]++
					for s, ok := range hits {
						if ok {
							accept[bin][s]++
						}
					}
				}
				mu.Unlock()
				if err == nil {
					meter.step(1)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return accept, counts, nil
}

// evaluate runs every test and simulation policy on one taskset,
// returning acceptance per series in config order. Cancellation
// surfaces as an error: directly-run tests record it in Verdict.Err,
// AnalyzeFunc evaluators return it, and simulations are skipped once
// ctx is done.
func (cfg *SweepConfig) evaluate(ctx context.Context, s *task.Set) ([]bool, error) {
	out := make([]bool, 0, cfg.seriesCount())
	for _, t := range cfg.Tests {
		v, err := analyzeOne(ctx, cfg.Analyze, cfg.Columns, s, t)
		if err != nil {
			return nil, err
		}
		out = append(out, v.Schedulable)
	}
	for _, pf := range cfg.Policies {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := pf.New(s, cfg.Columns)
		if err != nil {
			return nil, fmt.Errorf("experiments: building policy %s: %w", pf.Name, err)
		}
		res, err := sim.Simulate(cfg.Columns, s, p, sim.Options{HorizonCap: cfg.SimHorizonCap})
		if err != nil {
			return nil, fmt.Errorf("experiments: simulating %s: %w", pf.Name, err)
		}
		out = append(out, !res.Missed)
	}
	return out, nil
}

// ratios converts counters to per-bin acceptance ratios (NaN for empty
// bins).
func ratios(accept [][]int, counts []int, series int) []float64 {
	out := make([]float64, len(counts))
	for b := range counts {
		if counts[b] == 0 {
			out[b] = math.NaN()
			continue
		}
		out[b] = float64(accept[b][series]) / float64(counts[b])
	}
	return out
}

// nearestBin returns the index of the closest bin center, or -1 if us is
// more than half a bin spacing outside the grid.
func nearestBin(bins []float64, us float64) int {
	if len(bins) == 0 {
		return -1
	}
	best, bestDist := -1, 0.0
	for i, b := range bins {
		d := us - b
		if d < 0 {
			d = -d
		}
		if best < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	spacing := 5.0
	if len(bins) > 1 {
		spacing = bins[1] - bins[0]
	}
	if bestDist > spacing/2 {
		return -1
	}
	return best
}
