// Command perfbench is fpgasched's served benchmark. It boots an
// in-process fpgaschedd (internal/server on a loopback listener), drives
// one workload through the client SDK with closed-loop clients, checks
// the answers against the library outside the timed window, and prints
// the workload's metrics:
//
//	bash perfbench/run.sh --workload analyze-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run.
// With --trace 1 it runs the workload twice, untraced and then traced,
// each for half of --seconds, and prints the per-layer metrics derived from the traced run plus the
// tracing overhead (the share of untraced throughput the traced run
// lost). Spans are recorded only in this package, around calls into each
// layer's public functions, and are written to
// .bench_build/spans-<workload>.jsonl when the run ends.
//
// BENCHMARK.json lists analyze-cold and admit-churn. analyze-hot, where
// every request is a verdict-cache hit, runs the same way but is left out
// of it: on the two-CPU shared host the bounds were measured on, its
// p50_us spread across ten seeds reached 27% of the median, above the
// largest bound a metric may have.
//
// --workload all runs every workload in turn. Each metric is printed on
// its own line with its unit and sample count; the last line of each
// workload's output is one JSON object with the keys correct, attempted,
// failed and metrics. The exit code is 0 only when every operation
// succeeded and every checked answer matched the library.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// clients is the number of closed-loop clients. It matches the CPU count
// of the two-CPU machine the bounds in BENCHMARK.json were measured on:
// more clients than CPUs only adds run-queue wait to every latency.
const clients = 2

// buildDir holds everything a run leaves behind (binary, Go build cache,
// WAL directories, span files), relative to the checkout root.
const buildDir = ".bench_build"

// endToEndSetups is how many times an end-to-end run sets its workload
// up; setup_s is the median, and the last setup is the one timed.
const endToEndSetups = 15

// runConfig is one invocation's workload and settings.
type runConfig struct {
	name    string
	def     workloadDef
	seed    uint64
	secs    time.Duration
	scratch string // per-run directory under buildDir for WAL state
}

// metric is one reported value. samples and beyond (for percentiles, the
// samples ranked above the value) are printed but not part of the JSON.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
	beyond  int
	pct     bool
}

func pctMetric(d dist, p int, unit string) metric {
	v, beyond := d.pct(p)
	return metric{Value: v, Unit: unit, samples: len(d), beyond: beyond, pct: true}
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "input seed; the same seed replays the same inputs")
	seconds := fs.Int("seconds", 10, "length of each timed phase, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
			fmt.Fprintf(stderr, "perfbench: need --workload %s|all, --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
			return 2
		}
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, n := range names {
		cfg := runConfig{name: n, def: workloads[n], seed: *seed, secs: time.Duration(*seconds) * time.Second}
		if c := runWorkload(cfg, *trace == 1, stdout, stderr); c != 0 {
			code = c
		}
	}
	return code
}

// runWorkload runs one workload and prints its metrics and result line.
func runWorkload(cfg runConfig, traced bool, stdout, stderr io.Writer) int {
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	cfg.scratch = scratch
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%d clients=%d GOMAXPROCS=%d nproc=%d\n",
		cfg.name, cfg.seed, int(cfg.secs.Seconds()), clients, runtime.GOMAXPROCS(0), runtime.NumCPU())
	ctx := context.Background()
	var res result
	if traced {
		res, err = perLayer(ctx, cfg)
	} else {
		res, err = endToEnd(ctx, cfg)
	}
	if err == nil {
		err = res.print(stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.name, err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed or disagreed with the library\n", cfg.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// endToEnd measures the workload untraced. setup_s is the median of
// endToEndSetups set-ups; the latencies and throughput come from the
// timed phase that follows the last one.
func endToEnd(ctx context.Context, cfg runConfig) (result, error) {
	ph, err := runPhase(ctx, cfg, endToEndSetups, nil)
	if err != nil {
		return result{}, err
	}
	if err := ph.d.close(); err != nil {
		return result{}, err
	}
	p50, p90 := ph.windowed(cfg.secs)
	bad := min(ph.errs+ph.mismatches, ph.ops)
	return result{
		Correct:   ph.errs+ph.mismatches == 0,
		Attempted: ph.ops,
		Failed:    bad,
		Metrics: map[string]metric{
			"setup_s":       pctMetric(newDist(ph.setups), 50, "s"),
			"ops_per_s":     ph.rate(),
			"p50_us":        p50,
			"p90_us":        p90,
			"success_ratio": {Value: ratio(float64(ph.ops-bad), float64(ph.ops)), Unit: "ratio", samples: ph.ops},
			"heap_live_mb":  {Value: float64(ph.heap) / (1 << 20), Unit: "MB", samples: 1},
		},
	}, nil
}

// perLayer runs the workload untraced and then traced, each on a fresh
// daemon for half the run's time, and derives the per-layer metrics from
// the traced run. Only the traced run passes the server the timing store
// wrapper.
func perLayer(ctx context.Context, cfg runConfig) (result, error) {
	cfg.secs = max(cfg.secs/2, time.Second)
	plain, err := runPhase(ctx, cfg, 1, nil)
	if err != nil {
		return result{}, err
	}
	if err := plain.d.close(); err != nil {
		return result{}, err
	}
	tr := newTracer()
	traced, err := runPhase(ctx, cfg, 1, tr)
	if err != nil {
		return result{}, err
	}
	m, err := layerMetrics(ctx, cfg, traced, tr)
	if cerr := traced.d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	plainRate, tracedRate := plain.rate().Value, traced.rate().Value
	m["trace.overhead_ratio"] = metric{Value: ratio(plainRate-tracedRate, plainRate), Unit: "ratio", samples: len(traced.lat)}
	if err := tr.write(filepath.Join(buildDir, "spans-"+cfg.name+".jsonl")); err != nil {
		return result{}, err
	}
	bad := plain.errs + plain.mismatches + traced.errs + traced.mismatches
	ops := plain.ops + traced.ops
	return result{Correct: bad == 0, Attempted: ops, Failed: min(bad, ops), Metrics: m}, nil
}

// print writes one line per metric, with its unit and sample count, and
// then the result as one JSON line.
func (r result) print(out io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(out, "%-34s %16.4f %-6s n=%d", n, m.Value, m.Unit, m.samples)
		if m.pct {
			fmt.Fprintf(out, " beyond=%d", m.beyond)
		}
		fmt.Fprintln(out)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
