// Command experiments regenerates the paper's evaluation artefacts: the
// verdict tables (Tables 1–3), the acceptance-ratio figures (Figures 3a,
// 3b, 4a, 4b) and the ablations catalogued in DESIGN.md.
//
// Usage:
//
//	experiments list
//	experiments [-samples 500] [-seed 1] [-out results/] [-plot] all
//	experiments [-samples 500] fig3b
//	experiments -remote [-server http://localhost:8080] -samples 100 fig3b
//
// Figures write a CSV per experiment into -out (if set) and print a
// Markdown table (and, with -plot, an ASCII rendering). -samples is the
// taskset count per utilization bin; the paper's floor of 10,000 sets per
// figure corresponds to -samples 500 over the 20 default bins.
//
// With -remote the experiments run on a fpgaschedd daemon as background
// jobs (POST /v1/experiments, via the client SDK): per-bin progress is
// reported on stderr as the job streams, and the printed artefacts are
// byte-identical to a local run with the same -samples/-seed — results
// are a pure function of the parameters, independent of worker count
// and of where the sweep executes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fpgasched/api"
	"fpgasched/client"
	"fpgasched/internal/experiments"
	"fpgasched/internal/timeunit"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	samples := fs.Int("samples", 500, "tasksets per utilization bin")
	seed := fs.Uint64("seed", 1, "base RNG seed")
	workers := fs.Int("workers", 0, "sample worker goroutines for every sampled experiment; never changes results (0: GOMAXPROCS locally, server default remotely)")
	outDir := fs.String("out", "", "directory for CSV output (created if missing)")
	plot := fs.Bool("plot", false, "print ASCII plots for figures")
	horizon := fs.Int64("sim-horizon", 200, "simulation horizon cap in time units")
	remote := fs.Bool("remote", false, "run experiments as jobs on a fpgaschedd daemon")
	server := fs.String("server", "http://localhost:8080", "daemon base URL for -remote")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "experiments: exactly one experiment ID (or 'all' / 'list') required")
		fs.Usage()
		return 2
	}
	target := fs.Arg(0)

	if target == "list" {
		for _, d := range experiments.Registry() {
			fmt.Printf("%-18s %s\n", d.ID, d.Title)
		}
		return 0
	}

	var defs []experiments.Definition
	if target == "all" {
		defs = experiments.Registry()
	} else {
		d, ok := experiments.Lookup(target)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try 'list')\n", target)
			return 2
		}
		defs = []experiments.Definition{d}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 2
		}
	}

	var runner func(d experiments.Definition) (*experiments.Output, error)
	if *remote {
		c, err := client.New(*server)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 2
		}
		runner = func(d experiments.Definition) (*experiments.Output, error) {
			return runRemote(c, d.ID, api.ExperimentRequest{
				Experiment: d.ID,
				Samples:    *samples,
				Seed:       *seed,
				Workers:    *workers,
				SimHorizon: timeunit.FromUnits(*horizon).String(),
			})
		}
	} else {
		opts := experiments.RunOptions{
			Samples:       *samples,
			Seed:          *seed,
			Workers:       *workers,
			SimHorizonCap: timeunit.FromUnits(*horizon),
		}
		runner = func(d experiments.Definition) (*experiments.Output, error) {
			return d.Run(context.Background(), opts)
		}
	}

	for _, d := range defs {
		start := time.Now()
		fmt.Printf("== %s: %s\n", d.ID, d.Title)
		out, err := runner(d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", d.ID, err)
			return 1
		}
		fmt.Println(out.Markdown)
		for _, n := range out.Notes {
			fmt.Println("note:", n)
		}
		if out.Table != nil {
			if *plot {
				fmt.Println(out.Table.ASCIIPlot(72, 18))
			}
			if *outDir != "" {
				path := filepath.Join(*outDir, d.ID+".csv")
				f, err := os.Create(path)
				if err != nil {
					fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
					return 1
				}
				if err := out.Table.WriteCSV(f); err != nil {
					f.Close()
					fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", path, err)
					return 1
				}
				f.Close()
				fmt.Printf("wrote %s\n", path)
			}
		}
		fmt.Printf("(%s in %v)\n\n", d.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// runRemote executes one experiment as a daemon job and reassembles the
// wire result into the exact Output shape a local run produces, so the
// printed artefacts (Markdown, notes, CSV, plots) are byte-identical.
// Progress goes to stderr: stdout stays reserved for the artefacts.
func runRemote(c *client.Client, id string, req api.ExperimentRequest) (*experiments.Output, error) {
	res, err := c.RunExperiment(context.Background(), req, func(p api.ExperimentProgress) {
		fmt.Fprintf(os.Stderr, "remote: %s %d/%d bins (%d/%d samples)\n",
			id, p.BinsDone, p.BinsTotal, p.SamplesDone, p.SamplesTotal)
	})
	if err != nil {
		return nil, err
	}
	return &experiments.Output{
		ID:       res.Experiment,
		Table:    res.Table.Report(),
		Markdown: res.Markdown,
		Notes:    res.Notes,
		Counts:   res.Counts,
	}, nil
}
