// Command fpgasched analyses a hardware taskset file against the paper's
// schedulability tests and optionally simulates it.
//
// Usage:
//
//	fpgasched -columns 100 -file taskset.json [-tests DP,GN1,GN2]
//	          [-scheduler nf|fkf] [-simulate] [-horizon 200] [-v]
//	          [-explain] [-remote http://host:8080]
//	fpgasched -list-tests
//
// The file may be JSON ({"tasks":[{"name":...,"c":"1.26","d":"7","t":"7",
// "a":9},...]}) or CSV (header name,c,d,t,a), chosen by extension.
//
// With -remote the analysis (and simulation) run on a fpgaschedd daemon
// through the official client SDK instead of in-process — same flags,
// same output, same exit codes — so the CLI doubles as a smoke test of
// CLI/SDK parity.
//
// Exit status: 0 if every requested test accepts, 1 if any rejects,
// 2 on usage or input errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"fpgasched/api"
	"fpgasched/client"
	"fpgasched/internal/core"
	"fpgasched/internal/sched"
	"fpgasched/internal/sim"
	"fpgasched/internal/task"
	"fpgasched/internal/timeunit"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("fpgasched", flag.ContinueOnError)
	columns := fs.Int("columns", 100, "device area A(H) in columns")
	file := fs.String("file", "", "taskset file (.json or .csv)")
	testsArg := fs.String("tests", "DP,GN1,GN2", "comma-separated tests: DP, DP-real, GN1, GN1-Dk, GN2, GN2x (extended λ search), any-nf, any-fkf")
	scheduler := fs.String("scheduler", "nf", "simulated scheduler: nf or fkf")
	simulate := fs.Bool("simulate", false, "also run a synchronous-release simulation")
	horizon := fs.Int64("horizon", 0, "simulation release horizon in time units (0: auto)")
	verbose := fs.Bool("v", false, "print per-task bound details")
	explain := fs.Bool("explain", false, "print each verdict's full JSON certificate (exact rational bounds, composite sub-verdicts)")
	listTests := fs.Bool("list-tests", false, "list the test registry (name, scheduler validity, description) and exit")
	remote := fs.String("remote", "", "base URL of a fpgaschedd daemon; analyses run there via the client SDK")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listTests {
		printTestRegistry(os.Stdout)
		return 0
	}
	if *file == "" {
		fmt.Fprintln(os.Stderr, "fpgasched: -file is required")
		fs.Usage()
		return 2
	}
	s, err := loadSet(*file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpgasched: %v\n", err)
		return 2
	}

	fmt.Printf("device: %d columns; taskset: %d tasks, UT=%s US=%s\n",
		*columns, s.Len(), s.UtilizationT().FloatString(4), s.UtilizationS().FloatString(4))

	if *remote != "" {
		return runRemote(*remote, *columns, s, *testsArg, *scheduler, *simulate, *horizon, *verbose, *explain)
	}

	tests, err := parseTests(*testsArg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpgasched: %v\n", err)
		return 2
	}
	dev := core.NewDevice(*columns)
	verdicts := make([]api.Verdict, len(tests))
	for i, t := range tests {
		verdicts[i] = t.Analyze(context.Background(), dev, s).Certificate()
	}
	allAccept := printVerdicts(verdicts, *verbose, *explain)

	if *simulate {
		var pol sim.Policy
		switch strings.ToLower(*scheduler) {
		case "nf":
			pol = sched.NextFit{}
		case "fkf":
			pol = sched.FirstKFit{}
		default:
			fmt.Fprintf(os.Stderr, "fpgasched: unknown scheduler %q\n", *scheduler)
			return 2
		}
		opts := sim.Options{}
		if *horizon > 0 {
			opts.Horizon = timeunit.FromUnits(*horizon)
		}
		res, err := sim.Simulate(*columns, s, pol, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fpgasched: simulation: %v\n", err)
			return 2
		}
		printSimulation(api.SimulateResponseFromResult(res))
	}

	if allAccept {
		return 0
	}
	return 1
}

// runRemote routes the analysis (and simulation) through a fpgaschedd
// daemon via the client SDK, mirroring the in-process output and exit
// codes. Server-side input rejections (unknown test, invalid set) map
// to exit 2 like their local counterparts.
func runRemote(base string, columns int, s *task.Set, testsArg, scheduler string, simulate bool, horizon int64, verbose, explain bool) int {
	c, err := client.New(base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpgasched: %v\n", err)
		return 2
	}
	ctx := context.Background()
	var names []string
	for _, n := range strings.Split(testsArg, ",") {
		if nn := strings.TrimSpace(n); nn != "" {
			names = append(names, nn)
		}
	}
	// An all-blank list must fail like the local path does; sending it
	// as empty would silently analyse with the server default (any-nf).
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "fpgasched: no tests selected")
		return 2
	}
	resp, err := c.Analyze(ctx, api.AnalyzeRequest{
		Columns: columns,
		Tests:   names,
		Taskset: s,
		Detail:  verbose,
		Explain: explain,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpgasched: remote analyze: %v\n", err)
		return 2
	}
	allAccept := printVerdicts(resp.Result.Verdicts, verbose, explain)

	if simulate {
		req := api.SimulateRequest{Columns: columns, Scheduler: strings.ToLower(scheduler), Taskset: s}
		if horizon > 0 {
			req.Horizon = strconv.FormatInt(horizon, 10)
		}
		res, err := c.Simulate(ctx, req)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fpgasched: remote simulation: %v\n", err)
			return 2
		}
		printSimulation(*res)
	}

	if allAccept {
		return 0
	}
	return 1
}

// printVerdicts prints one line per verdict, its per-task bounds when
// verbose and its certificate when explain, and reports whether every
// verdict accepts. Local verdicts are converted via
// core.Verdict.Certificate and remote ones arrive as api.Verdict — the
// same type — so both paths print through here and their output is
// identical for identical analyses.
func printVerdicts(verdicts []api.Verdict, verbose, explain bool) bool {
	allAccept := true
	for _, v := range verdicts {
		fmt.Println(" ", v.String())
		if verbose {
			for _, chk := range v.Checks {
				status := "ok"
				if !chk.Satisfied {
					status = "FAIL"
				}
				extra := ""
				if chk.Lambda != "" {
					extra = fmt.Sprintf(" λ=%s cond=%d", ratString(chk.Lambda), chk.Condition)
				}
				fmt.Printf("    task %d: LHS=%s RHS=%s %s%s\n",
					chk.TaskIndex, ratString(chk.LHS), ratString(chk.RHS), status, extra)
			}
		}
		if explain {
			printCertificate(v)
		}
		if !v.Schedulable {
			allAccept = false
		}
	}
	return allAccept
}

// printSimulation prints a simulation summary in its wire form (local
// results are converted via api.SimulateResponseFromResult).
func printSimulation(res api.SimulateResponse) {
	if !res.Missed {
		fmt.Printf("  %s simulation (horizon %s): no deadline miss (%d jobs, %d preemptions)\n",
			res.Policy, res.Horizon, res.Completed, res.Preemptions)
		return
	}
	missTask, missJob := -1, -1
	if res.FirstMissTask != nil {
		missTask = *res.FirstMissTask
	}
	if res.FirstMissJob != nil {
		missJob = *res.FirstMissJob
	}
	fmt.Printf("  %s simulation (horizon %s): MISS at %s (task %d job %d)\n",
		res.Policy, res.Horizon, res.FirstMissTime, missTask, missJob)
}

// printCertificate renders a verdict's machine-readable certificate as
// indented JSON.
func printCertificate(cert api.Verdict) {
	data, err := json.MarshalIndent(cert, "    ", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpgasched: encoding certificate: %v\n", err)
		return
	}
	fmt.Printf("    certificate: %s\n", data)
}

// printTestRegistry writes the shared test registry with its metadata,
// one line per test: name, scheduler validity, description.
func printTestRegistry(w io.Writer) {
	fmt.Fprintf(w, "%-8s %-6s %s\n", "NAME", "VALID", "DESCRIPTION")
	for _, info := range core.TestInfos() {
		fmt.Fprintf(w, "%-8s %-6s %s\n", info.Name, info.Validity, info.Description)
	}
}

// ratString renders an exact fraction string ("63/10") as a 4-decimal
// value.
func ratString(s string) string {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return s
	}
	return r.FloatString(4)
}

// loadSet reads a taskset from a JSON or CSV file by extension.
func loadSet(path string) (*task.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		return task.ReadCSV(f)
	default:
		return task.ReadJSON(f)
	}
}

// parseTests resolves the -tests argument via the shared core registry.
func parseTests(arg string) ([]core.Test, error) {
	return core.TestsByName(strings.Split(arg, ","))
}
