// Command benchjson converts `go test -bench` text output into a
// stable JSON document (BENCH_*.json), so benchmark results archived
// as CI artifacts are machine-comparable across PRs without parsing
// the bench text format downstream.
//
// With -baseline it additionally prints a benchstat-style delta table
// (to stderr, so stdout stays parseable JSON) comparing the parsed
// results against a previously archived BENCH_*.json — CI uses this to
// surface the perf delta of a PR against the committed baseline
// without external tooling. Comparison never fails the run: it is
// informational (single-run numbers, no variance model), the archived
// JSON is the durable record.
//
// Usage:
//
//	go test -bench . ./internal/engine/ | benchjson -out BENCH_engine.json
//	benchjson -in bench.txt -out BENCH_engine.json
//	benchjson -in bench.txt -out BENCH_core.json -baseline old/BENCH_core.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line in JSON form. Extra metric pairs beyond
// ns/op (B/op, allocs/op, custom ReportMetric units) land in Metrics.
// Gomaxprocs is read from the name's "-N" suffix (none means 1).
type Result struct {
	Name       string             `json:"name"`
	Gomaxprocs int                `json:"gomaxprocs"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Document is the archived file: the environment header go test prints
// plus every benchmark line, in order.
type Document struct {
	GoOS    string   `json:"goos,omitempty"`
	GoArch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	in := flag.String("in", "", "bench output file (default: stdin)")
	out := flag.String("out", "", "JSON output file (default: stdout)")
	baseline := flag.String("baseline", "", "archived BENCH_*.json to print an informational delta table against")
	flag.Parse()
	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	doc, err := parse(r)
	if err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	if *baseline != "" {
		base, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		var baseDoc Document
		if err := json.Unmarshal(base, &baseDoc); err != nil {
			fatal(fmt.Errorf("baseline %s: %w", *baseline, err))
		}
		// The table goes to stderr so stdout stays parseable JSON in
		// the default -out-less mode.
		os.Stderr.WriteString(compare(baseDoc, doc))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}

// parse reads `go test -bench` output: header key: value lines, then
// "BenchmarkName-N  iterations  value unit  [value unit ...]" lines.
func parse(r io.Reader) (Document, error) {
	var doc Document
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseBench(line)
			if ok {
				doc.Results = append(doc.Results, res)
			}
		}
	}
	return doc, sc.Err()
}

// compare renders a benchstat-style delta table between a baseline
// document and the current one, matching results by benchmark name
// (the -N GOMAXPROCS suffix stripped, so single- and multi-core runs
// still line up). Benchmarks present on only one side are listed
// without a delta. ns/op and allocs/op are compared; allocs/op is the
// metric the numeric-layer work gates on.
func compare(base, cur Document) string {
	baseBy := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseBy[trimGomaxprocs(r.Name)] = r
	}
	var b strings.Builder
	fmt.Fprintf(&b, "benchmark delta vs baseline (informational, single run)\n")
	fmt.Fprintf(&b, "%-40s %14s %14s %9s %12s %12s %9s\n",
		"name", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	seen := make(map[string]bool, len(cur.Results))
	for _, r := range cur.Results {
		name := trimGomaxprocs(r.Name)
		seen[name] = true
		old, ok := baseBy[name]
		if !ok {
			fmt.Fprintf(&b, "%-40s %14s %14.0f %9s %12s %12.0f %9s\n",
				name, "-", r.NsPerOp, "new", "-", r.Metrics["allocs/op"], "new")
			continue
		}
		fmt.Fprintf(&b, "%-40s %14.0f %14.0f %9s %12.0f %12.0f %9s\n",
			name, old.NsPerOp, r.NsPerOp, delta(old.NsPerOp, r.NsPerOp),
			old.Metrics["allocs/op"], r.Metrics["allocs/op"],
			delta(old.Metrics["allocs/op"], r.Metrics["allocs/op"]))
	}
	for _, r := range base.Results {
		name := trimGomaxprocs(r.Name)
		if !seen[name] {
			fmt.Fprintf(&b, "%-40s %14.0f %14s %9s %12.0f %12s %9s\n",
				name, r.NsPerOp, "-", "gone", r.Metrics["allocs/op"], "-", "gone")
		}
	}
	return b.String()
}

// delta formats the relative change from old to new.
func delta(old, new float64) string {
	if old == 0 {
		if new == 0 {
			return "+0.0%"
		}
		return "?"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}

// trimGomaxprocs removes the trailing "-N" procs suffix go test
// appends to benchmark names.
func trimGomaxprocs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parseBench parses one benchmark result line; malformed lines are
// skipped rather than failing the archive.
func parseBench(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Gomaxprocs: 1, Iterations: iters}
	if base := trimGomaxprocs(res.Name); base != res.Name {
		// trimGomaxprocs strips only a suffix that parses.
		res.Gomaxprocs, _ = strconv.Atoi(res.Name[len(base)+1:])
	}
	// Remaining fields come in value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			res.NsPerOp = v
			continue
		}
		if res.Metrics == nil {
			res.Metrics = make(map[string]float64)
		}
		res.Metrics[unit] = v
	}
	return res, true
}
