package main

import (
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	text := `goos: linux
goarch: amd64
pkg: fpgasched/internal/engine
cpu: Example CPU @ 2.00GHz
BenchmarkAnalyzeCold-8   	     100	     52341 ns/op	    1024 B/op	      12 allocs/op
BenchmarkAnalyzeWarm-8   	     100	       412 ns/op
BenchmarkColdDecide      	    4000	    226835 ns/op
PASS
ok  	fpgasched/internal/engine	0.5s
`
	doc, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GoOS != "linux" || doc.Pkg != "fpgasched/internal/engine" {
		t.Errorf("header = %+v", doc)
	}
	if len(doc.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(doc.Results))
	}
	cold := doc.Results[0]
	if cold.Name != "BenchmarkAnalyzeCold-8" || cold.Gomaxprocs != 8 || cold.Iterations != 100 || cold.NsPerOp != 52341 {
		t.Errorf("cold = %+v", cold)
	}
	if cold.Metrics["B/op"] != 1024 || cold.Metrics["allocs/op"] != 12 {
		t.Errorf("cold metrics = %+v", cold.Metrics)
	}
	warm := doc.Results[1]
	if warm.NsPerOp != 412 || len(warm.Metrics) != 0 {
		t.Errorf("warm = %+v", warm)
	}
	// go test prints no suffix at GOMAXPROCS=1.
	if one := doc.Results[2]; one.Name != "BenchmarkColdDecide" || one.Gomaxprocs != 1 {
		t.Errorf("GOMAXPROCS=1 result = %+v", one)
	}
}

func TestParseSkipsMalformed(t *testing.T) {
	doc, err := parse(strings.NewReader("BenchmarkBroken-8 notanumber 5 ns/op\nBenchmarkShort\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 0 {
		t.Errorf("results = %+v, want none", doc.Results)
	}
}

func TestCompareRendersDeltas(t *testing.T) {
	base := Document{Results: []Result{
		{Name: "BenchmarkGN2Sweep-8", Iterations: 10, NsPerOp: 1000,
			Metrics: map[string]float64{"allocs/op": 500}},
		{Name: "BenchmarkGone-8", Iterations: 10, NsPerOp: 50},
	}}
	cur := Document{Results: []Result{
		{Name: "BenchmarkGN2Sweep-4", Iterations: 10, NsPerOp: 250,
			Metrics: map[string]float64{"allocs/op": 50}},
		{Name: "BenchmarkNew-4", Iterations: 10, NsPerOp: 75},
	}}
	out := compare(base, cur)
	for _, want := range []string{
		"BenchmarkGN2Sweep", // matched despite differing -N suffixes
		"-75.0%",            // 1000 → 250 ns/op
		"-90.0%",            // 500 → 50 allocs/op
		"BenchmarkNew", "new",
		"BenchmarkGone", "gone",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
}

func TestTrimGomaxprocs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkX-8":        "BenchmarkX",
		"BenchmarkX":          "BenchmarkX",
		"BenchmarkX/N=40-16":  "BenchmarkX/N=40",
		"BenchmarkX-foo":      "BenchmarkX-foo",
		"BenchmarkGN1Ref-128": "BenchmarkGN1Ref",
	}
	for in, want := range cases {
		if got := trimGomaxprocs(in); got != want {
			t.Errorf("trimGomaxprocs(%q) = %q, want %q", in, got, want)
		}
	}
}
