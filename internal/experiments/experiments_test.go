package experiments

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpgasched/internal/core"
	"fpgasched/internal/task"
	"fpgasched/internal/timeunit"
	"fpgasched/internal/workload"
)

// quickOpts keeps test runs fast; the real runs use cmd/experiments.
func quickOpts() RunOptions {
	return RunOptions{Samples: 12, Seed: 7, SimHorizonCap: timeunit.FromUnits(60)}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-2d", "ablation-alpha", "ablation-frag", "ablation-gn1norm",
		"ablation-nf", "ablation-overhead", "ablation-partition",
		"ablation-reserved", "ablation-ushybrid",
		"fig3a", "fig3b", "fig4a", "fig4b",
		"profile-bursty", "profile-hetero",
		"table1", "table2", "table3",
	}
	defs := Registry()
	if len(defs) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(defs), len(want))
	}
	for i, id := range want {
		if defs[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, defs[i].ID, id)
		}
		if defs[i].Title == "" || defs[i].Run == nil {
			t.Errorf("%s: incomplete definition", id)
		}
	}
	if _, ok := Lookup("fig3a"); !ok {
		t.Error("Lookup(fig3a) failed")
	}
	if _, ok := Lookup("nonsense"); ok {
		t.Error("Lookup(nonsense) succeeded")
	}
}

func TestTableExperimentsReproduceVerdicts(t *testing.T) {
	expect := map[string][]string{
		"table1": {"accept", "reject", "reject"},
		"table2": {"reject", "accept", "reject"},
		"table3": {"reject", "reject", "accept"},
	}
	for id, row := range expect {
		def, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		out, err := def.Run(context.Background(), quickOpts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		// The markdown row is "| tableN | accept | reject | reject |".
		wantRow := "| " + id + " | " + strings.Join(row, " | ") + " |"
		if !strings.Contains(out.Markdown, wantRow) {
			t.Errorf("%s markdown missing %q:\n%s", id, wantRow, out.Markdown)
		}
		if len(out.Notes) != 2 {
			t.Errorf("%s: want NF and FkF simulation notes, got %v", id, out.Notes)
		}
		// All three fixtures are simulation-feasible under EDF-NF
		// (sufficient tests accept them, so the sim must not miss).
		if !strings.Contains(out.Notes[0], "no deadline miss") {
			t.Errorf("%s: NF simulation missed on a test-accepted set: %s", id, out.Notes[0])
		}
	}
}

func TestVerdictMatrixMarkdown(t *testing.T) {
	m, err := RunVerdictMatrix(context.Background(), workload.TableDeviceColumns,
		[]NamedSet{{Name: "t1", Set: workload.Table1()}},
		paperTests(), nil)
	if err != nil {
		t.Fatal(err)
	}
	md := m.Markdown()
	if !strings.Contains(md, "| t1 | accept | reject | reject |") {
		t.Errorf("unexpected matrix:\n%s", md)
	}
}

func TestSweepStratifiedShape(t *testing.T) {
	res, err := SweepConfig{
		Name:          "mini",
		Columns:       100,
		Profile:       workload.Unconstrained(6),
		Bins:          []float64{20, 50, 80},
		SamplesPerBin: 15,
		Tests:         paperTests(),
		Policies:      []PolicyFactory{simNF},
		Seed:          3,
		SimHorizonCap: timeunit.FromUnits(60),
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table
	if len(tbl.X) != 3 || len(tbl.Columns) != 4 {
		t.Fatalf("table shape %dx%d, want 3x4", len(tbl.X), len(tbl.Columns))
	}
	for _, c := range res.Counts {
		if c != 15 {
			t.Errorf("stratified bin count = %d, want 15", c)
		}
	}
	for _, col := range tbl.Columns {
		for i, y := range col.Y {
			if math.IsNaN(y) || y < 0 || y > 1 {
				t.Errorf("column %s bin %d: ratio %v out of range", col.Name, i, y)
			}
		}
	}
}

func TestSweepAcceptanceDecreasesWithUtilization(t *testing.T) {
	// The defining shape of every figure: acceptance at US=10 must be at
	// least that at US=90 for every test and the simulation.
	res, err := SweepConfig{
		Name:          "shape",
		Columns:       100,
		Profile:       workload.Unconstrained(10),
		Bins:          []float64{10, 90},
		SamplesPerBin: 40,
		Tests:         paperTests(),
		Policies:      []PolicyFactory{simNF},
		Seed:          11,
		SimHorizonCap: timeunit.FromUnits(80),
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range res.Table.Columns {
		if col.Y[0] < col.Y[1] {
			t.Errorf("%s: acceptance rose with utilization (%.2f -> %.2f)", col.Name, col.Y[0], col.Y[1])
		}
	}
}

func TestSweepTestsArePessimisticVsSimulation(t *testing.T) {
	// Paper observation 1: "All three tests are indeed pessimistic
	// compared to simulation results" — per bin, the sim-NF ratio
	// dominates each test's ratio (sim is a necessary condition, tests
	// are sufficient; on identical samples sim accepts a superset).
	res, err := SweepConfig{
		Name:          "pessimism",
		Columns:       100,
		Profile:       workload.Unconstrained(10),
		Bins:          []float64{20, 40, 60},
		SamplesPerBin: 30,
		Tests:         paperTests(),
		Policies:      []PolicyFactory{simNF},
		Seed:          13,
		SimHorizonCap: timeunit.FromUnits(80),
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	simCol := res.Table.Columns[len(res.Table.Columns)-1]
	for _, testCol := range res.Table.Columns[:len(res.Table.Columns)-1] {
		for bi := range res.Table.X {
			if testCol.Y[bi] > simCol.Y[bi] {
				t.Errorf("bin US=%g: %s ratio %.3f exceeds simulation %.3f",
					res.Table.X[bi], testCol.Name, testCol.Y[bi], simCol.Y[bi])
			}
		}
	}
}

func TestSweepRawMode(t *testing.T) {
	res, err := SweepConfig{
		Name:          "raw",
		Columns:       100,
		Profile:       workload.Unconstrained(4),
		Bins:          defaultBins(100),
		SamplesPerBin: 20, // 20 per bin slot drawn raw, binned by achieved US
		Tests:         []core.Test{core.DPTest{}},
		Seed:          5,
		Raw:           true,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.Counts {
		total += c
	}
	if total == 0 {
		t.Fatal("raw mode binned nothing")
	}
	// Raw mode bins unevenly; counts must sum to at most the draws.
	if total > 20*len(defaultBins(100)) {
		t.Errorf("total binned %d exceeds draws", total)
	}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *SweepResult {
		res, err := SweepConfig{
			Name:          "det",
			Columns:       100,
			Profile:       workload.Unconstrained(5),
			Bins:          []float64{30, 60},
			SamplesPerBin: 10,
			Tests:         []core.Test{core.DPTest{}, core.GN2Test{}},
			Seed:          99,
			Workers:       workers,
		}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	for ci := range a.Table.Columns {
		for bi := range a.Table.X {
			if a.Table.Columns[ci].Y[bi] != b.Table.Columns[ci].Y[bi] {
				t.Errorf("results differ between 1 and 4 workers at col %d bin %d", ci, bi)
			}
		}
	}
}

func TestSweepValidation(t *testing.T) {
	bad := SweepConfig{Name: "x", Columns: 0, Profile: workload.Unconstrained(4), SamplesPerBin: 1}
	if _, err := bad.Run(context.Background()); err == nil {
		t.Error("zero columns must fail")
	}
	bad2 := SweepConfig{Name: "x", Columns: 10, Profile: workload.Profile{}, SamplesPerBin: 1}
	if _, err := bad2.Run(context.Background()); err == nil {
		t.Error("invalid profile must fail")
	}
	bad3 := SweepConfig{Name: "x", Columns: 10, Profile: workload.Unconstrained(4)}
	if _, err := bad3.Run(context.Background()); err == nil {
		t.Error("zero samples must fail")
	}
}

func TestNearestBin(t *testing.T) {
	bins := []float64{5, 10, 15}
	cases := []struct {
		us   float64
		want int
	}{
		{5, 0}, {7.4, 0}, {7.6, 1}, {12.4, 1}, {14, 2}, {17.4, 2}, {18, -1}, {1, -1},
	}
	for _, c := range cases {
		if got := nearestBin(bins, c.us); got != c.want {
			t.Errorf("nearestBin(%g) = %d, want %d", c.us, got, c.want)
		}
	}
	if nearestBin(nil, 5) != -1 {
		t.Error("empty bins must return -1")
	}
}

func TestAblationNFDominanceReportsCleanly(t *testing.T) {
	def, _ := Lookup("ablation-nf")
	out, err := def.Run(context.Background(), RunOptions{Samples: 5, Seed: 2, SimHorizonCap: timeunit.FromUnits(50)})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Join(out.Notes, " "), "WARNING") {
		t.Errorf("dominance violation reported: %v", out.Notes)
	}
	if !strings.Contains(out.Markdown, "(THEOREM VIOLATION if nonzero) | 0 |") {
		t.Errorf("expected zero FkF-only cell:\n%s", out.Markdown)
	}
}

func TestAblationAlphaOrdering(t *testing.T) {
	// The integer-corrected bound dominates the real-valued one:
	// DP's ratio ≥ DP-real's in every bin.
	def, _ := Lookup("ablation-alpha")
	out, err := def.Run(context.Background(), RunOptions{Samples: 25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dp, dpReal := out.Table.Columns[0], out.Table.Columns[1]
	for bi := range out.Table.X {
		if dp.Y[bi] < dpReal.Y[bi] {
			t.Errorf("bin %g: corrected DP %.3f below real-valued %.3f",
				out.Table.X[bi], dp.Y[bi], dpReal.Y[bi])
		}
	}
}

func TestAblationOverheadMonotone(t *testing.T) {
	def, _ := Lookup("ablation-overhead")
	out, err := def.Run(context.Background(), RunOptions{Samples: 8, Seed: 4, SimHorizonCap: timeunit.FromUnits(50)})
	if err != nil {
		t.Fatal(err)
	}
	// More overhead can only hurt: each column is non-increasing in ρ
	// (allow tiny sampling noise of one sample).
	tol := 1.0 / 8
	for _, col := range out.Table.Columns {
		for i := 1; i < len(col.Y); i++ {
			if col.Y[i] > col.Y[i-1]+tol {
				t.Errorf("%s: acceptance rose with overhead at step %d (%.3f -> %.3f)",
					col.Name, i, col.Y[i-1], col.Y[i])
			}
		}
	}
}

func TestAblationFragCapacityDominates(t *testing.T) {
	def, _ := Lookup("ablation-frag")
	out, err := def.Run(context.Background(), RunOptions{Samples: 6, Seed: 5, SimHorizonCap: timeunit.FromUnits(50)})
	if err != nil {
		t.Fatal(err)
	}
	capacity := out.Table.Columns[0]
	tol := 1.0 / 6
	for _, pinned := range out.Table.Columns[1:] {
		for bi := range out.Table.X {
			if pinned.Y[bi] > capacity.Y[bi]+tol {
				t.Errorf("bin %g: pinned %s ratio %.3f above capacity %.3f",
					out.Table.X[bi], pinned.Name, pinned.Y[bi], capacity.Y[bi])
			}
		}
	}
}

func TestAblationPartitionSeries(t *testing.T) {
	def, _ := Lookup("ablation-partition")
	out, err := def.Run(context.Background(), RunOptions{Samples: 6, Seed: 8, SimHorizonCap: timeunit.FromUnits(50)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Table.Columns) != 3 {
		t.Fatalf("want 3 series, got %d", len(out.Table.Columns))
	}
	// The simulation upper-bounds both analytical approaches per bin.
	simCol := out.Table.Columns[2]
	tol := 1.0 / 6
	for _, col := range out.Table.Columns[:2] {
		for bi := range out.Table.X {
			if col.Y[bi] > simCol.Y[bi]+tol {
				t.Errorf("bin %g: %s %.3f above sim %.3f", out.Table.X[bi], col.Name, col.Y[bi], simCol.Y[bi])
			}
		}
	}
}

func TestAblationUSHybridRuns(t *testing.T) {
	def, _ := Lookup("ablation-ushybrid")
	out, err := def.Run(context.Background(), RunOptions{Samples: 6, Seed: 9, SimHorizonCap: timeunit.FromUnits(50)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Table.Columns) != 3 {
		t.Fatalf("want 3 policy series, got %d", len(out.Table.Columns))
	}
	total := 0
	for _, c := range out.Counts {
		total += c
	}
	if total == 0 {
		t.Error("no tasksets binned")
	}
}

func TestAblation2DCapacityDominatesPlacement(t *testing.T) {
	def, _ := Lookup("ablation-2d")
	out, err := def.Run(context.Background(), RunOptions{Samples: 6, Seed: 10, SimHorizonCap: timeunit.FromUnits(50)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Table.Columns) != 4 {
		t.Fatalf("want 4 series, got %d", len(out.Table.Columns))
	}
	capacity := out.Table.Columns[0]
	tol := 0.35 // small samples per bin in raw mode
	for _, placed := range out.Table.Columns[1:] {
		for bi := range out.Table.X {
			if math.IsNaN(capacity.Y[bi]) || math.IsNaN(placed.Y[bi]) {
				continue
			}
			if placed.Y[bi] > capacity.Y[bi]+tol {
				t.Errorf("bin %g: %s %.3f far above capacity %.3f",
					out.Table.X[bi], placed.Name, placed.Y[bi], capacity.Y[bi])
			}
		}
	}
}

func TestAblationReservedMonotone(t *testing.T) {
	def, _ := Lookup("ablation-reserved")
	out, err := def.Run(context.Background(), RunOptions{Samples: 10, Seed: 11, SimHorizonCap: timeunit.FromUnits(50)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Table.Columns) != 3 {
		t.Fatalf("want 3 series, got %d", len(out.Table.Columns))
	}
	// Reserving more fabric can only hurt (tolerate one-sample noise).
	tol := 1.0 / 10
	for _, col := range out.Table.Columns {
		for i := 1; i < len(col.Y); i++ {
			if col.Y[i] > col.Y[i-1]+tol {
				t.Errorf("%s: acceptance rose with more reservation at step %d (%.2f -> %.2f)",
					col.Name, i, col.Y[i-1], col.Y[i])
			}
		}
	}
}

func TestSweepProgressPerBin(t *testing.T) {
	var events []Progress
	_, err := SweepConfig{
		Name:          "progress",
		Columns:       100,
		Profile:       workload.Unconstrained(4),
		Bins:          []float64{20, 50, 80},
		SamplesPerBin: 5,
		Tests:         []core.Test{core.DPTest{}},
		Seed:          1,
		Workers:       1, // single worker pins the event order
		OnProgress:    func(p Progress) { events = append(events, p) },
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d progress events, want 3 (one per bin): %+v", len(events), events)
	}
	for i, p := range events {
		want := Progress{BinsDone: i + 1, BinsTotal: 3, SamplesDone: 5 * (i + 1), SamplesTotal: 15}
		if p != want {
			t.Errorf("event %d = %+v, want %+v", i, p, want)
		}
	}
}

func TestSweepAnalyzeHook(t *testing.T) {
	// An external evaluator must see every (set, test) pair and its
	// verdicts must drive the table exactly like direct analysis.
	calls := 0
	hooked, err := SweepConfig{
		Name:          "hook",
		Columns:       100,
		Profile:       workload.Unconstrained(4),
		Bins:          []float64{30, 60},
		SamplesPerBin: 8,
		Tests:         paperTests(),
		Seed:          21,
		Analyze: func(ctx context.Context, columns int, s *task.Set, tst core.Test) (core.Verdict, error) {
			calls++
			return tst.Analyze(ctx, core.NewDevice(columns), s), nil
		},
		Workers: 1,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 8 * 3; calls != want {
		t.Errorf("analyze hook called %d times, want %d", calls, want)
	}
	direct, err := SweepConfig{
		Name:          "hook",
		Columns:       100,
		Profile:       workload.Unconstrained(4),
		Bins:          []float64{30, 60},
		SamplesPerBin: 8,
		Tests:         paperTests(),
		Seed:          21,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for ci := range direct.Table.Columns {
		for bi := range direct.Table.X {
			if hooked.Table.Columns[ci].Y[bi] != direct.Table.Columns[ci].Y[bi] {
				t.Errorf("hooked and direct results differ at col %d bin %d", ci, bi)
			}
		}
	}
}

func TestSweepCancellationPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		_, err := SweepConfig{
			Name:          "cancel",
			Columns:       100,
			Profile:       workload.Unconstrained(10),
			SamplesPerBin: 100000, // far more work than the test allows time for
			Tests:         paperTests(),
			Policies:      []PolicyFactory{simNF},
			Seed:          1,
			OnProgress:    func(Progress) {},
			Analyze: func(c context.Context, columns int, s *task.Set, tst core.Test) (core.Verdict, error) {
				once.Do(func() { close(started) })
				v := tst.Analyze(c, core.NewDevice(columns), s)
				return v, v.Err
			},
		}.Run(ctx)
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled sweep returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled sweep did not return promptly")
	}
}

func TestTableExperimentCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	def, _ := Lookup("table1")
	if _, err := def.Run(ctx, quickOpts()); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled table run returned %v, want context.Canceled", err)
	}
}

// TestExperimentsIndependentOfWorkers runs every registered experiment
// serially and on four workers: the tallies are integer sums over
// per-sample seeds, so the outputs must be identical.
func TestExperimentsIndependentOfWorkers(t *testing.T) {
	run := func(def Definition, workers int) *Output {
		out, err := def.Run(context.Background(), RunOptions{Samples: 3, Seed: 13, Workers: workers, SimHorizonCap: timeunit.FromUnits(40)})
		if err != nil {
			t.Fatalf("%s with %d workers: %v", def.ID, workers, err)
		}
		// Empty raw-mode bins read NaN, which DeepEqual never equates.
		if out.Table != nil {
			for _, col := range out.Table.Columns {
				for i, y := range col.Y {
					if math.IsNaN(y) {
						col.Y[i] = math.Inf(-1)
					}
				}
			}
		}
		return out
	}
	for _, def := range Registry() {
		if serial, parallel := run(def, 1), run(def, 4); !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: output differs between 1 and 4 workers:\n%+v\n%+v", def.ID, serial, parallel)
		}
	}
}

// TestAblationPartitionAnalyzesConcurrently holds every analysis until
// a second one is in flight: an ablation that ignored Workers would
// never get there, and the held analysis would fail.
func TestAblationPartitionAnalyzesConcurrently(t *testing.T) {
	var calls atomic.Int32
	both := make(chan struct{})
	opts := RunOptions{Samples: 2, Seed: 8, Workers: 2, SimHorizonCap: timeunit.FromUnits(40)}
	def, _ := Lookup("ablation-partition")
	direct, err := def.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Analyze = func(ctx context.Context, columns int, s *task.Set, tst core.Test) (core.Verdict, error) {
		if calls.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(10 * time.Second):
			return core.Verdict{}, errors.New("no second analysis ran concurrently")
		}
		v := tst.Analyze(ctx, core.NewDevice(columns), s)
		return v, v.Err
	}
	hooked, err := def.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if hooked.Markdown != direct.Markdown {
		t.Errorf("hooked run differs from direct run:\n%s\n%s", hooked.Markdown, direct.Markdown)
	}
}
