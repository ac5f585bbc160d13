package workload

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"fpgasched/internal/core"
)

func TestProfileValidate(t *testing.T) {
	good := []Profile{
		Unconstrained(4),
		Unconstrained(10),
		SpatiallyHeavyTemporallyLight(10),
		SpatiallyLightTemporallyHeavy(10),
		Bursty(10),
		Heterogeneous(10),
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	bad := []Profile{
		{N: 0, AreaMin: 1, AreaMax: 2, PeriodMin: 5, PeriodMax: 20, UtilMax: 1},
		{N: 1, AreaMin: 0, AreaMax: 2, PeriodMin: 5, PeriodMax: 20, UtilMax: 1},
		{N: 1, AreaMin: 3, AreaMax: 2, PeriodMin: 5, PeriodMax: 20, UtilMax: 1},
		{N: 1, AreaMin: 1, AreaMax: 2, PeriodMin: 0, PeriodMax: 20, UtilMax: 1},
		{N: 1, AreaMin: 1, AreaMax: 2, PeriodMin: 5, PeriodMax: 4, UtilMax: 1},
		{N: 1, AreaMin: 1, AreaMax: 2, PeriodMin: 5, PeriodMax: 20, UtilMin: 0.5, UtilMax: 0.4},
		{N: 1, AreaMin: 1, AreaMax: 2, PeriodMin: 5, PeriodMax: 20, UtilMin: 0, UtilMax: 1.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d validated", i)
		}
	}
	badHeavy := []Profile{
		{N: 1, AreaMin: 1, AreaMax: 2, PeriodMin: 5, PeriodMax: 20, UtilMax: 1, HeavyFraction: -0.1},
		{N: 1, AreaMin: 1, AreaMax: 2, PeriodMin: 5, PeriodMax: 20, UtilMax: 1, HeavyFraction: 1.5},
		{N: 1, AreaMin: 1, AreaMax: 2, PeriodMin: 5, PeriodMax: 20, UtilMax: 1,
			HeavyFraction: 0.5, HeavyAreaMin: 0, HeavyAreaMax: 2, HeavyUtilMax: 1},
		{N: 1, AreaMin: 1, AreaMax: 2, PeriodMin: 5, PeriodMax: 20, UtilMax: 1,
			HeavyFraction: 0.5, HeavyAreaMin: 1, HeavyAreaMax: 2, HeavyUtilMin: 0.8, HeavyUtilMax: 0.4},
	}
	for i, p := range badHeavy {
		if err := p.Validate(); err == nil {
			t.Errorf("bad heavy profile %d validated", i)
		}
	}
}

func TestBurstyRespectsRanges(t *testing.T) {
	p := Bursty(10)
	r := Rand(5)
	for trial := 0; trial < 50; trial++ {
		s := p.Generate(r)
		if err := s.ValidateFor(FigureDeviceColumns); err != nil {
			t.Fatalf("invalid set: %v", err)
		}
		for _, tk := range s.Tasks {
			if tk.A < p.AreaMin || tk.A > p.AreaMax {
				t.Errorf("area %d outside [%d,%d]", tk.A, p.AreaMin, p.AreaMax)
			}
			if tf := tk.T.Float(); tf < p.PeriodMin-0.001 || tf > p.PeriodMax+0.001 {
				t.Errorf("period %v outside (%g,%g)", tk.T, p.PeriodMin, p.PeriodMax)
			}
		}
	}
}

func TestHeterogeneousIsBimodal(t *testing.T) {
	// Every draw must come from exactly one of the two modes, and across
	// enough draws both modes must appear in roughly the configured
	// proportion. The base and heavy area ranges are disjoint ([1,15] vs
	// [40,90]), so the mode of each task is identifiable from its area.
	p := Heterogeneous(10)
	r := Rand(11)
	var light, heavy int
	for trial := 0; trial < 200; trial++ {
		s := p.Generate(r)
		if err := s.ValidateFor(FigureDeviceColumns); err != nil {
			t.Fatalf("invalid set: %v", err)
		}
		for _, tk := range s.Tasks {
			switch {
			case tk.A >= p.AreaMin && tk.A <= p.AreaMax:
				light++
			case tk.A >= p.HeavyAreaMin && tk.A <= p.HeavyAreaMax:
				heavy++
			default:
				t.Fatalf("area %d in neither mode range", tk.A)
			}
		}
	}
	frac := float64(heavy) / float64(light+heavy)
	if frac < 0.18 || frac > 0.33 {
		t.Errorf("heavy fraction = %g, expected ≈%g", frac, p.HeavyFraction)
	}
}

func TestHeavyFractionZeroIgnoresHeavyRanges(t *testing.T) {
	// HeavyFraction 0 must leave generation identical to a profile with
	// no heavy fields at all, including the RNG draw sequence.
	base := Unconstrained(10)
	with := base
	with.HeavyAreaMin, with.HeavyAreaMax = 40, 90
	with.HeavyUtilMin, with.HeavyUtilMax = 0.4, 0.8
	a := base.Generate(Rand(21))
	b := with.Generate(Rand(21))
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			t.Fatalf("HeavyFraction=0 changed generation at task %d", i)
		}
	}
	if err := with.Validate(); err != nil {
		t.Errorf("HeavyFraction=0 with stray heavy fields must validate: %v", err)
	}
}

func TestGenerateRespectsRanges(t *testing.T) {
	r := Rand(1)
	for trial := 0; trial < 50; trial++ {
		for _, p := range []Profile{
			Unconstrained(10),
			SpatiallyHeavyTemporallyLight(10),
			SpatiallyLightTemporallyHeavy(10),
		} {
			s := p.Generate(r)
			if s.Len() != p.N {
				t.Fatalf("%s: %d tasks, want %d", p.Name, s.Len(), p.N)
			}
			if err := s.ValidateFor(FigureDeviceColumns); err != nil {
				t.Fatalf("%s: invalid set: %v", p.Name, err)
			}
			for _, tk := range s.Tasks {
				if tk.A < p.AreaMin || tk.A > p.AreaMax {
					t.Errorf("%s: area %d outside [%d,%d]", p.Name, tk.A, p.AreaMin, p.AreaMax)
				}
				tf := tk.T.Float()
				if tf < p.PeriodMin-0.001 || tf > p.PeriodMax+0.001 {
					t.Errorf("%s: period %v outside (%g,%g)", p.Name, tk.T, p.PeriodMin, p.PeriodMax)
				}
				if tk.D != tk.T {
					t.Errorf("%s: deadline %v != period %v", p.Name, tk.D, tk.T)
				}
				if tk.C < 1 || tk.C > tk.D {
					t.Errorf("%s: C %v outside [1 tick, D]", p.Name, tk.C)
				}
			}
		}
	}
}

func TestGenerateDeterministicFromSeed(t *testing.T) {
	p := Unconstrained(10)
	a := p.Generate(Rand(42))
	b := p.Generate(Rand(42))
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			t.Fatalf("same seed diverged at task %d: %+v vs %+v", i, a.Tasks[i], b.Tasks[i])
		}
	}
	c := p.Generate(Rand(43))
	same := true
	for i := range a.Tasks {
		if a.Tasks[i] != c.Tasks[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical sets")
	}
}

func TestGenerateWithTargetUS(t *testing.T) {
	p := Unconstrained(10)
	r := Rand(7)
	for _, target := range []float64{5, 20, 40, 60, 80} {
		s, achieved := p.GenerateWithTargetUS(r, target)
		if err := s.ValidateFor(FigureDeviceColumns); err != nil {
			t.Fatalf("target %g: invalid set: %v", target, err)
		}
		if math.Abs(achieved-target) > target*0.1+0.5 {
			t.Errorf("target %g: achieved %g (off by more than 10%%)", target, achieved)
		}
		if got := USFloat(s); math.Abs(got-achieved) > 1e-9 {
			t.Errorf("achieved mismatch: reported %g, recomputed %g", achieved, got)
		}
	}
}

func TestGenerateWithTargetUSClampsGracefully(t *testing.T) {
	// A target far above what N tasks can carry (C ≤ D caps per-task UT
	// at 1, so US ≤ ΣA): must not loop forever, must return valid set.
	p := Profile{Name: "tiny", N: 2, AreaMin: 1, AreaMax: 2,
		PeriodMin: 5, PeriodMax: 20, UtilMin: 0.1, UtilMax: 0.5}
	s, achieved := p.GenerateWithTargetUS(Rand(3), 90)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if achieved > 4.0001 {
		t.Errorf("achieved %g exceeds theoretical max 4", achieved)
	}
}

func TestTableFixturesMatchCoreVerdicts(t *testing.T) {
	dev := core.NewDevice(TableDeviceColumns)
	if !(core.DPTest{}).Analyze(context.Background(), dev, Table1()).Schedulable {
		t.Error("fixture table1 must be DP-accepted")
	}
	if !(core.GN1Test{}).Analyze(context.Background(), dev, Table2()).Schedulable {
		t.Error("fixture table2 must be GN1-accepted")
	}
	if !(core.GN2Test{}).Analyze(context.Background(), dev, Table3()).Schedulable {
		t.Error("fixture table3 must be GN2-accepted")
	}
}

func TestUSFloatMatchesRat(t *testing.T) {
	f := func(seed uint64) bool {
		s := Unconstrained(5).Generate(Rand(seed))
		exact, _ := USRat(s).Float64()
		return math.Abs(exact-USFloat(s)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestProfileUSRangeSanity(t *testing.T) {
	// Statistical sanity on the profile intents: spatially-heavy sets
	// have mean area ≥ 50; temporally-heavy sets have mean task
	// utilization ≥ 0.5.
	r := Rand(99)
	var areaSum, utilSum float64
	const trials = 200
	for i := 0; i < trials; i++ {
		sh := SpatiallyHeavyTemporallyLight(10).Generate(r)
		th := SpatiallyLightTemporallyHeavy(10).Generate(r)
		for _, tk := range sh.Tasks {
			areaSum += float64(tk.A)
		}
		for _, tk := range th.Tasks {
			u, _ := tk.UtilizationT().Float64()
			utilSum += u
		}
	}
	if mean := areaSum / (trials * 10); mean < 70 || mean > 80 {
		t.Errorf("spatially-heavy mean area = %g, expected ≈75", mean)
	}
	if mean := utilSum / (trials * 10); mean < 0.68 || mean > 0.77 {
		t.Errorf("temporally-heavy mean utilization = %g, expected ≈0.725", mean)
	}
}

// BenchmarkGenerateWithTargetUS draws one rescaled 30-task set per
// iteration, alternating the Unconstrained and Heterogeneous profiles
// over a [10, 60] utilization target: the served analyze-cold client's
// generator, whose cost is dominated by the exact UtilizationS sums.
func BenchmarkGenerateWithTargetUS(b *testing.B) {
	profs := []Profile{Unconstrained(30), Heterogeneous(30)}
	r := Rand(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profs[i%2].GenerateWithTargetUS(r, 10+r.Float64()*50)
	}
}
