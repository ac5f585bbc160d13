package task

import (
	"encoding/json"
	"math/big"
	"strings"
	"testing"
	"testing/quick"

	"fpgasched/internal/timeunit"
)

func table1Set() *Set {
	return NewSet(
		New("t1", "1.26", "7", "7", 9),
		New("t2", "0.95", "5", "5", 6),
	)
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		task    Task
		wantErr bool
	}{
		{"ok", New("x", "1", "2", "2", 1), false},
		{"zero C", Task{C: 0, D: 10, T: 10, A: 1}, true},
		{"negative C", Task{C: -1, D: 10, T: 10, A: 1}, true},
		{"zero T", Task{C: 1, D: 10, T: 0, A: 1}, true},
		{"zero D", Task{C: 1, D: 0, T: 10, A: 1}, true},
		{"zero area", Task{C: 1, D: 10, T: 10, A: 0}, true},
		{"C beyond D", New("x", "3", "2", "5", 1), true},
		{"C equals D", New("x", "2", "2", "5", 1), false},
		{"post-period deadline", New("x", "1", "9", "5", 1), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.task.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSetValidate(t *testing.T) {
	if err := (&Set{}).Validate(); err == nil {
		t.Error("empty set should fail validation")
	}
	if err := table1Set().Validate(); err != nil {
		t.Errorf("table1 set should validate: %v", err)
	}
}

func TestValidateFor(t *testing.T) {
	s := table1Set()
	if err := s.ValidateFor(10); err != nil {
		t.Errorf("ValidateFor(10): %v", err)
	}
	if err := s.ValidateFor(8); err == nil {
		t.Error("ValidateFor(8) should fail: task area 9 exceeds device")
	}
	if err := s.ValidateFor(0); err == nil {
		t.Error("ValidateFor(0) should fail")
	}
}

func TestUtilizations(t *testing.T) {
	s := table1Set()
	// UT = 1.26/7 + 0.95/5 = 0.18 + 0.19 = 0.37
	wantUT := big.NewRat(37, 100)
	if s.UtilizationT().Cmp(wantUT) != 0 {
		t.Errorf("UT = %v, want %v", s.UtilizationT(), wantUT)
	}
	// US = 0.18*9 + 0.19*6 = 1.62 + 1.14 = 2.76 (paper Section 6, Table 1)
	wantUS := big.NewRat(276, 100)
	if s.UtilizationS().Cmp(wantUS) != 0 {
		t.Errorf("US = %v, want %v", s.UtilizationS(), wantUS)
	}
}

func TestTable3UtilizationMatchesPaper(t *testing.T) {
	// Paper: "US(Γ) = 4.94" for Table 3.
	s := NewSet(
		New("t1", "2.10", "5", "5", 7),
		New("t2", "2.00", "7", "7", 7),
	)
	want := big.NewRat(494, 100)
	if s.UtilizationS().Cmp(want) != 0 {
		t.Errorf("US = %v, want %v", s.UtilizationS(), want)
	}
}

func TestAreaExtremes(t *testing.T) {
	s := table1Set()
	if s.AMax() != 9 {
		t.Errorf("AMax = %d, want 9", s.AMax())
	}
	if s.AMin() != 6 {
		t.Errorf("AMin = %d, want 6", s.AMin())
	}
	empty := &Set{}
	if empty.AMax() != 0 || empty.AMin() != 0 {
		t.Error("empty set extremes should be 0")
	}
}

func TestHyperperiod(t *testing.T) {
	s := table1Set() // periods 7 and 5 -> 35
	if got := s.Hyperperiod(); got != timeunit.FromUnits(35) {
		t.Errorf("Hyperperiod = %v, want 35", got)
	}
}

func TestDeadlineClassification(t *testing.T) {
	s := table1Set()
	if !s.ImplicitDeadlines() || !s.ConstrainedDeadlines() {
		t.Error("table1 has implicit deadlines")
	}
	s2 := NewSet(New("x", "1", "3", "5", 1))
	if s2.ImplicitDeadlines() {
		t.Error("D<T is not implicit")
	}
	if !s2.ConstrainedDeadlines() {
		t.Error("D<T is constrained")
	}
	s3 := NewSet(New("x", "1", "9", "5", 1))
	if s3.ConstrainedDeadlines() {
		t.Error("D>T is not constrained")
	}
}

func TestClone(t *testing.T) {
	s := table1Set()
	c := s.Clone()
	c.Tasks[0].A = 42
	if s.Tasks[0].A == 42 {
		t.Error("Clone must not share backing storage")
	}
}

func TestScaleExecution(t *testing.T) {
	s := table1Set()
	doubled := s.ScaleExecution(2, 1)
	if doubled.Tasks[0].C != timeunit.MustParse("2.52") {
		t.Errorf("scaled C = %v, want 2.52", doubled.Tasks[0].C)
	}
	if s.Tasks[0].C != timeunit.MustParse("1.26") {
		t.Error("ScaleExecution must not mutate the receiver")
	}
	// Floor at one tick: scale down an already-tiny C.
	tiny := NewSet(Task{Name: "tiny", C: 1, D: 100, T: 100, A: 1})
	scaled := tiny.ScaleExecution(1, 1000)
	if scaled.Tasks[0].C != 1 {
		t.Errorf("scaled tiny C = %v, want floor of 1 tick", scaled.Tasks[0].C)
	}
}

func TestScaleExecutionRounds(t *testing.T) {
	s := NewSet(Task{C: 3, D: 100, T: 100, A: 1})
	half := s.ScaleExecution(1, 2) // 1.5 ticks -> rounds to 2
	if half.Tasks[0].C != 2 {
		t.Errorf("half of 3 ticks = %v, want 2 (round half up)", half.Tasks[0].C)
	}
}

func TestScaleExecutionProperty(t *testing.T) {
	// Scaling by n/n is the identity for any positive n.
	f := func(cRaw uint16, n uint8) bool {
		c := timeunit.Time(int64(cRaw) + 1)
		den := int64(n) + 1
		s := NewSet(Task{C: c, D: c * 10, T: c * 10, A: 1})
		back := s.ScaleExecution(den, den)
		return back.Tasks[0].C == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	tk := New("t1", "1.26", "7", "7", 9)
	want := "t1(C=1.26, D=7, T=7, A=9)"
	if tk.String() != want {
		t.Errorf("String() = %q, want %q", tk.String(), want)
	}
	anon := Task{C: 1, D: 1, T: 1, A: 1}
	if anon.String() == "" {
		t.Error("anonymous task should still render")
	}
}

func TestMaxTMaxD(t *testing.T) {
	s := table1Set()
	if s.MaxT() != timeunit.FromUnits(7) {
		t.Errorf("MaxT = %v", s.MaxT())
	}
	if s.MaxD() != timeunit.FromUnits(7) {
		t.Errorf("MaxD = %v", s.MaxD())
	}
}

func TestDensityT(t *testing.T) {
	// Constrained deadline: density = C/D; implicit: C/T.
	con := New("x", "2", "4", "8", 1)
	if con.DensityT().Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("density = %v, want 1/2", con.DensityT())
	}
	imp := New("y", "2", "8", "8", 1)
	if imp.DensityT().Cmp(big.NewRat(1, 4)) != 0 {
		t.Errorf("density = %v, want 1/4", imp.DensityT())
	}
	post := New("z", "2", "8", "4", 1) // D > T: min is T
	if post.DensityT().Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("density = %v, want 1/2", post.DensityT())
	}
}

func TestSetLenAndString(t *testing.T) {
	s := table1Set()
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	out := s.String()
	if !strings.Contains(out, "t1(C=1.26") || !strings.Contains(out, "\n") {
		t.Errorf("Set.String rendering off:\n%s", out)
	}
}

func TestTaskMarshalJSONDirect(t *testing.T) {
	tk := New("solo", "1.5", "4", "4", 2)
	data, err := json.Marshal(tk)
	if err != nil {
		t.Fatal(err)
	}
	var back Task
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != tk {
		t.Errorf("round trip: %+v != %+v", back, tk)
	}
}

// utilizationSRef is the per-term big.Rat chain UtilizationS replaced:
// the reference its single-reduction sum must equal.
func utilizationSRef(s *Set) *big.Rat {
	sum := new(big.Rat)
	for _, t := range s.Tasks {
		sum.Add(sum, t.UtilizationS())
	}
	return sum
}

// TestUtilizationSMatchesPerTermSum: summing over an unreduced common
// denominator and reducing once gives exactly the per-term big.Rat sum,
// for empty sets, shared and coprime periods, and components near the
// int64 range (where Ci·Ai overflows int64).
func TestUtilizationSMatchesPerTermSum(t *testing.T) {
	check := func(s *Set) bool {
		got, want := s.UtilizationS(), utilizationSRef(s)
		if got.Cmp(want) != 0 || got.String() != want.String() {
			t.Logf("UtilizationS = %v, per-term sum = %v", got, want)
			return false
		}
		return true
	}
	if !check(NewSet()) {
		t.Fatal("empty set")
	}
	if err := quick.Check(func(cs, ts []int64, as []uint16, wide bool) bool {
		s := NewSet()
		for i := range cs {
			c, p, a := cs[i], int64(1), 1
			if i < len(ts) && ts[i] != 0 {
				p = ts[i]
			}
			if i < len(as) {
				a = int(as[i]) + 1
			}
			if !wide {
				// Small periods repeat, so terms share denominators.
				c, p = c%1000+1000, p%50+51
			}
			s.Tasks = append(s.Tasks, Task{C: timeunit.Time(c), D: timeunit.Time(p), T: timeunit.Time(p), A: a})
		}
		return check(s)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
