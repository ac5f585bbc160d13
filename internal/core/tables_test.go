package core

// Tests in this file pin the paper's Section 6 worked examples (Tables
// 1-3) exactly: every verdict, every intermediate quantity the paper
// prints, and the knife-edge equalities that motivated the numerics
// policy (DESIGN.md Section 6). If any of these fail, the reproduction is
// wrong, full stop.

import (
	"context"
	"math/big"
	"testing"

	"fpgasched/internal/task"
)

// tableDevice is the 10-column device used for Tables 1-3.
var tableDevice = NewDevice(10)

// Table1 is "accepted by DP but rejected by GN1 and GN2" (paper Table 1).
// It is constructed so that DP's bound holds with exact equality at k=2.
func table1() *task.Set {
	return task.NewSet(
		task.New("t1", "1.26", "7", "7", 9),
		task.New("t2", "0.95", "5", "5", 6),
	)
}

// Table2 is "accepted by GN1 but rejected by DP and GN2" (paper Table 2).
func table2() *task.Set {
	return task.NewSet(
		task.New("t1", "4.50", "8", "8", 3),
		task.New("t2", "8.00", "9", "9", 5),
	)
}

// Table3 is "accepted by GN2 but rejected by DP and GN1" (paper Table 3).
func table3() *task.Set {
	return task.NewSet(
		task.New("t1", "2.10", "5", "5", 7),
		task.New("t2", "2.00", "7", "7", 7),
	)
}

func TestTableVerdictMatrix(t *testing.T) {
	// The pairwise-incomparability matrix is the headline of Section 6.
	cases := []struct {
		name         string
		set          *task.Set
		dp, gn1, gn2 bool
	}{
		{"table1", table1(), true, false, false},
		{"table2", table2(), false, true, false},
		{"table3", table3(), false, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := (DPTest{}).Analyze(context.Background(), tableDevice, tc.set).Schedulable; got != tc.dp {
				t.Errorf("DP = %v, want %v", got, tc.dp)
			}
			if got := (GN1Test{}).Analyze(context.Background(), tableDevice, tc.set).Schedulable; got != tc.gn1 {
				t.Errorf("GN1 = %v, want %v", got, tc.gn1)
			}
			if got := (GN2Test{}).Analyze(context.Background(), tableDevice, tc.set).Schedulable; got != tc.gn2 {
				t.Errorf("GN2 = %v, want %v", got, tc.gn2)
			}
		})
	}
}

func TestTable1DPEqualityKnifeEdge(t *testing.T) {
	// Paper: US(Γ) = 2.76 and at k=2 the DP bound is exactly 2.76 — the
	// non-strict "≤" of Theorem 1 is what accepts this set.
	v := (DPTest{}).Analyze(context.Background(), tableDevice, table1())
	if !v.Schedulable {
		t.Fatalf("DP must accept table 1: %v", v)
	}
	us := big.NewRat(276, 100)
	k2 := v.Checks[1]
	if k2.LHS.Cmp(us) != 0 {
		t.Errorf("US = %s, want 69/25 (2.76)", k2.LHS.RatString())
	}
	if k2.RHS.Cmp(us) != 0 {
		t.Errorf("DP bound at k=2 = %s, want exact equality with US 69/25", k2.RHS.RatString())
	}
	// k=1's bound is 3.26, comfortably above.
	if k1 := v.Checks[0]; k1.RHS.Cmp(big.NewRat(326, 100)) != 0 {
		t.Errorf("DP bound at k=1 = %s, want 163/50 (3.26)", k1.RHS.RatString())
	}
}

func TestTable1GN1Rejection(t *testing.T) {
	v := (GN1Test{}).Analyze(context.Background(), tableDevice, table1())
	if v.Schedulable {
		t.Fatal("GN1 must reject table 1")
	}
	if v.FailingTask != 0 {
		t.Errorf("failing task = %d, want 0 (the 9-column task)", v.FailingTask)
	}
	// k=1: β2 = (1·0.95 + min(0.95, 7-5))/5 = 1.9/5 = 0.38;
	// LHS = 6·min(0.38, 0.82) = 2.28; RHS = (10-9+1)·0.82 = 1.64.
	k1 := v.Checks[0]
	if k1.LHS.Cmp(big.NewRat(228, 100)) != 0 {
		t.Errorf("GN1 LHS at k=1 = %s, want 57/25 (2.28)", k1.LHS.RatString())
	}
	if k1.RHS.Cmp(big.NewRat(164, 100)) != 0 {
		t.Errorf("GN1 RHS at k=1 = %s, want 41/25 (1.64)", k1.RHS.RatString())
	}
}

func TestTable1GN2StrictKnifeEdge(t *testing.T) {
	// Table 1 meets GN2's condition 2 with exact equality (Σ = 2.76 =
	// (Abnd−Amin)(1−λk)+Amin at λ = 0.19). The paper reports it rejected,
	// which requires the strict comparison (DESIGN.md item T3-STRICT).
	strict := GN2Test{}
	if v := strict.Analyze(context.Background(), tableDevice, table1()); v.Schedulable {
		t.Error("strict GN2 must reject table 1")
	}
	nonStrict := GN2Test{Options: GN2Options{CondTwoNonStrict: true}}
	v := nonStrict.Analyze(context.Background(), tableDevice, table1())
	if !v.Schedulable {
		t.Error("non-strict GN2 must accept table 1 (exact equality)")
	}
	// The equality itself: both sides 69/25.
	want := big.NewRat(276, 100)
	k := v.Checks[0]
	if k.Condition != 2 {
		t.Fatalf("expected condition 2, got %d", k.Condition)
	}
	if k.LHS.Cmp(want) != 0 || k.RHS.Cmp(want) != 0 {
		t.Errorf("condition 2 sides = %s vs %s, want equality at 69/25",
			k.LHS.RatString(), k.RHS.RatString())
	}
	if k.Lambda.Cmp(big.NewRat(19, 100)) != 0 {
		t.Errorf("winning λ = %s, want 19/100", k.Lambda.RatString())
	}
}

func TestTable2DPRejection(t *testing.T) {
	v := (DPTest{}).Analyze(context.Background(), tableDevice, table2())
	if v.Schedulable {
		t.Fatal("DP must reject table 2")
	}
	// US = 27/16 + 40/9 = 883/144; bound at k=1 is 69/16 = 4.3125.
	if v.Checks[0].LHS.Cmp(big.NewRat(883, 144)) != 0 {
		t.Errorf("US = %s, want 883/144", v.Checks[0].LHS.RatString())
	}
	if v.Checks[0].RHS.Cmp(big.NewRat(69, 16)) != 0 {
		t.Errorf("DP bound at k=1 = %s, want 69/16", v.Checks[0].RHS.RatString())
	}
	if v.FailingTask != 0 {
		t.Errorf("failing task = %d, want 0", v.FailingTask)
	}
}

func TestTable2GN1Acceptance(t *testing.T) {
	v := (GN1Test{}).Analyze(context.Background(), tableDevice, table2())
	if !v.Schedulable {
		t.Fatalf("GN1 must accept table 2: %v", v)
	}
	// k=1: β2 = min-capped to slack 7/16; LHS = 5·7/16 = 35/16;
	// RHS = 8·7/16 = 56/16.
	k1 := v.Checks[0]
	if k1.LHS.Cmp(big.NewRat(35, 16)) != 0 {
		t.Errorf("GN1 LHS at k=1 = %s, want 35/16", k1.LHS.RatString())
	}
	if k1.RHS.Cmp(big.NewRat(56, 16)) != 0 {
		t.Errorf("GN1 RHS at k=1 = %s, want 7/2", k1.RHS.RatString())
	}
	// k=2: β1 = 5.5/8 capped to slack 1/9; LHS = 3·1/9 = 1/3; RHS = 6/9.
	k2 := v.Checks[1]
	if k2.LHS.Cmp(big.NewRat(1, 3)) != 0 {
		t.Errorf("GN1 LHS at k=2 = %s, want 1/3", k2.LHS.RatString())
	}
	if k2.RHS.Cmp(big.NewRat(2, 3)) != 0 {
		t.Errorf("GN1 RHS at k=2 = %s, want 2/3", k2.RHS.RatString())
	}
}

func TestTable2GN2Rejection(t *testing.T) {
	v := (GN2Test{}).Analyze(context.Background(), tableDevice, table2())
	if v.Schedulable {
		t.Fatal("GN2 must reject table 2")
	}
	// Even the non-strict variant rejects: the failure is not a knife edge.
	nonStrict := GN2Test{Options: GN2Options{CondTwoNonStrict: true}}
	if nonStrict.Analyze(context.Background(), tableDevice, table2()).Schedulable {
		t.Error("non-strict GN2 must also reject table 2")
	}
}

func TestTable3DPRejection(t *testing.T) {
	// Paper: "US(Γ) = 4.94. When k = 2, (A(H)−Amax+1)(1−UT(τ2))+US(τ2) =
	// 4.85 < 4.94" (4.85 is the truncation of 34/7 = 4.857...).
	v := (DPTest{}).Analyze(context.Background(), tableDevice, table3())
	if v.Schedulable {
		t.Fatal("DP must reject table 3")
	}
	if v.FailingTask != 1 {
		t.Errorf("failing task = %d, want 1 (k=2 in the paper)", v.FailingTask)
	}
	k2 := v.Checks[1]
	if k2.LHS.Cmp(big.NewRat(494, 100)) != 0 {
		t.Errorf("US = %s, want 247/50 (4.94)", k2.LHS.RatString())
	}
	if k2.RHS.Cmp(big.NewRat(34, 7)) != 0 {
		t.Errorf("DP bound at k=2 = %s, want 34/7 (≈4.857)", k2.RHS.RatString())
	}
}

func TestTable3GN1Rejection(t *testing.T) {
	// Paper: "When k = 2, (A(H)−A2+1)(1−C2/D2) = 20/7; N1 = 1,
	// β1 = 4.1/5, so Σ Ai·min(βi, 1−Ck/Dk) = 5 > 20/7".
	// Note 20/7 confirms the A(H)−Ak+1 bound (T2-BOUND) and β1 = 4.1/5
	// confirms the /Di normalisation (T2-NORM).
	v := (GN1Test{}).Analyze(context.Background(), tableDevice, table3())
	if v.Schedulable {
		t.Fatal("GN1 must reject table 3")
	}
	if v.FailingTask != 1 {
		t.Errorf("failing task = %d, want 1", v.FailingTask)
	}
	k2 := v.Checks[1]
	if k2.LHS.Cmp(big.NewRat(5, 1)) != 0 {
		t.Errorf("GN1 LHS at k=2 = %s, want 5", k2.LHS.RatString())
	}
	if k2.RHS.Cmp(big.NewRat(20, 7)) != 0 {
		t.Errorf("GN1 RHS at k=2 = %s, want 20/7", k2.RHS.RatString())
	}
}

func TestTable3GN1BetaMatchesPaper(t *testing.T) {
	// β1 = (N1·C1 + min(C1, max(D2−N1·T1, 0)))/D1 = (2.1 + 2)/5 = 4.1/5.
	s := table3()
	beta := gn1BetaR(s.Tasks[0], s.Tasks[1], GN1VariantPaper).Rat()
	if beta.Cmp(big.NewRat(41, 50)) != 0 {
		t.Errorf("β1 = %s, want 41/50 (4.1/5, as printed)", beta.RatString())
	}
	// The BCL-consistent variant would divide by Dk=7 instead.
	betaBCL := gn1BetaR(s.Tasks[0], s.Tasks[1], GN1VariantBCL).Rat()
	if betaBCL.Cmp(big.NewRat(41, 70)) != 0 {
		t.Errorf("β1(BCL) = %s, want 41/70", betaBCL.RatString())
	}
}

func TestTable3GN2Acceptance(t *testing.T) {
	// Paper: for both k, at λ = C1/T1 = 0.42: condition 2 gives
	// (Abnd−Amin)(1−λk)+Amin = 5.26 and Σ = 4.94 (the paper's 4.97 is a
	// rounding artefact of printing β2 as 0.29) — accepted.
	v := (GN2Test{}).Analyze(context.Background(), tableDevice, table3())
	if !v.Schedulable {
		t.Fatalf("GN2 must accept table 3: %v", v)
	}
	lambdaWant := big.NewRat(42, 100)
	for k, check := range v.Checks {
		if check.Condition != 2 {
			t.Errorf("k=%d: condition = %d, want 2", k, check.Condition)
		}
		if check.Lambda.Cmp(lambdaWant) != 0 {
			t.Errorf("k=%d: λ = %s, want 21/50 (= C1/T1 = 0.42)", k, check.Lambda.RatString())
		}
		if check.LHS.Cmp(big.NewRat(494, 100)) != 0 {
			t.Errorf("k=%d: Σ = %s, want 247/50 (4.94)", k, check.LHS.RatString())
		}
		if check.RHS.Cmp(big.NewRat(526, 100)) != 0 {
			t.Errorf("k=%d: bound = %s, want 263/50 (5.26)", k, check.RHS.RatString())
		}
	}
}

func TestCompositeOnTables(t *testing.T) {
	// "Determine that a taskset is unschedulable only if all tests fail":
	// the any-of composite accepts all three tables under EDF-NF.
	comp := ForNF()
	for name, s := range map[string]*task.Set{
		"table1": table1(), "table2": table2(), "table3": table3(),
	} {
		if v := comp.Analyze(context.Background(), tableDevice, s); !v.Schedulable {
			t.Errorf("%s: composite rejected: %v", name, v)
		}
	}
	// Under EDF-FkF only DP and GN2 may be used, so table 2 (GN1-only) is
	// not provably schedulable.
	fkf := ForFkF()
	if v := fkf.Analyze(context.Background(), tableDevice, table2()); v.Schedulable {
		t.Errorf("FkF composite must not accept table 2 (only GN1 accepts it)")
	}
	if v := fkf.Analyze(context.Background(), tableDevice, table1()); !v.Schedulable {
		t.Errorf("FkF composite must accept table 1 via DP: %v", v)
	}
	if v := fkf.Analyze(context.Background(), tableDevice, table3()); !v.Schedulable {
		t.Errorf("FkF composite must accept table 3 via GN2: %v", v)
	}
}
