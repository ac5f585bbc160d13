package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/big"
	"testing"

	"fpgasched/internal/core"
	"fpgasched/internal/workload"
)

// distinctCopy returns v with every rational of every check replaced by
// a fresh copy, recursively, so no two checks share a pointer.
func distinctCopy(v core.Verdict) core.Verdict {
	cp := func(x *big.Rat) *big.Rat {
		if x == nil {
			return nil
		}
		return new(big.Rat).Set(x)
	}
	checks := make([]core.BoundCheck, len(v.Checks))
	for i, c := range v.Checks {
		c.LHS, c.RHS, c.Lambda = cp(c.LHS), cp(c.RHS), cp(c.Lambda)
		checks[i] = c
	}
	v.Checks = checks
	subs := make([]core.Verdict, len(v.SubVerdicts))
	for i, sv := range v.SubVerdicts {
		subs[i] = distinctCopy(sv)
	}
	v.SubVerdicts = subs
	return v
}

// TestCertificateSharedRationals pins the BoundCheck contract that its
// rationals are read-only and may be shared — between the checks of
// one verdict and with cached verdicts — by rendering shared and
// distinct pointers to identical certificate bytes: a hand-built
// verdict whose pointers repeat, alternate, recur after another value
// and are nil in between, and a real DP acceptance, whose checks all
// share US(Γ).
func TestCertificateSharedRationals(t *testing.T) {
	a, b := big.NewRat(355, 113), big.NewRat(-7, 3)
	lam := big.NewRat(1, 2)
	built := core.Verdict{Test: "GN2", Schedulable: true, FailingTask: -1, Checks: []core.BoundCheck{
		{TaskIndex: 0, LHS: a, RHS: a, Satisfied: true, Lambda: lam, Condition: 1},
		{TaskIndex: 1, LHS: a, RHS: b, Satisfied: true, Lambda: lam, Condition: 2},
		{TaskIndex: 2, LHS: b, RHS: a, Satisfied: true},
		{TaskIndex: 3, LHS: a, RHS: b, Satisfied: true, Lambda: lam, Condition: 1},
		{TaskIndex: 4, Satisfied: true},
		{TaskIndex: 5, LHS: a, RHS: b, Satisfied: true, Lambda: lam, Condition: 2},
	}}
	// A composite whose members share one cached verdict's pointers.
	composite := core.Verdict{Test: "any-nf", Schedulable: true, FailingTask: -1, AcceptedBy: "GN2",
		SubVerdicts: []core.Verdict{built, built}}

	dev := core.NewDevice(workload.FigureDeviceColumns)
	light := workload.Heterogeneous(30)
	light.HeavyFraction = 0
	var dp core.Verdict
	for seed := uint64(1); seed <= 50 && !dp.Schedulable; seed++ {
		dp = (core.DPTest{}).Analyze(context.Background(), dev, light.Generate(workload.Rand(seed)))
	}
	if !dp.Schedulable {
		t.Fatal("no DP-accepted 30-task set in 50 seeds")
	}
	for _, c := range dp.Checks {
		if c.LHS != dp.Checks[0].LHS {
			t.Fatal("DP checks do not share one US(Γ)")
		}
	}

	for name, v := range map[string]core.Verdict{"built": built, "composite": composite, "dp": dp} {
		shared, err := json.Marshal(v.Certificate())
		if err != nil {
			t.Fatal(err)
		}
		distinct, err := json.Marshal(distinctCopy(v).Certificate())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(shared, distinct) {
			t.Errorf("%s: shared pointers render\n%s\ndistinct pointers render\n%s", name, shared, distinct)
		}
	}
}
