package interval

import (
	"math/big"
	"testing"

	"fpgasched/internal/rat"
)

// FuzzIntervalOps cross-checks every interval operation (the positive
// scalar MulPos/QuoPos included), predicate, and the accumulator
// against exact rat.R/big.Rat arithmetic: for arbitrary rational
// inputs — including values driven onto rat's big.Rat overflow
// fallback by squaring — the computed interval must always enclose the
// exact result (never exclude it), comparisons decided on intervals
// must agree with the exact comparison, and nothing may panic (division
// by a zero-containing interval degrades to Whole).
func FuzzIntervalOps(f *testing.F) {
	f.Add(int64(1), int64(3), int64(-1), int64(3), uint8(2))
	f.Add(int64(19), int64(100), int64(126), int64(700), uint8(7))
	f.Add(int64(0), int64(1), int64(0), int64(1), uint8(0))
	f.Add(int64(1)<<53, int64(1), (int64(1)<<53)+1, int64(3), uint8(255))
	f.Add(int64(-1)<<62, int64((1<<62)-1), int64(1)<<62, int64(3), uint8(9))
	f.Add(int64(-9223372036854775808), int64(3), int64(3), int64(-9223372036854775808), uint8(1))
	f.Fuzz(func(t *testing.T, n1, d1, n2, d2 int64, c uint8) {
		if d1 == 0 {
			d1 = 1
		}
		if d2 == 0 {
			d2 = 1
		}
		a := rat.FromFrac(n1, d1)
		b := rat.FromFrac(n2, d2)
		// a²+b² and a²−b² routinely overflow the int64 fast path,
		// exercising FromRat's big.Rat branch alongside the fast one.
		type cse struct {
			name  string
			exact rat.R
		}
		cases := []cse{
			{"a", a},
			{"b", b},
			{"a2+b2", a.Mul(a).Add(b.Mul(b))},
			{"a2-b2", a.Mul(a).Sub(b.Mul(b))},
		}
		enc := func(name string, i I, exact rat.R) {
			t.Helper()
			assertEncloses(t, name, i, exact.Rat())
		}
		for _, v := range cases {
			enc("FromRat/"+v.name, FromRat(v.exact), v.exact)
		}
		x, y := FromRat(a), FromRat(b)
		enc("Add", x.Add(y), a.Add(b))
		enc("Sub", x.Sub(y), a.Sub(b))
		enc("Neg", x.Neg(), a.Neg())
		enc("Mul", x.Mul(y), a.Mul(b))
		enc("MulPos", x.MulPos(float64(c)), a.Mul(rat.FromInt(int64(c))))
		// QuoPos by the small scalar c, then both scalar operations by a
		// wide one (d2, exact in float64 up to 2^53), as the GN2 screen
		// applies them to integer deadlines. For a positive scalar they
		// must also return exactly the bounds of the general operations
		// on the point, so switching between them never moves a decision.
		if qc := x.QuoPos(float64(c)); c > 0 {
			enc("QuoPos", qc, a.Quo(rat.FromInt(int64(c))))
		} else if qc != Whole {
			t.Fatalf("QuoPos(%d) = %+v, want Whole", c, qc)
		}
		for _, w := range []int64{int64(c), d2} {
			if w <= 0 || w > 1<<53 {
				continue
			}
			p := Point(float64(w))
			mp, qp := x.MulPos(float64(w)), x.QuoPos(float64(w))
			enc("MulPos/scalar", mp, a.Mul(rat.FromInt(w)))
			enc("QuoPos/scalar", qp, a.Quo(rat.FromInt(w)))
			if mp != x.Mul(p) || qp != x.Quo(p) {
				t.Fatalf("scalar ops by %d on %+v: MulPos %+v vs Mul %+v, QuoPos %+v vs Quo %+v",
					w, x, mp, x.Mul(p), qp, x.Quo(p))
			}
		}
		enc("Min", Min(x, y), rat.Min(a, b))
		enc("Max", Max(x, y), rat.Max(a, b))
		// Quo must be total: with b possibly zero it may degrade to
		// Whole but never panic; the exact mirror only exists for b ≠ 0.
		q := x.Quo(y)
		if b.Sign() != 0 {
			enc("Quo", q, a.Quo(b))
		} else if q != Whole {
			t.Fatalf("Quo by zero-containing interval = %+v, want Whole", q)
		}
		// The big-path value composes like any other.
		ab := cases[2].exact
		enc("big/Mul", FromRat(ab).Mul(y), ab.Mul(b))

		// Predicate soundness: a comparison decided on intervals must
		// hold exactly. (The converse — deciding every comparison — is
		// deliberately not required; straddling escalates.)
		cmp := a.Cmp(b)
		if x.AllLess(y) && cmp >= 0 {
			t.Fatalf("AllLess(%+v, %+v) but exact cmp = %d", x, y, cmp)
		}
		if x.AllGreaterEq(y) && cmp < 0 {
			t.Fatalf("AllGreaterEq(%+v, %+v) but exact cmp = %d", x, y, cmp)
		}
		if x.AllGreater(y) && cmp <= 0 {
			t.Fatalf("AllGreater(%+v, %+v) but exact cmp = %d", x, y, cmp)
		}
		if x.AllLessEq(y) && cmp > 0 {
			t.Fatalf("AllLessEq(%+v, %+v) but exact cmp = %d", x, y, cmp)
		}
		if s, certain := x.Sign(); certain && s != a.Sign() {
			t.Fatalf("Sign(%+v) = %d certain, exact sign %d", x, s, a.Sign())
		}

		// Accumulator: interleaved Add/AddScaled over the case values
		// mirrors an exact big.Rat sum.
		var fa Acc
		exactSum := new(big.Rat)
		scale := new(big.Rat).SetInt64(int64(c))
		for i, v := range cases {
			if i%2 == 0 {
				fa.Add(FromRat(v.exact))
				exactSum.Add(exactSum, v.exact.Rat())
			} else {
				fa.AddScaled(float64(c), FromRat(v.exact))
				exactSum.Add(exactSum, new(big.Rat).Mul(scale, v.exact.Rat()))
			}
		}
		assertEncloses(t, "Acc", fa.I(), exactSum)
	})
}
