// Package interval provides the certified float64 interval arithmetic
// behind the analysis core's pre-filter ("the screen"). An I is a pair
// of float64 bounds [Lo, Hi] guaranteed to enclose one exact rational
// value; every operation widens its result outward by one unit in the
// last place per rounding step (nextafter-widening), so the enclosure
// invariant survives arbitrary chains of operations:
//
//	if x encloses a and y encloses b, then x.Op(y) encloses a op b.
//
// The discipline is deliberately simple — round-to-nearest IEEE
// arithmetic followed by an unconditional one-ulp outward step per
// operation — rather than flipping the FPU rounding mode, which Go
// gives no portable access to. Since round-to-nearest is within half
// an ulp of the true result, one nextafter step in each direction is a
// strict superset of true directed rounding. The cost is intervals
// about two ulps wider than optimal; the screen's clients only care
// that near-boundary comparisons widen into "uncertain" and escalate
// to exact arithmetic, so tightness beyond that is irrelevant.
//
// Soundness rules, enforced by the package's fuzz target
// (FuzzIntervalOps, cross-checking every operation against big.Rat):
//
//   - An interval NEVER excludes the true value. Screens may only use
//     an I to *decide* a comparison when the decision holds for every
//     point of both intervals (AllLess / AllGreaterEq / AllGreater).
//   - Undefined or overflowing float results degrade, never lie:
//     NaN from an operation, or a divisor interval containing zero,
//     yields Whole = [-Inf, +Inf], which decides nothing and therefore
//     forces escalation.
//   - No operation panics for any input, including division by an
//     interval containing zero (rat.Quo panics; interval.Quo returns
//     Whole — the screen must stay total so the exact kernel keeps
//     sole authority over errors).
//
// The conversion FromRat is certified the same way: int64 components
// below 2^53 convert exactly into float64, whose quotient is correctly
// rounded and then widened; anything larger goes through
// big.Rat.Float64 (also correctly rounded, with an exactness report)
// and is widened unless exact. Infinite Float64 results clamp to
// [MaxFloat64, +Inf] (or mirrored), which still encloses.
package interval

import (
	"math"

	"fpgasched/internal/rat"
)

// I is a closed interval [Lo, Hi] of float64 bounds certified to
// contain one exact rational value. The zero value is the exact point
// 0. Bounds may be ±Inf (half-bounded or unbounded enclosures) but are
// never NaN: operations that would produce NaN return Whole instead.
type I struct {
	Lo, Hi float64
}

// Whole is the unbounded interval [-Inf, +Inf]: it encloses everything
// and decides nothing, so screens fall through to exact arithmetic.
var Whole = I{math.Inf(-1), math.Inf(1)}

// Point returns the degenerate interval [v, v]. The caller asserts v
// is the exact value (e.g. a small integer); no widening is applied.
func Point(v float64) I { return I{v, v} }

// exactInt is the largest magnitude for which every int64 converts to
// float64 without rounding (2^53).
const exactInt = 1 << 53

// FromInt returns an interval enclosing the integer v: the exact point
// for |v| <= 2^53, a one-ulp-widened enclosure beyond.
func FromInt(v int64) I {
	f := float64(v)
	if v <= exactInt && v >= -exactInt {
		return I{f, f}
	}
	return I{dn(f), up(f)}
}

// FromFrac returns an interval enclosing the rational n/d, d != 0.
func FromFrac(n, d int64) I {
	if d == 0 {
		return Whole
	}
	if d < 0 {
		// Avoid negating MinInt64; fall back to the wide path.
		if n == math.MinInt64 || d == math.MinInt64 {
			return fromBigParts(n, d)
		}
		n, d = -n, -d
	}
	if d == 1 {
		return FromInt(n)
	}
	if n < exactInt && n > -exactInt && d < exactInt {
		// Both operands exact in float64, so the quotient is correctly
		// rounded: within half an ulp of the true value. One nextafter
		// step each way is then a certified enclosure.
		q := float64(n) / float64(d)
		return I{dn(q), up(q)}
	}
	return fromBigParts(n, d)
}

// FromRat returns an interval certified to enclose the exact rational
// x, regardless of magnitude or representation (int64 fast path or
// big.Rat fallback).
func FromRat(x rat.R) I {
	if n, d, ok := x.Frac64(); ok {
		return FromFrac(n, d)
	}
	f, exact := x.Rat().Float64()
	return encloseRounded(f, exact)
}

// fromBigParts handles n/d with components outside the exact float64
// range via big.Rat's correctly rounded Float64.
func fromBigParts(n, d int64) I {
	f, exact := rat.FromFrac(n, d).Rat().Float64()
	return encloseRounded(f, exact)
}

// encloseRounded builds the enclosure of a value known to be the
// correctly rounded (nearest) float64 of the true value.
func encloseRounded(f float64, exact bool) I {
	if math.IsInf(f, 1) {
		// Too large to represent: everything above the largest finite
		// float64 (Float64 only overflows, it never rounds a finite
		// value to Inf from below MaxFloat64... conservatively keep
		// MaxFloat64 as the finite bound).
		return I{math.MaxFloat64, math.Inf(1)}
	}
	if math.IsInf(f, -1) {
		return I{math.Inf(-1), -math.MaxFloat64}
	}
	if exact {
		return I{f, f}
	}
	return I{dn(f), up(f)}
}

// fix restores the no-NaN invariant after an operation: any NaN bound
// degrades the whole interval to Whole (sound: it encloses everything).
func fix(lo, hi float64) I {
	if lo != lo || hi != hi {
		return Whole
	}
	return I{lo, hi}
}

// Add returns an enclosure of x + y.
func (x I) Add(y I) I { return fix(dn(x.Lo+y.Lo), up(x.Hi+y.Hi)) }

// Sub returns an enclosure of x − y.
func (x I) Sub(y I) I { return fix(dn(x.Lo-y.Hi), up(x.Hi-y.Lo)) }

// Neg returns an enclosure of −x (exact: negation never rounds).
func (x I) Neg() I { return I{-x.Hi, -x.Lo} }

// Mul returns an enclosure of x·y.
func (x I) Mul(y I) I {
	// All four bound products; NaN (0·Inf) degrades via fix.
	p1 := x.Lo * y.Lo
	p2 := x.Lo * y.Hi
	p3 := x.Hi * y.Lo
	p4 := x.Hi * y.Hi
	lo := min4(p1, p2, p3, p4)
	hi := max4(p1, p2, p3, p4)
	return fix(dn(lo), up(hi))
}

// MulPos returns an enclosure of c·x for an exact scalar c >= 0 (e.g.
// an integer task area): two products instead of four.
func (x I) MulPos(c float64) I {
	return fix(dn(c*x.Lo), up(c*x.Hi))
}

// Quo returns an enclosure of x / y. A divisor interval containing
// zero (including the exact rational zero) yields Whole rather than a
// panic: the screen stays total and the exact kernel keeps authority
// over division errors.
func (x I) Quo(y I) I {
	if y.Lo <= 0 && y.Hi >= 0 {
		return Whole
	}
	q1 := x.Lo / y.Lo
	q2 := x.Lo / y.Hi
	q3 := x.Hi / y.Lo
	q4 := x.Hi / y.Hi
	lo := min4(q1, q2, q3, q4)
	hi := max4(q1, q2, q3, q4)
	return fix(dn(lo), up(hi))
}

// QuoPos returns an enclosure of x / c for an exact scalar c > 0 (e.g.
// an integer deadline): two quotients instead of four. Any other c
// yields Whole, as Quo does for a divisor containing zero.
func (x I) QuoPos(c float64) I {
	if !(c > 0) {
		return Whole
	}
	return fix(dn(x.Lo/c), up(x.Hi/c))
}

// Min returns an enclosure of min(a, b): the pointwise minimum of the
// bounds, which is exact (no rounding, no widening needed). The direct
// comparisons (rather than math.Min) rely on the package invariant that
// bounds are never NaN; they inline into the kernels' screen loops.
func Min(a, b I) I {
	lo, hi := a.Lo, a.Hi
	if b.Lo < lo {
		lo = b.Lo
	}
	if b.Hi < hi {
		hi = b.Hi
	}
	return I{lo, hi}
}

// Hull returns the smallest interval containing both x and y — the
// interval join. It widens nothing: the bounds are copied, so Hull of
// two enclosures encloses every value either of them encloses. The
// kernels' range screen uses it to bound a quantity over a whole
// candidate range (e.g. every β case a range can select) with one
// interval.
func Hull(x, y I) I {
	lo, hi := x.Lo, x.Hi
	if y.Lo < lo {
		lo = y.Lo
	}
	if y.Hi > hi {
		hi = y.Hi
	}
	return I{lo, hi}
}

// Max returns an enclosure of max(a, b).
func Max(a, b I) I {
	lo, hi := a.Lo, a.Hi
	if b.Lo > lo {
		lo = b.Lo
	}
	if b.Hi > hi {
		hi = b.Hi
	}
	return I{lo, hi}
}

// AllLess reports that every point of x is strictly below every point
// of y — the certified form of "LHS < RHS holds".
func (x I) AllLess(y I) bool { return x.Hi < y.Lo }

// AllGreaterEq reports that every point of x is >= every point of y —
// the certified form of "LHS < RHS fails".
func (x I) AllGreaterEq(y I) bool { return x.Lo >= y.Hi }

// AllGreater reports that every point of x is strictly above every
// point of y — the certified form of "LHS <= RHS fails".
func (x I) AllGreater(y I) bool { return x.Lo > y.Hi }

// AllLessEq reports that every point of x is <= every point of y —
// the certified form of "LHS <= RHS holds".
func (x I) AllLessEq(y I) bool { return x.Hi <= y.Lo }

// Sign classifies the enclosed value's sign when certain: it returns
// (-1, true) when the whole interval is negative, (+1, true) when it
// is positive, (0, true) for the exact point zero, and (0, false) when
// the interval straddles zero.
func (x I) Sign() (int, bool) {
	switch {
	case x.Hi < 0:
		return -1, true
	case x.Lo > 0:
		return 1, true
	case x.Lo == 0 && x.Hi == 0:
		return 0, true
	}
	return 0, false
}

// minSubnormal is the smallest positive float64 (nextafter(0, +Inf));
// posInf/negInf avoid math.Inf's branch inside the inlined steppers.
var (
	minSubnormal = math.Float64frombits(1)
	posInf       = math.Inf(1)
	negInf       = math.Inf(-1)
)

// up returns math.Nextafter(v, +Inf), specialised so it inlines into
// the kernels' screen loops (Nextafter itself is too branchy for the
// inliner and showed up as ~25% of the screened GN2 sweep). Semantics
// are identical to Nextafter's, including the load-bearing infinity
// cases: up(+Inf) = +Inf, up(MaxFloat64) = +Inf (the bit increment
// lands on the infinity pattern), and up(-Inf) = -MaxFloat64 — the
// latter is how an upper bound that overflowed to -Inf (true value
// below -MaxFloat64) clamps back to a finite, still enclosing, bound.
// NaN propagates (fix degrades it to Whole).
func up(v float64) float64 {
	if v != v || v == posInf {
		return v
	}
	if v == 0 {
		return minSubnormal
	}
	b := math.Float64bits(v)
	if v > 0 {
		b++
	} else {
		b--
	}
	return math.Float64frombits(b)
}

// dn is the downward mirror of up: dn(-Inf) = -Inf, dn(+Inf) =
// +MaxFloat64 (a lower bound that overflowed to +Inf clamps back).
func dn(v float64) float64 {
	if v != v || v == negInf {
		return v
	}
	if v == 0 {
		return -minSubnormal
	}
	b := math.Float64bits(v)
	if v > 0 {
		b--
	} else {
		b++
	}
	return math.Float64frombits(b)
}

func min4(a, b, c, d float64) float64 {
	return math.Min(math.Min(a, b), math.Min(c, d))
}

func max4(a, b, c, d float64) float64 {
	return math.Max(math.Max(a, b), math.Max(c, d))
}
