// Package rat provides the exact fast-path rational arithmetic behind
// the analysis core. R is a value-type rational with an int64
// numerator/denominator fast path and a lossless fallback to
// math/big.Rat on overflow, so every operation is exact regardless of
// magnitude: the fast path is a performance optimisation, never an
// approximation. Acc is its companion sum accumulator, which keeps an
// exact running total in reusable big.Int scratch once the int64 range
// is exhausted — the O(N)-term interference sums of GN1/GN2 stay
// allocation-free in steady state even though their exact common
// denominators grow far beyond 64 bits.
//
// Exactness invariant: for every sequence of operations, the value of
// the result equals the value big.Rat arithmetic would produce, and
// RatString renders it identically (lowest terms, positive
// denominator). The invariant is what lets internal/core's fast path
// produce bit-for-bit the same verdicts and certificates as the
// big.Rat reference implementation (internal/core/bigref); it is
// enforced by the package's fuzz target and by core's differential
// suite.
package rat

import (
	"math/big"
	"math/bits"
	"strconv"
)

// R is an immutable exact rational value. The zero value is 0. R is a
// small struct intended to be passed and returned by value; operations
// on in-range values perform no heap allocation. When an operation
// would overflow int64, the result is computed in big.Rat arithmetic
// and carried by pointer — and demoted back to the fast path as soon
// as a reduced result fits, so transient overflows do not poison a
// computation chain.
//
// Fast-path invariant (b == nil): d >= 1 and gcd(|n|, d) == 1, except
// for the zero value where d == 0 is read as denominator 1.
type R struct {
	n, d int64
	b    *big.Rat // non-nil: authoritative value, fast fields unused
}

// Zero and One are the constants used by hot loops.
var (
	Zero = R{n: 0, d: 1}
	One  = R{n: 1, d: 1}
)

const minI64 = -1 << 63

// FromInt returns the rational v/1.
func FromInt(v int64) R { return R{n: v, d: 1} }

// FromFrac returns the rational n/d in lowest terms. It panics if
// d == 0.
func FromFrac(n, d int64) R {
	if d == 0 {
		panic("rat: zero denominator")
	}
	if n == minI64 || d == minI64 {
		// |MinInt64| is not representable; settle via big and demote.
		return demote(new(big.Rat).SetFrac(big.NewInt(n), big.NewInt(d)))
	}
	if d < 0 {
		n, d = -n, -d
	}
	if n == 0 {
		return Zero
	}
	g := int64(gcd64(mag(n), mag(d)))
	return R{n: n / g, d: d / g}
}

// FromBig returns an R holding exactly the value of x. The input is
// copied; later mutation of x does not affect the result.
func FromBig(x *big.Rat) R {
	if x.Num().IsInt64() && x.Denom().IsInt64() {
		// big.Rat invariant: already in lowest terms, denominator > 0.
		return R{n: x.Num().Int64(), d: x.Denom().Int64()}
	}
	return R{b: new(big.Rat).Set(x)}
}

// norm resolves the zero value's implicit denominator.
func (x R) norm() R {
	if x.b == nil && x.d == 0 {
		x.d = 1
	}
	return x
}

// IsBig reports whether the value is carried by the big.Rat fallback.
// It is a diagnostic for tests and benchmarks; values compare equal
// regardless of representation.
func (x R) IsBig() bool { return x.b != nil }

// Frac64 returns the value as an int64 numerator/denominator pair in
// lowest terms with d >= 1, reporting ok = false when the value is
// carried by the big.Rat fallback (callers then go through Rat()).
// It exists for internal/interval's certified float enclosure, which
// needs the raw components without a heap allocation.
func (x R) Frac64() (n, d int64, ok bool) {
	if x.b != nil {
		return 0, 0, false
	}
	x = x.norm()
	return x.n, x.d, true
}

// Sign returns -1, 0 or +1.
func (x R) Sign() int {
	if x.b != nil {
		return x.b.Sign()
	}
	switch {
	case x.n > 0:
		return 1
	case x.n < 0:
		return -1
	}
	return 0
}

// Cmp compares x and y, returning -1, 0 or +1. The fast path uses a
// 128-bit cross multiplication and never allocates; a big operand is
// compared in place, not copied.
func (x R) Cmp(y R) int {
	if x.b == nil && y.b == nil {
		x, y = x.norm(), y.norm()
		return cmpCross(x.n, y.d, y.n, x.d)
	}
	return x.view().Cmp(y.view())
}

// view returns the value as a big.Rat that the caller must not
// mutate: the fallback value itself, or a fresh copy of a fast-path
// value.
func (x R) view() *big.Rat {
	if x.b != nil {
		return x.b
	}
	return x.Rat()
}

// Min returns the smaller of a and b (a on ties, matching the
// reference implementation's ratMin).
func Min(a, b R) R {
	if a.Cmp(b) <= 0 {
		return a
	}
	return b
}

// Max returns the larger of a and b (a on ties).
func Max(a, b R) R {
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

// Add returns x + y.
func (x R) Add(y R) R {
	switch {
	case x.b == nil && y.b == nil:
		x, y = x.norm(), y.norm()
		if r, ok := addFast(x.n, x.d, y.n, y.d); ok {
			return r
		}
	case y.b == nil:
		y = y.norm()
		return addBigFast(x.b, y.n, y.d)
	case x.b == nil:
		x = x.norm()
		return addBigFast(y.b, x.n, x.d)
	}
	return demote(new(big.Rat).Add(x.view(), y.view()))
}

// Sub returns x − y.
func (x R) Sub(y R) R {
	if y.b == nil && y.norm().n != minI64 {
		return x.Add(R{n: -y.norm().n, d: y.norm().d})
	}
	return demote(new(big.Rat).Sub(x.view(), y.view()))
}

// addBigFast returns x + n/d for a big.Rat x and a reduced fast-path
// n/d, without big.Rat's multi-word gcd. By Knuth's reduction (TAOCP
// §4.5.1), with g1 = gcd(den(x), d) the numerator
// t = num(x)·(d/g1) + n·(den(x)/g1) shares with the denominator only
// factors of g1, so dividing by g2 = gcd(t, g1) leaves
// t/g2 over (den(x)/g1)·(d/g2) in lowest terms: two word-sized gcds
// and a few multi-word-by-word products. This keeps a maintained big
// sum (DP's US(Γ)) cheap to move by one task's term.
func addBigFast(x *big.Rat, n, d int64) R {
	var w, t, rem big.Int
	w.SetInt64(d)
	g1 := int64(gcd64(rem.Rem(x.Denom(), &w).Uint64(), uint64(d)))
	den := new(big.Int).Quo(x.Denom(), w.SetInt64(g1))
	t.Mul(x.Num(), w.SetInt64(d/g1))
	t.Add(&t, rem.Mul(den, w.SetInt64(n)))
	if t.Sign() == 0 {
		return Zero
	}
	g2 := int64(gcd64(rem.Abs(rem.Rem(&t, w.SetInt64(g1))).Uint64(), uint64(g1)))
	if g2 > 1 {
		t.Quo(&t, w.SetInt64(g2))
	}
	den.Mul(den, w.SetInt64(d/g2))
	// t/den is in lowest terms with den > 0; set it without SetFrac's
	// renormalisation. Num and Denom are references into an
	// initialised Rat, so setting them sets the value.
	z := new(big.Rat).SetInt64(1)
	z.Num().Set(&t)
	z.Denom().Set(den)
	return demote(z)
}

// Mul returns x·y.
func (x R) Mul(y R) R {
	if x.b == nil && y.b == nil {
		x, y = x.norm(), y.norm()
		if r, ok := mulFast(x.n, x.d, y.n, y.d); ok {
			return r
		}
	}
	return demote(new(big.Rat).Mul(x.Rat(), y.Rat()))
}

// Quo returns x/y. It panics if y is zero.
func (x R) Quo(y R) R {
	if y.Sign() == 0 {
		panic("rat: division by zero")
	}
	if x.b == nil && y.b == nil {
		x, y = x.norm(), y.norm()
		// x/y = (x.n·y.d)/(x.d·y.n); mulFast normalises the sign.
		if y.n != minI64 && y.d != minI64 {
			num, den := y.d, y.n
			if den < 0 {
				num, den = -num, -den
			}
			if r, ok := mulFast(x.n, x.d, num, den); ok {
				return r
			}
		}
	}
	return demote(new(big.Rat).Quo(x.Rat(), y.Rat()))
}

// Neg returns −x.
func (x R) Neg() R {
	if x.b == nil && x.n != minI64 {
		x = x.norm()
		return R{n: -x.n, d: x.d}
	}
	return demote(new(big.Rat).Neg(x.Rat()))
}

// Rat returns the value as a freshly allocated big.Rat.
func (x R) Rat() *big.Rat {
	if x.b != nil {
		return new(big.Rat).Set(x.b)
	}
	x = x.norm()
	return setReduced(new(big.Rat).SetInt64(x.n), x.d)
}

// setReduced sets z's denominator to d, where z's numerator over d is
// already in lowest terms and d > 0, without SetFrac's
// renormalisation: z is initialised, so Denom is a reference into it.
func setReduced(z *big.Rat, d int64) *big.Rat {
	if d != 1 {
		z.Denom().SetInt64(d)
	}
	return z
}

// RatString renders the value exactly as big.Rat.RatString does:
// lowest terms, "n" for integers, "n/d" otherwise.
func (x R) RatString() string {
	if x.b != nil {
		return x.b.RatString()
	}
	x = x.norm()
	if x.d == 1 {
		return strconv.FormatInt(x.n, 10)
	}
	return strconv.FormatInt(x.n, 10) + "/" + strconv.FormatInt(x.d, 10)
}

// String implements fmt.Stringer via RatString.
func (x R) String() string { return x.RatString() }

// addFast computes an/ad + bn/bd in int64 arithmetic, reporting
// whether it stayed in range. Inputs are in lowest terms with positive
// denominators.
func addFast(an, ad, bn, bd int64) (R, bool) {
	// Knuth's trick: with gcd(an,ad)=gcd(bn,bd)=1, the only common
	// factor of the cross products comes from g = gcd(ad, bd).
	g := int64(gcd64(uint64(ad), uint64(bd)))
	adg, bdg := ad/g, bd/g
	t1, ok1 := mulC(an, bdg)
	t2, ok2 := mulC(bn, adg)
	if !ok1 || !ok2 {
		return R{}, false
	}
	num, ok := addC(t1, t2)
	if !ok {
		return R{}, false
	}
	den, ok := mulC(ad, bdg)
	if !ok {
		return R{}, false
	}
	if num == 0 {
		return Zero, true
	}
	// Any residual common factor divides g.
	if g > 1 {
		if g2 := int64(gcd64(mag(num), uint64(g))); g2 > 1 {
			num /= g2
			den /= g2
		}
	}
	return R{n: num, d: den}, true
}

// mulFast computes (an/ad)·(bn/bd) in int64 arithmetic, reporting
// whether it stayed in range. ad, bd > 0; the numerators may carry the
// sign. Inputs need not be fully reduced against their own
// denominator, but the cross reduction yields a result in lowest terms
// whenever the operands are.
func mulFast(an, ad, bn, bd int64) (R, bool) {
	if an == 0 || bn == 0 {
		return Zero, true
	}
	if an == minI64 || bn == minI64 {
		return R{}, false
	}
	// Cross-reduce before multiplying: it both keeps the result in
	// lowest terms and maximises the representable range.
	if g := int64(gcd64(mag(an), uint64(bd))); g > 1 {
		an /= g
		bd /= g
	}
	if g := int64(gcd64(mag(bn), uint64(ad))); g > 1 {
		bn /= g
		ad /= g
	}
	num, ok1 := mulC(an, bn)
	den, ok2 := mulC(ad, bd)
	if !ok1 || !ok2 {
		return R{}, false
	}
	return R{n: num, d: den}, true
}

// demote returns the big.Rat value as an R, dropping back to the int64
// fast path when the reduced form fits. r must be freshly allocated
// (it is retained when out of range).
func demote(r *big.Rat) R {
	if r.Num().IsInt64() && r.Denom().IsInt64() {
		return R{n: r.Num().Int64(), d: r.Denom().Int64()}
	}
	return R{b: r}
}

// mag returns |v| as a uint64, defined for all int64 values including
// MinInt64.
func mag(v int64) uint64 {
	if v >= 0 {
		return uint64(v)
	}
	return -uint64(v)
}

// gcd64 is the Euclidean gcd on magnitudes; gcd64(0, x) = x.
func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// mulC is an overflow-checked int64 multiplication.
func mulC(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if (a == minI64 && b == -1) || (b == minI64 && a == -1) {
		return 0, false
	}
	c := a * b
	if c/b != a {
		return 0, false
	}
	return c, true
}

// addC is an overflow-checked int64 addition.
func addC(a, b int64) (int64, bool) {
	c := a + b
	if (b > 0 && c < a) || (b < 0 && c > a) {
		return 0, false
	}
	return c, true
}

// cmpCross returns the sign of a·b − c·d for b, d > 0, computed with
// 128-bit products so it is exact and allocation-free for all inputs.
func cmpCross(a, b, c, d int64) int {
	sa, sc := sign(a), sign(c)
	if sa != sc {
		if sa > sc {
			return 1
		}
		return -1
	}
	if sa == 0 {
		return 0
	}
	hi1, lo1 := bits.Mul64(mag(a), uint64(b))
	hi2, lo2 := bits.Mul64(mag(c), uint64(d))
	cmp := 0
	if hi1 != hi2 {
		if hi1 > hi2 {
			cmp = 1
		} else {
			cmp = -1
		}
	} else if lo1 != lo2 {
		if lo1 > lo2 {
			cmp = 1
		} else {
			cmp = -1
		}
	}
	return cmp * sa
}

func sign(v int64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}
