package rat

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
)

// bigOf is the reference view of an R for differential checks.
func bigOf(x R) *big.Rat { return x.Rat() }

func checkEqual(t *testing.T, got R, want *big.Rat, op string) {
	t.Helper()
	if got.Rat().Cmp(want) != 0 {
		t.Fatalf("%s: got %s, want %s", op, got.RatString(), want.RatString())
	}
	if got.RatString() != want.RatString() {
		t.Fatalf("%s: RatString %q != big %q", op, got.RatString(), want.RatString())
	}
}

func TestZeroValueIsZero(t *testing.T) {
	var z R
	if z.Sign() != 0 || z.RatString() != "0" {
		t.Fatalf("zero value: sign=%d str=%q", z.Sign(), z.RatString())
	}
	if got := z.Add(One); got.Cmp(One) != 0 {
		t.Fatalf("0+1 = %s", got.RatString())
	}
	if got := One.Mul(z); got.Sign() != 0 {
		t.Fatalf("1·0 = %s", got.RatString())
	}
	var acc Acc
	if acc.Sign() != 0 || acc.Rat().Sign() != 0 {
		t.Fatal("zero-value Acc not 0")
	}
	acc.Add(One)
	if acc.Cmp(One) != 0 {
		t.Fatalf("zero-value Acc + 1 = %s", acc.Rat().RatString())
	}
}

func TestNormalisationAndRatString(t *testing.T) {
	cases := []struct {
		n, d int64
		want string
	}{
		{6, 4, "3/2"},
		{-6, 4, "-3/2"},
		{6, -4, "-3/2"},
		{-6, -4, "3/2"},
		{0, 5, "0"},
		{7, 1, "7"},
		{7, 7, "1"},
		{math.MaxInt64, math.MaxInt64, "1"},
		{math.MinInt64, math.MinInt64, "1"},
		{math.MinInt64, 1, "-9223372036854775808"},
		{1, math.MaxInt64, "1/9223372036854775807"},
	}
	for _, c := range cases {
		got := FromFrac(c.n, c.d)
		want := new(big.Rat).SetFrac(big.NewInt(c.n), big.NewInt(c.d))
		checkEqual(t, got, want, "FromFrac")
		if got.RatString() != c.want {
			t.Errorf("FromFrac(%d,%d) = %q, want %q", c.n, c.d, got.RatString(), c.want)
		}
	}
}

func TestOverflowFallbackIsLossless(t *testing.T) {
	// (2^62/3) · (2^62/5): the product overflows int64 on both sides,
	// so the result must arrive via big.Rat, exactly.
	a := FromFrac(1<<62, 3)
	b := FromFrac(1<<62, 5)
	got := a.Mul(b)
	want := new(big.Rat).Mul(bigOf(a), bigOf(b))
	checkEqual(t, got, want, "overflow mul")
	if !got.IsBig() {
		t.Error("expected big fallback representation")
	}
	// Chains continue exactly through the fallback...
	back := got.Quo(b)
	checkEqual(t, back, bigOf(a), "quo back")
	// ...and demote to the fast path when the value fits again.
	if back.IsBig() {
		t.Error("expected demotion to fast path after division")
	}
	// Add overflow: two maximal same-sign values.
	c := FromInt(math.MaxInt64)
	sum := c.Add(c)
	wantSum := new(big.Rat).Add(bigOf(c), bigOf(c))
	checkEqual(t, sum, wantSum, "overflow add")
}

func TestMinMaxTieKeepsFirst(t *testing.T) {
	a, b := FromFrac(1, 2), FromFrac(2, 4)
	if Min(a, b) != a.norm() && Min(a, b).Cmp(a) != 0 {
		t.Error("Min tie must keep first argument's value")
	}
	if Max(a, b).Cmp(a) != 0 {
		t.Error("Max tie mismatch")
	}
	lo, hi := FromFrac(1, 3), FromFrac(1, 2)
	if Min(lo, hi).Cmp(lo) != 0 || Max(lo, hi).Cmp(hi) != 0 {
		t.Error("Min/Max ordering wrong")
	}
}

// TestOpsMatchBigRatRandom drives random in-range and out-of-range
// operand mixes through every operation and checks each result — value
// and rendered string — against big.Rat.
func TestOpsMatchBigRatRandom(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	draw := func() R {
		switch r.IntN(4) {
		case 0: // small
			return FromFrac(r.Int64N(2000)-1000, 1+r.Int64N(50))
		case 1: // tick-scale, like analysis inputs
			return FromFrac(r.Int64N(400000)-200000, 1+r.Int64N(200000))
		case 2: // huge, near the overflow edge
			return FromFrac(r.Int64N(math.MaxInt64), 1+r.Int64N(math.MaxInt64))
		default: // already big
			x := new(big.Rat).SetFrac64(r.Int64N(math.MaxInt64), 1+r.Int64N(1<<40))
			x.Mul(x, x)
			return FromBig(x)
		}
	}
	for i := 0; i < 20000; i++ {
		a, b := draw(), draw()
		ab, bb := bigOf(a), bigOf(b)
		checkEqual(t, a.Add(b), new(big.Rat).Add(ab, bb), "Add")
		checkEqual(t, a.Sub(b), new(big.Rat).Sub(ab, bb), "Sub")
		checkEqual(t, a.Mul(b), new(big.Rat).Mul(ab, bb), "Mul")
		if b.Sign() != 0 {
			checkEqual(t, a.Quo(b), new(big.Rat).Quo(ab, bb), "Quo")
		}
		checkEqual(t, a.Neg(), new(big.Rat).Neg(ab), "Neg")
		if got, want := a.Cmp(b), ab.Cmp(bb); got != want {
			t.Fatalf("Cmp(%s, %s) = %d, want %d", a, b, got, want)
		}
		if got, want := a.Sign(), ab.Sign(); got != want {
			t.Fatalf("Sign(%s) = %d, want %d", a, got, want)
		}
	}
}

// TestAccMatchesBigRat accumulates random sequences — long enough that
// the exact common denominator always leaves int64 range — and checks
// the running sum, comparisons, and final reduced extraction.
func TestAccMatchesBigRat(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 5))
	var acc Acc
	for trial := 0; trial < 200; trial++ {
		acc.Reset()
		want := new(big.Rat)
		n := 1 + r.IntN(120)
		for i := 0; i < n; i++ {
			var x R
			if r.IntN(8) == 0 { // occasionally a big-fallback operand
				b := new(big.Rat).SetFrac64(1+r.Int64N(math.MaxInt64/2), 1+r.Int64N(math.MaxInt64/2))
				b.Mul(b, b)
				x = FromBig(b)
			} else {
				x = FromFrac(r.Int64N(400000)-200000, 1+r.Int64N(200000))
			}
			acc.Add(x)
			want.Add(want, bigOf(x))
			probe := FromFrac(r.Int64N(1000)-500, 1+r.Int64N(100))
			if got, exp := acc.Cmp(probe), want.Cmp(bigOf(probe)); got != exp {
				t.Fatalf("trial %d step %d: Acc.Cmp = %d, want %d", trial, i, got, exp)
			}
		}
		if acc.Rat().Cmp(want) != 0 {
			t.Fatalf("trial %d: Acc sum %s, want %s", trial, acc.Rat().RatString(), want.RatString())
		}
		if acc.Rat().RatString() != want.RatString() {
			t.Fatalf("trial %d: Acc RatString %q, want %q", trial, acc.Rat().RatString(), want.RatString())
		}
		if got, exp := acc.Sign(), want.Sign(); got != exp {
			t.Fatalf("trial %d: Acc.Sign = %d, want %d", trial, got, exp)
		}
		if acc.R().Rat().Cmp(want) != 0 {
			t.Fatalf("trial %d: Acc.R mismatch", trial)
		}
	}
}

// TestAccSteadyStateDoesNotAllocate pins the accumulator's core
// promise: once scratch capacity is established, a reset-accumulate
// cycle performs no heap allocations.
func TestAccSteadyStateDoesNotAllocate(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 2))
	terms := make([]R, 64)
	for i := range terms {
		terms[i] = FromFrac(1+r.Int64N(400000), 1+r.Int64N(200000))
	}
	var acc Acc
	cycle := func() {
		acc.Reset()
		for _, x := range terms {
			acc.Add(x)
		}
		if acc.Cmp(One) < 0 {
			t.Fatal("sum of positives below one")
		}
	}
	cycle() // warm the scratch
	cycle()
	if avg := testing.AllocsPerRun(20, cycle); avg > 0.5 {
		t.Errorf("steady-state accumulate allocates %.1f times per cycle, want 0", avg)
	}
}

// FuzzRatOps cross-checks every R operation against big.Rat on
// arbitrary operands, including the overflow frontier the generators
// above only sample.
func FuzzRatOps(f *testing.F) {
	f.Add(int64(1), int64(2), int64(3), int64(4))
	f.Add(int64(-6), int64(4), int64(6), int64(-4))
	f.Add(int64(math.MaxInt64), int64(3), int64(math.MaxInt64-1), int64(5))
	f.Add(int64(math.MinInt64), int64(1), int64(1), int64(math.MaxInt64))
	f.Add(int64(1)<<62, int64(3), int64(1)<<62, int64(5))
	f.Add(int64(0), int64(1), int64(math.MinInt64), int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, an, ad, bn, bd int64) {
		if ad == 0 || bd == 0 {
			t.Skip()
		}
		a, b := FromFrac(an, ad), FromFrac(bn, bd)
		ab := new(big.Rat).SetFrac(big.NewInt(an), big.NewInt(ad))
		bb := new(big.Rat).SetFrac(big.NewInt(bn), big.NewInt(bd))
		if a.RatString() != ab.RatString() || b.RatString() != bb.RatString() {
			t.Fatalf("FromFrac mismatch: %s vs %s, %s vs %s", a, ab.RatString(), b, bb.RatString())
		}
		checkEqual(t, a.Add(b), new(big.Rat).Add(ab, bb), "Add")
		checkEqual(t, a.Sub(b), new(big.Rat).Sub(ab, bb), "Sub")
		checkEqual(t, a.Mul(b), new(big.Rat).Mul(ab, bb), "Mul")
		if bb.Sign() != 0 {
			checkEqual(t, a.Quo(b), new(big.Rat).Quo(ab, bb), "Quo")
		}
		checkEqual(t, a.Neg(), new(big.Rat).Neg(ab), "Neg")
		if a.Cmp(b) != ab.Cmp(bb) {
			t.Fatalf("Cmp mismatch for %s, %s", a, b)
		}
		// A big operand against a fast-path one: a³ scaled past int64,
		// its denominator sharing factors with b's.
		hb := new(big.Rat).Mul(ab, ab)
		hb.Mul(hb, ab)
		hb.Mul(hb, new(big.Rat).SetFrac(new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(1)), new(big.Int).Exp(big.NewInt(6), big.NewInt(30), nil)))
		h := FromBig(hb)
		checkEqual(t, h.Add(b), new(big.Rat).Add(hb, bb), "Add big")
		checkEqual(t, b.Add(h), new(big.Rat).Add(bb, hb), "Add big")
		checkEqual(t, h.Sub(b), new(big.Rat).Sub(hb, bb), "Sub big")
		checkEqual(t, b.Sub(h), new(big.Rat).Sub(bb, hb), "Sub big")
		checkEqual(t, h.Sub(h), new(big.Rat), "Sub big")
		if h.Cmp(b) != hb.Cmp(bb) || b.Cmp(h) != bb.Cmp(hb) {
			t.Fatalf("Cmp mismatch for %s, %s", h, b)
		}
		var acc Acc
		acc.Add(a)
		acc.Add(b)
		acc.Add(a)
		want := new(big.Rat).Add(ab, bb)
		want.Add(want, ab)
		if acc.Rat().RatString() != want.RatString() {
			t.Fatalf("Acc mismatch: %s vs %s", acc.Rat().RatString(), want.RatString())
		}
		if acc.Cmp(b) != want.Cmp(bb) {
			t.Fatal("Acc.Cmp mismatch")
		}
	})
}

// BenchmarkRatOps measures the fast-path mul/min/add/cmp mix the GN2
// inner loop performs per term (the long sums themselves go through
// Acc; see BenchmarkRatAccumulate).
func BenchmarkRatOps(b *testing.B) {
	vals := benchOperands()
	seven := FromInt(7)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for j := 0; j+1 < len(vals); j++ {
			term := vals[j].Mul(seven)
			capped := Min(term, One)
			s := vals[j].Add(vals[j+1])
			sink += s.Cmp(capped)
		}
	}
	_ = sink
}

// BenchmarkRatOpsBig is the same op mix in direct big.Rat arithmetic,
// the pre-refactor baseline.
func BenchmarkRatOpsBig(b *testing.B) {
	vals := benchOperands()
	bigs := make([]*big.Rat, len(vals))
	for i, v := range vals {
		bigs[i] = v.Rat()
	}
	one := big.NewRat(1, 1)
	seven := new(big.Rat).SetInt64(7)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for j := 0; j+1 < len(bigs); j++ {
			term := new(big.Rat).Mul(bigs[j], seven)
			if term.Cmp(one) > 0 {
				term = one
			}
			s := new(big.Rat).Add(bigs[j], bigs[j+1])
			sink += s.Cmp(term)
		}
	}
	_ = sink
}

// BenchmarkRatAccumulateBig is the pre-refactor baseline for the
// 100-term sum: a reduced big.Rat running total.
func BenchmarkRatAccumulateBig(b *testing.B) {
	vals := benchOperands()
	bigs := make([]*big.Rat, len(vals))
	for i, v := range vals {
		bigs[i] = v.Rat()
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sum := new(big.Rat)
		for _, v := range bigs {
			sum.Add(sum, v)
		}
		sink += sum.Sign()
	}
	_ = sink
}

// BenchmarkRatAccumulate measures the spilled accumulator on a
// 100-term sum whose exact denominator exceeds int64.
func BenchmarkRatAccumulate(b *testing.B) {
	vals := benchOperands()
	var acc Acc
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		acc.Reset()
		for _, v := range vals {
			acc.Add(v)
		}
		sink += acc.Sign()
	}
	_ = sink
}

func benchOperands() []R {
	r := rand.New(rand.NewPCG(42, 17))
	vals := make([]R, 100)
	for i := range vals {
		// Tick-scale rationals, the analysis core's operand profile.
		vals[i] = FromFrac(1+r.Int64N(200000), 50000+r.Int64N(150000))
	}
	return vals
}
