package stats

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestWelfordMatchesBatch: the accumulator (which replaced the Welford
// accumulator the test is named for) must agree with the batch
// functions on the same data, for sizes spanning the degenerate cases
// (empty, single) through a large sample; the extremes exactly.
func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 10, 1000} {
		xs := make([]float64, n)
		var a Acc
		for i := range xs {
			xs[i] = rng.NormFloat64()*3 + 10
			a.Add(xs[i])
		}
		if a.N() != n {
			t.Fatalf("n=%d: N() = %d", n, a.N())
		}
		if a.Min() != Min(xs) || a.Max() != Max(xs) {
			t.Fatalf("n=%d: range [%v, %v], batch [%v, %v]", n, a.Min(), a.Max(), Min(xs), Max(xs))
		}
		checks := []struct {
			name      string
			got, want float64
		}{
			{"mean", a.Mean(), Mean(xs)},
			{"std", a.Std(), StdDev(xs)},
			{"ci95", a.CI95(), CI95(xs)},
		}
		for _, c := range checks {
			if math.IsNaN(c.got) {
				t.Fatalf("n=%d: %s is NaN", n, c.name)
			}
			if math.Abs(c.got-c.want) > 1e-9*(1+math.Abs(c.want)) {
				t.Errorf("n=%d: %s = %v, batch %v", n, c.name, c.got, c.want)
			}
		}
	}
}

// TestQuantileBatch pins the batch quantile's interpolation and its
// degenerate-input behaviour.
func TestQuantileBatch(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{42}, 0, 42},
		{[]float64{42}, 1, 42},
		{[]float64{1, 3}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3}, -0.5, 1}, // p clamps to [0,1]
		{[]float64{1, 2, 3}, 1.5, 3},
		{[]float64{1, 2, 3}, math.NaN(), 1},
	}
	for _, c := range cases {
		if got := Quantile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 {
		t.Fatal("Quantile sorted the caller's slice")
	}
}

// randomSequence draws n values with zeros, negatives, duplicates,
// small integers (which sit on bucket edges) and magnitudes spanning 41
// binary octaves, 2⁻²¹ to 2²⁰.
func randomSequence(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, 0, n)
	for len(xs) < n {
		var x float64
		switch r := rng.Intn(10); {
		case r == 0:
			x = 0
		case r == 1 && len(xs) > 0:
			x = xs[rng.Intn(len(xs))]
		case r == 2:
			x = float64(rng.Intn(64))
		default:
			x = math.Ldexp(0.5+rng.Float64()/2, rng.Intn(41)-20)
		}
		if rng.Intn(3) == 0 {
			x = -x
		}
		xs = append(xs, x)
	}
	return xs
}

// readouts is everything a fleet or backend distribution reads from an
// Acc, as raw bits.
func readouts(a *Acc) [9]uint64 {
	var r [9]uint64
	for i, v := range []float64{float64(a.N()), a.Mean(), a.Std(), a.CI95(), a.Min(), a.Max(),
		a.Quantile(0.50), a.Quantile(0.95), a.Quantile(0.99)} {
		r[i] = math.Float64bits(v)
	}
	return r
}

// TestAccMergeMatchesSequentialFold is the exact-merge property: a
// random sequence cut into a random partition, each part folded on its
// own and the parts merged in a random order, reads back bit for bit
// what one sequential fold does.
func TestAccMergeMatchesSequentialFold(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		xs := randomSequence(rng, rng.Intn(400))
		var want Acc
		for _, x := range xs {
			want.Add(x)
		}
		parts := make([]*Acc, 1+rng.Intn(12))
		for i := range parts {
			parts[i] = new(Acc)
		}
		for _, x := range xs {
			parts[rng.Intn(len(parts))].Add(x)
		}
		// Merge random pairs until one part is left: any tree, any order.
		for len(parts) > 1 {
			i, j := rng.Intn(len(parts)), rng.Intn(len(parts)-1)
			if j >= i {
				j++
			}
			parts[i].Merge(parts[j])
			parts = append(parts[:j], parts[j+1:]...)
		}
		got := parts[0]
		if readouts(got) != readouts(&want) {
			t.Fatalf("trial %d (%d values): merged readouts %v, sequential %v", trial, len(xs), readouts(got), readouts(&want))
		}
		if len(xs) > 0 && !(got.Min() <= got.Quantile(0.5) && got.Quantile(0.5) <= got.Max()) {
			t.Fatalf("trial %d: P50 %v outside [%v, %v]", trial, got.Quantile(0.5), got.Min(), got.Max())
		}
	}
}

// exactSum is Σxs in math/big, rounded to the nearest float64, ties to
// even.
func exactSum(xs []float64) float64 {
	s := new(big.Float).SetPrec(4096)
	for _, x := range xs {
		s.Add(s, new(big.Float).SetFloat64(x))
	}
	f, _ := s.Float64()
	return f
}

// TestAccSumIsExact: Σx reads back as the exact sum rounded once, for
// random sequences and for one built to cancel catastrophically.
func TestAccSumIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seqs := [][]float64{{1e16, 1, -1e16}, {0.1, 0.2, 0.3, -0.6}}
	for i := 0; i < 200; i++ {
		seqs = append(seqs, randomSequence(rng, rng.Intn(500)))
	}
	for _, xs := range seqs {
		var a Acc
		for _, x := range xs {
			a.Add(x)
		}
		if got, want := a.sum.round(), exactSum(xs); got != want {
			t.Fatalf("Σx of %d values = %v, exact %v", len(xs), got, want)
		}
	}
}

// TestExpansionStaysBoundedAndExact drives an expansion past maxParts
// components with powers of two 60 octaves apart, which no two-sum can
// join, and checks that canonicalizing keeps the sum exact.
func TestExpansionStaysBoundedAndExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var xs []float64
	for e := -1020; e <= 1000; e += 60 {
		xs = append(xs, math.Ldexp(1, e), math.Ldexp(1.5, e+30))
	}
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	var e expansion
	most := 0
	for i, x := range xs {
		e.add(x)
		most = max(most, e.n)
		if got, want := e.round(), exactSum(xs[:i+1]); got != want {
			t.Fatalf("after %d adds: sum %v, exact %v", i+1, got, want)
		}
	}
	if most < maxParts-1 {
		t.Fatalf("expansion peaked at %d components; the test never reached the bound", most)
	}
	for _, x := range xs {
		e.add(-x)
	}
	if e.n != 0 || e.round() != 0 {
		t.Fatalf("x − x left %d components summing to %v", e.n, e.round())
	}
}

// checkQuantilesWithinBound folds xs into an Acc and checks that every
// quantile lies within 2⁻⁷·max(|x₍⌊r⌋₎|, |x₍⌈r⌉₎|) of the exact R-7
// quantile.
func checkQuantilesWithinBound(t *testing.T, name string, xs []float64) {
	t.Helper()
	var a Acc
	for _, x := range xs {
		a.Add(x)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []float64{0, 0.01, 0.25, 0.5, 0.95, 0.99, 1} {
		r := p * float64(len(s)-1)
		bound := math.Ldexp(max(math.Abs(s[int(math.Floor(r))]), math.Abs(s[int(math.Ceil(r))])), -7)
		got, want := a.Quantile(p), Quantile(xs, p)
		if math.Abs(got-want) > bound {
			t.Errorf("%s p=%v: %v vs exact %v, off by %v > bound %v", name, p, got, want, math.Abs(got-want), bound)
		}
	}
}

// TestAccQuantilesWithinBound: the quantile bound holds on random
// sequences with zeros, negatives, duplicates and 41 octaves.
func TestAccQuantilesWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		checkQuantilesWithinBound(t, fmt.Sprintf("random %d", i), randomSequence(rng, 1+rng.Intn(2000)))
	}
}

// TestP2ConvergesToBatchQuantile: on large iid samples the quantiles
// stay within the bound of the exact batch quantile. (The name is the
// P² estimator's, which Acc replaced.)
func TestP2ConvergesToBatchQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, d := range []struct {
		name string
		draw func() float64
	}{
		{"uniform", func() float64 { return rng.Float64() * 100 }},
		{"normal", func() float64 { return rng.NormFloat64()*5 + 50 }},
		{"exponential", func() float64 { return rng.ExpFloat64() * 10 }},
	} {
		xs := make([]float64, 20000)
		for i := range xs {
			xs[i] = d.draw()
		}
		checkQuantilesWithinBound(t, d.name, xs)
	}
}

// TestP2SortedInput: monotone input, the classic stress case for
// streaming quantile estimators, stays within the bound.
func TestP2SortedInput(t *testing.T) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(i)
	}
	checkQuantilesWithinBound(t, "sorted", xs)
}

// TestP2ExtremesAreExact: Min and Max are the exact extremes, also when
// a merge brings them in from the other side, and quantiles 0 and 1
// never leave them.
func TestP2ExtremesAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	// split folds the negative values into one accumulator and the rest
	// into the other, so each holds one of the extremes.
	split := func() (neg, pos *Acc) {
		neg, pos = new(Acc), new(Acc)
		for _, x := range xs {
			if x < 0 {
				neg.Add(x)
			} else {
				pos.Add(x)
			}
		}
		return neg, pos
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	neg, pos := split()
	neg.Merge(pos)
	neg2, pos2 := split()
	pos2.Merge(neg2)
	for name, a := range map[string]*Acc{"negatives ← positives": neg, "positives ← negatives": pos2} {
		if a.Min() != s[0] || a.Max() != s[len(s)-1] {
			t.Errorf("%s: range [%v, %v], want [%v, %v]", name, a.Min(), a.Max(), s[0], s[len(s)-1])
		}
		if q0, q1 := a.Quantile(0), a.Quantile(1); q0 < a.Min() || q1 > a.Max() {
			t.Errorf("%s: quantiles 0 and 1 are %v and %v, outside [%v, %v]", name, q0, q1, a.Min(), a.Max())
		}
	}
}

// TestAccConstantHasZeroStd: a constant sequence has Std, CI95 exactly
// 0 and every quantile equal to the constant, however inexact the value.
func TestAccConstantHasZeroStd(t *testing.T) {
	for _, c := range []float64{0.1, -3.7, 1e-9, 12345.678, 0} {
		var a Acc
		for i := 0; i < 1001; i++ {
			a.Add(c)
		}
		if a.Std() != 0 || a.CI95() != 0 {
			t.Errorf("constant %v: Std %v, CI95 %v, want exactly 0", c, a.Std(), a.CI95())
		}
		for _, p := range []float64{0.5, 0.95, 0.99} {
			if q := a.Quantile(p); q != c {
				t.Errorf("constant %v: quantile %v = %v", c, p, q)
			}
		}
	}
}

// TestAccAddAllocatesNothing: once the bucket range covers the values,
// Add allocates nothing.
func TestAccAddAllocatesNothing(t *testing.T) {
	xs := randomSequence(rand.New(rand.NewSource(1)), 1000)
	var a Acc
	for _, x := range xs {
		a.Add(x)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for _, x := range xs {
			a.Add(x)
		}
	}); allocs != 0 {
		t.Fatalf("warm Add allocated %v times per pass", allocs)
	}
}

// TestAccEmptyAndSingle: an empty accumulator reads all zeros; a single
// observation reads back exactly from every quantile.
func TestAccEmptyAndSingle(t *testing.T) {
	var a Acc
	if readouts(&a) != ([9]uint64{}) {
		t.Fatalf("empty readouts %v, want all zero", readouts(&a))
	}
	a.Add(-2.5e-3)
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if q := a.Quantile(p); q != -2.5e-3 {
			t.Errorf("single observation: quantile %v = %v", p, q)
		}
	}
}

// TestStreamingDeterminism: identical input order produces identical
// accumulator state, the property the fleet's byte-identical JSON rests
// on; the same holds after an encode/decode round trip, which
// re-encodes to the same bytes.
func TestStreamingDeterminism(t *testing.T) {
	build := func() *Acc {
		rng := rand.New(rand.NewSource(11))
		a := new(Acc)
		for i := 0; i < 5000; i++ {
			a.Add(rng.ExpFloat64())
		}
		return a
	}
	a1, a2 := build(), build()
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("Acc state diverged across identical replays")
	}
	blob := AppendAccs(nil, []Acc{*a1, *a2})
	got := make([]Acc, 2)
	if err := DecodeAccs(blob, a1.N(), got); err != nil {
		t.Fatal(err)
	}
	if readouts(&got[0]) != readouts(a1) || readouts(&got[1]) != readouts(a2) {
		t.Fatal("decoded accumulators read back differently")
	}
	if string(AppendAccs(nil, got)) != string(blob) {
		t.Fatal("decoded accumulators re-encode to different bytes")
	}
	for name, err := range map[string]error{
		"trailing byte": DecodeAccs(append(blob, 7), a1.N(), got),
		"wrong count":   DecodeAccs(blob, a1.N()+1, got),
	} {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestDecodeAccsRejectsDamage pins the codec's rejection paths.
func TestDecodeAccsRejectsDamage(t *testing.T) {
	var a Acc
	for _, x := range randomSequence(rand.New(rand.NewSource(2)), 50) {
		a.Add(x)
	}
	blob := AppendAccs(nil, []Acc{a})
	// One observation of 1 encodes as n, min, max, Σx and Σx² of one
	// component each, the zero count, then the negative buckets' key
	// count at offset 36.
	var one Acc
	one.Add(1)
	single := AppendAccs(nil, []Acc{one})
	if single[36] != 0 {
		t.Fatalf("single-value layout moved: %x", single)
	}
	splice := func(b []byte, at int, with ...byte) []byte {
		return append(append(append([]byte(nil), b[:at]...), with...), b[at+1:]...)
	}
	cases := map[string]struct {
		b []byte
		n int
	}{
		"empty":            {nil, 0},
		"truncated":        {blob[:len(blob)-1], a.N()},
		"counts short":     {splice(single, 0, 2), 2},
		"non-minimal n":    {splice(blob, 0, 0x80|blob[0], 0x00), a.N()},
		"range reversed":   {swapRange(blob), a.N()},
		"keys overclaimed": {splice(single, 36, 0xff, 0xff, 0xff, 0xff, 0x0f), 1},
		"last count cut":   {single[:len(single)-1], 1},
	}
	for name, c := range cases {
		if err := DecodeAccs(c.b, c.n, make([]Acc, 1)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	got := make([]Acc, 1)
	if err := DecodeAccs(single, 1, got); err != nil || got[0].Mean() != 1 {
		t.Fatalf("the undamaged single-value blob: %v, mean %v", err, got[0].Mean())
	}
}

// swapRange exchanges min and max in an encoded accumulator whose count
// takes one byte.
func swapRange(blob []byte) []byte {
	b := append([]byte(nil), blob...)
	for i := 0; i < 8; i++ {
		b[1+i], b[9+i] = b[9+i], b[1+i]
	}
	return b
}
