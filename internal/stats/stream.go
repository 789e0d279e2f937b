package stats

import (
	"fmt"
	"math"
	"sort"
)

// Acc accumulates a distribution in a state that merges exactly: any
// partition of a sequence, folded in parts and merged in any order, reads
// back bit for bit what one sequential fold does. It holds the count,
// extremes, Σx and Σx² as exact float expansions, and a count per bucket
// of a relative-error log sketch (after DDSketch, Masson et al., VLDB
// 2019). The zero value is empty and ready.
type Acc struct {
	n        int
	min, max float64
	sum, sq  expansion
	zero     uint64
	pos, neg buckets // keyed by x for x > 0, by −x for x < 0
}

// Add folds one observation, allocating only when x falls outside the
// buckets seen so far. It panics on a NaN or an infinity.
func (a *Acc) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fmt.Sprintf("stats: Acc.Add(%v): observations must be finite", x))
	}
	if x == 0 {
		x = 0 // −0 becomes +0, so Min and Max never depend on fold order
	}
	a.extend(x, x, 1)
	a.sum.add(x)
	a.sq.addProd(x, x)
	switch {
	case x > 0:
		a.pos.add(bucketOf(x), 1)
	case x < 0:
		a.neg.add(bucketOf(-x), 1)
	default:
		a.zero++
	}
}

// extend counts n observations spanning [lo, hi].
func (a *Acc) extend(lo, hi float64, n int) {
	if a.n == 0 || lo < a.min {
		a.min = lo
	}
	if a.n == 0 || hi > a.max {
		a.max = hi
	}
	a.n += n
}

// Merge folds b's observations into a, exactly. a and b must differ.
func (a *Acc) Merge(b *Acc) {
	if b.n > 0 {
		a.extend(b.min, b.max, b.n)
	}
	for _, c := range b.sum.c[:b.sum.n] {
		a.sum.add(c)
	}
	for _, c := range b.sq.c[:b.sq.n] {
		a.sq.add(c)
	}
	a.zero += b.zero
	a.pos.merge(&b.pos)
	a.neg.merge(&b.neg)
}

// Grow reserves buckets so adding positive observations in [lo, hi]
// allocates nothing, as bytes.Buffer.Grow does for bytes.
func (a *Acc) Grow(lo, hi float64) {
	if lo > 0 && lo <= hi && hi <= math.MaxFloat64 {
		a.pos.cover(bucketOf(lo), bucketOf(hi))
	}
}

// N is the number of observations folded in.
func (a *Acc) N() int { return a.n }

// Min is the smallest observation, 0 when empty.
func (a *Acc) Min() float64 { return a.min }

// Max is the largest observation, 0 when empty.
func (a *Acc) Max() float64 { return a.max }

// Sum is Σx, exact until rounded once here.
func (a *Acc) Sum() float64 { return a.sum.round() }

// Mean is Sum divided by N, 0 when empty.
func (a *Acc) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.Sum() / float64(a.n)
}

// Std is the sample standard deviation, 0 for fewer than two
// observations, from n·Σx² − (Σx)² evaluated exactly and rounded once.
func (a *Acc) Std() float64 {
	if a.n < 2 {
		return 0
	}
	n := float64(a.n)
	var d expansion
	for _, q := range a.sq.c[:a.sq.n] {
		d.addProd(n, q)
	}
	for _, x := range a.sum.c[:a.sum.n] {
		for _, y := range a.sum.c[:a.sum.n] {
			d.addProd(-x, y)
		}
	}
	return math.Sqrt(max(d.round(), 0) / (n * (n - 1)))
}

// CI95 is the half-width of the 95% confidence interval of the mean
// (Student-t, as the batch CI95), 0 for fewer than two observations.
func (a *Acc) CI95() float64 {
	if a.n < 2 {
		return 0
	}
	return critT95(a.n) * a.Std() / math.Sqrt(float64(a.n))
}

// Quantile estimates Quantile(xs, p) (R-7): with r = p·(N−1), it
// interpolates the midpoints of the buckets holding x₍⌊r⌋₎ and x₍⌈r⌉₎,
// each within 2⁻⁸ of its value, and clamps to [Min, Max]: within
// 2⁻⁷·max(|x₍⌊r⌋₎|, |x₍⌈r⌉₎|) of the exact quantile, rounding included.
func (a *Acc) Quantile(p float64) float64 {
	if a.n == 0 {
		return 0
	}
	r := rank(p, a.n)
	lo := math.Floor(r)
	v := a.midpointAt(uint64(lo))
	if f := r - lo; f > 0 {
		v += float64(f * (a.midpointAt(uint64(lo)+1) - v))
	}
	return min(max(v, a.min), a.max)
}

// midpointAt is the midpoint of the k'th smallest observation's bucket.
func (a *Acc) midpointAt(k uint64) float64 {
	for i := len(a.neg.counts) - 1; i >= 0; i-- {
		if k < a.neg.counts[i] {
			return -midpoint(a.neg.lo + i)
		}
		k -= a.neg.counts[i]
	}
	if k < a.zero {
		return 0
	}
	k -= a.zero
	for i, c := range a.pos.counts {
		if k < c {
			return midpoint(a.pos.lo + i)
		}
		k -= c
	}
	return a.max // unreachable while the counts sum to N
}

// A bucket is one of subBuckets slices of a Frexp octave [2^(e−1), 2^e),
// 2⁻⁸·2^e wide, so its midpoint is within 2⁻⁸ of its values, relative:
// half Quantile's 2⁻⁷, which leaves its roundings room.
const (
	octaveBits = 7
	subBuckets = 1 << octaveBits
)

// The keys of the smallest and largest positive finite floats.
var minKey, maxKey = bucketOf(math.SmallestNonzeroFloat64), bucketOf(math.MaxFloat64)

// bucketOf is the key of a finite m > 0, increasing with m.
func bucketOf(m float64) int {
	frac, exp := math.Frexp(m) // frac ∈ [0.5, 1)
	return exp<<octaveBits + int((frac-0.5)*(2*subBuckets))
}

func midpoint(k int) float64 {
	return math.Ldexp(0.5+(float64(k&(subBuckets-1))+0.5)/(2*subBuckets), k>>octaveBits)
}

type buckets struct { // counts per key, for keys lo, lo+1, …
	lo     int
	counts []uint64
}

func (b *buckets) add(k int, c uint64) {
	if k < b.lo || k >= b.lo+len(b.counts) {
		b.cover(k, k)
	}
	b.counts[k-b.lo] += c
}

// cover widens the keys to include [klo, khi], at least twofold.
func (b *buckets) cover(klo, khi int) {
	old := len(b.counts)
	if old > 0 {
		if klo >= b.lo && khi < b.lo+old {
			return
		}
		klo, khi = min(klo, b.lo), max(khi, b.lo+old-1)
	}
	lo, size := klo, max(khi-klo+1, 2*old, subBuckets)
	if old > 0 && klo < b.lo {
		lo = khi + 1 - size
	}
	counts := make([]uint64, size)
	if old > 0 {
		copy(counts[b.lo-lo:], b.counts)
	}
	b.lo, b.counts = lo, counts
}

func (b *buckets) merge(o *buckets) {
	for i, c := range o.counts {
		if c != 0 {
			b.add(o.lo+i, c)
		}
	}
}

// rank is the R-7 rank p·(n−1), with p clamped to [0, 1].
func rank(p float64, n int) float64 {
	if !(p >= 0) { // also catches NaN
		p = 0
	}
	return min(p, 1) * float64(n-1)
}

// Quantile returns the p'th quantile of xs by linear interpolation
// between order statistics (the "R-7" definition), without mutating xs.
// It returns 0 for an empty slice and clamps p to [0, 1].
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := rank(p, len(s))
	lo, hi := int(math.Floor(r)), int(math.Ceil(r))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (r-float64(lo))*(s[hi]-s[lo])
}
