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

// Add folds one observation, allocating only when x falls in a bucket
// not held so far and its sign's run is full. It panics on a NaN or an
// infinity.
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
		a.pos.add(bucketOf(x))
	case x < 0:
		a.neg.add(bucketOf(-x))
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
	a.pos.merge(b.pos)
	a.neg.merge(b.neg)
}

// Grow reserves buckets so adding positive observations in [lo, hi]
// allocates nothing, as bytes.Buffer.Grow does for bytes: it holds a
// zero count for every key in the range, so each such Add finds its
// bucket at the first slot it tries.
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
	for i := len(a.neg) - 1; i >= 0; i-- {
		if k < a.neg[i].n {
			return -midpoint(a.neg[i].key)
		}
		k -= a.neg[i].n
	}
	if k < a.zero {
		return 0
	}
	k -= a.zero
	for _, p := range a.pos {
		if k < p.n {
			return midpoint(p.key)
		}
		k -= p.n
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

// A bucket is one key of the sketch and its count.
type bucket struct {
	key int
	n   uint64
}

// buckets is one sign's sketch: a run of keys in ascending order, each
// with its count. It holds only the keys added and the keys Grow
// reserved (with zero counts until added), so its memory follows the
// keys it holds, not the span between its extremes.
type buckets []bucket

// minPairs is the fewest pairs a run grows to: 1 KB, the 128 counts a
// dense run of one octave took, so a fold allocates no more often.
const minPairs = 64

// add counts one observation under key k. The keys ascend and differ, so
// key k sits at most k − s[0].key slots in, and exactly there when every
// key between is held, as after Grow: add tries that slot first.
func (b *buckets) add(k int) {
	if s := *b; len(s) > 0 {
		if i := k - s[0].key; uint(i) < uint(len(s)) && s[i].key == k {
			s[i].n++
			return
		}
	}
	b.insert(k)
}

// insert is add past its first slot: a binary search, and a new key when
// k is not held.
func (b *buckets) insert(k int) {
	s := *b
	i := search(s, k)
	if i < len(s) && s[i].key == k {
		s[i].n++
		return
	}
	s = b.grow(len(s) + 1)
	copy(s[i+1:], s[i:])
	s[i] = bucket{k, 1}
}

// search is the index of the first key in s not below k.
func search(s []bucket, k int) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m].key < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// grow lengthens the run to n pairs, which the caller fills, moving it to
// at least twice its capacity and minPairs when it is full.
func (b *buckets) grow(n int) []bucket {
	s := *b
	if n > cap(s) {
		s = append(make([]bucket, 0, max(n, 2*cap(s), minPairs)), s...)
	}
	*b = s[:n]
	return *b
}

// cover holds every key in [klo, khi], a new one with a zero count.
func (b *buckets) cover(klo, khi int) {
	n, span := len(*b), khi-klo+1
	i, j := search(*b, klo), search(*b, khi+1)
	if j-i == span {
		return
	}
	s := b.grow(n + span - (j - i))
	copy(s[i+span:], s[j:n])
	// Fill the span from its top, each key taking its count from the
	// held keys below, which never overtake the slot being written.
	for w, r := i+span-1, j-1; w >= i; w-- {
		k, c := klo+w-i, uint64(0)
		if r >= i && s[r].key == k {
			c, r = s[r].n, r-1
		}
		s[w] = bucket{k, c}
	}
}

// merge adds o's counts: one pass counts the keys o adds while adding
// the counts of keys both hold, and one pass from the back interleaves
// the new keys, so each pair moves at most once.
func (b *buckets) merge(o buckets) {
	s, fresh := *b, 0
	for i, j := 0, 0; j < len(o); j++ {
		if o[j].n == 0 {
			continue
		}
		for i < len(s) && s[i].key < o[j].key {
			i++
		}
		if i < len(s) && s[i].key == o[j].key {
			s[i].n += o[j].n
		} else {
			fresh++
		}
	}
	if fresh == 0 {
		return
	}
	i, j := len(s)-1, len(o)-1
	s = b.grow(len(s) + fresh)
	for w := len(s) - 1; w > i; w-- {
		for o[j].n == 0 || (i >= 0 && s[i].key == o[j].key) {
			j-- // reserved by o only, or counted above
		}
		if i >= 0 && s[i].key > o[j].key {
			s[w], i = s[i], i-1
		} else {
			s[w], j = o[j], j-1
		}
	}
}

// nonZero is the run from its first non-zero count to its last.
func (b buckets) nonZero() buckets {
	for len(b) > 0 && b[0].n == 0 {
		b = b[1:]
	}
	for len(b) > 0 && b[len(b)-1].n == 0 {
		b = b[:len(b)-1]
	}
	return b
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
