package stats

import (
	"math"
	"sort"
)

// The fleet simulator aggregates metrics over populations far too large
// to retain per-run values (10k devices × several metrics × two
// policies), so this file provides memory-bounded streaming estimators:
// Welford's online mean/variance recurrence and the P² algorithm (Jain &
// Chlamtac, CACM 1985) for quantiles. Both are pure arithmetic over a
// fixed fold order, which is what lets fleet aggregates stay
// byte-identical regardless of how many workers produced the inputs.

// Welford accumulates count, mean, and variance online in O(1) space
// using Welford's numerically stable recurrence, plus running min/max.
// The zero value is an empty accumulator ready for use.
type Welford struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N is the number of observations folded in.
func (w *Welford) N() int { return w.n }

// Mean is the running arithmetic mean, 0 when empty.
func (w *Welford) Mean() float64 { return w.mean }

// Variance is the sample variance (n−1 denominator), 0 for fewer than
// two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std is the sample standard deviation, 0 for fewer than two
// observations.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// Min is the smallest observation, 0 when empty.
func (w *Welford) Min() float64 { return w.min }

// Max is the largest observation, 0 when empty.
func (w *Welford) Max() float64 { return w.max }

// CI95 is the half-width of the 95% confidence interval of the mean
// (Student-t, matching the batch CI95), 0 for fewer than two
// observations.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return critT95(w.n) * w.Std() / math.Sqrt(float64(w.n))
}

// P2Quantile estimates one quantile online with the P² algorithm: five
// markers track the running minimum, maximum, target quantile, and the
// two intermediate quantiles, adjusted per observation by a piecewise-
// parabolic fit. O(1) space, deterministic for a fixed input order, and
// exact for the first five observations.
type P2Quantile struct {
	p   float64
	n   int
	q   [5]float64 // marker heights
	pos [5]float64 // marker positions (1-based)
	des [5]float64 // desired marker positions
	inc [5]float64 // desired-position increments per observation
}

// NewP2Quantile returns an estimator for the p'th quantile (p clamped to
// [0, 1]).
func NewP2Quantile(p float64) P2Quantile {
	if !(p >= 0) { // also catches NaN
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return P2Quantile{
		p:   p,
		inc: [5]float64{0, p / 2, p, (1 + p) / 2, 1},
	}
}

// Add folds one observation into the estimator.
func (e *P2Quantile) Add(x float64) {
	e.n++
	if e.n <= 5 {
		// Insertion-sort the first five observations; they initialize
		// the markers exactly.
		i := e.n - 1
		for i > 0 && e.q[i-1] > x {
			e.q[i] = e.q[i-1]
			i--
		}
		e.q[i] = x
		if e.n == 5 {
			p := e.p
			e.pos = [5]float64{1, 2, 3, 4, 5}
			e.des = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
		}
		return
	}

	// Locate the cell containing x, extending the extremes if needed.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := 0; i < 5; i++ {
		e.des[i] += e.inc[i]
	}

	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.des[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			q := e.parabolic(i, sign)
			if e.q[i-1] < q && q < e.q[i+1] {
				e.q[i] = q
			} else {
				e.q[i] = e.linear(i, sign)
			}
			e.pos[i] += sign
		}
	}
}

// parabolic is the piecewise-parabolic (P²) marker-height update.
func (e *P2Quantile) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+d)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-d)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback update when the parabolic estimate would leave
// the bracketing markers.
func (e *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Value is the current quantile estimate: the P² center marker once
// more than five observations have arrived, the exact batch quantile of
// the stored observations before that, and 0 when empty.
func (e *P2Quantile) Value() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n <= 5 {
		// e.q[:n] is sorted; interpolate exactly as Quantile does.
		return interpolate(e.q[:e.n], e.p)
	}
	// The extreme quantiles are tracked exactly by the outer markers;
	// the P² marker scheme only approximates interior quantiles.
	switch e.p {
	case 0:
		return e.q[0]
	case 1:
		return e.q[4]
	}
	return e.q[2]
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
	return interpolate(s, p)
}

// interpolate evaluates the R-7 quantile on an already-sorted slice.
func interpolate(sorted []float64, p float64) float64 {
	if !(p >= 0) {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	r := p * float64(len(sorted)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo] + (r-float64(lo))*(sorted[hi]-sorted[lo])
}
