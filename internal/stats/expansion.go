package stats

import "math"

// maxParts bounds an expansion: in canonical form each component is 53
// binary orders of magnitude below the next, so at most 40 fit, plus an
// add's room before it canonicalizes.
const maxParts = 41

// expansion holds a sum of float64s exactly while it stays finite, as
// its components c[:n]: non-zero, non-overlapping, in increasing
// magnitude (Shewchuk, "Adaptive Precision Floating-Point Arithmetic",
// 1997).
type expansion struct {
	n int
	c [maxParts]float64
}

// add folds x in exactly: a step of math.fsum's msum, which replaces
// each component by the error of adding it to the running sum.
func (e *expansion) add(x float64) {
	if x == 0 {
		return
	}
	i := 0
	for _, y := range e.c[:e.n] {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		if lo := y - (hi - x); lo != 0 {
			e.c[i] = lo
			i++
		}
		x = hi
	}
	if x != 0 {
		e.c[i] = x
		i++
	}
	if e.n = i; e.n == maxParts {
		e.canonicalize()
	}
}

// round returns the sum rounded to the nearest float64, ties to even.
func (e *expansion) round() float64 {
	v, _, _ := e.split()
	return v
}

// split is math.fsum's final rounding: v is the sum rounded to nearest,
// ties to even, and sum = v + r + sum(c[:m]) exactly, where c[:m]
// followed by r (when r ≠ 0) is again an expansion, shorter than e.
func (e *expansion) split() (v, r float64, m int) {
	if e.n == 0 {
		return 0, 0, 0
	}
	m = e.n - 1
	for v = e.c[m]; m > 0 && r == 0; {
		m--
		x := v
		v = x + e.c[m]
		r = e.c[m] - (v - x)
	}
	// At a tie v rounded to even; components below r that push the same
	// way put the sum past the tie, so it rounds the other way.
	if m > 0 && (r < 0) == (e.c[m-1] < 0) {
		if x := v + 2*r; x-v == 2*r {
			v, r = x, -r
		}
	}
	return v, r, m
}

// canonicalize rewrites e as c₁ = round(e), c₂ = round(e − c₁), …, the
// same sum in at most maxParts−1 components. Each cᵢ lands above the
// shrinking remainder, from the top of e down.
func (e *expansion) canonicalize() {
	n, top := e.n, e.n
	for e.n > 0 {
		v, r, m := e.split()
		if r != 0 {
			e.c[m] = r
			m++
		}
		top--
		e.c[top], e.n = v, m
	}
	e.n = copy(e.c[:], e.c[top:n])
}

// addProd folds a·b in exactly, as the rounded product and its error
// (Dekker's product, by fused multiply-add): exact unless the product
// overflows or its error underflows.
func (e *expansion) addProd(a, b float64) {
	p := float64(a * b)
	e.add(p)
	e.add(math.FMA(a, b, -p))
}
