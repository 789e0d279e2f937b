package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// dense is the layout a sign's sketch had before runs of (key, count)
// pairs: one count per key from the lowest key held to the highest. It
// stays as the reference FuzzAccMatchesDense holds Acc to.
type dense struct {
	lo     int
	counts []uint64
}

func (b *dense) add(k int, c uint64) {
	if k < b.lo || k >= b.lo+len(b.counts) {
		b.cover(k, k)
	}
	b.counts[k-b.lo] += c
}

// cover widens the keys to include [klo, khi], at least twofold.
func (b *dense) cover(klo, khi int) {
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

func (b *dense) merge(o *dense) {
	for i, c := range o.counts {
		if c != 0 {
			b.add(o.lo+i, c)
		}
	}
}

// nonZero lists the keys that hold a count, in ascending order.
func (b *dense) nonZero() []bucket {
	var s []bucket
	for i, c := range b.counts {
		if c != 0 {
			s = append(s, bucket{b.lo + i, c})
		}
	}
	return s
}

// denseAcc is an Acc that keeps its sketch a second time in the dense
// layout. The count, the extremes, the moments and the zero count are
// no part of either layout, so the two share them.
type denseAcc struct {
	Acc
	pos, neg dense
}

func (d *denseAcc) add(x float64) {
	d.Acc.Add(x)
	switch {
	case x > 0:
		d.pos.add(bucketOf(x), 1)
	case x < 0:
		d.neg.add(bucketOf(-x), 1)
	}
}

func (d *denseAcc) merge(o *denseAcc) {
	d.Acc.Merge(&o.Acc)
	d.pos.merge(&o.pos)
	d.neg.merge(&o.neg)
}

func (d *denseAcc) grow(lo, hi float64) {
	d.Acc.Grow(lo, hi)
	if lo > 0 && lo <= hi && hi <= math.MaxFloat64 {
		d.pos.cover(bucketOf(lo), bucketOf(hi))
	}
}

// quantile is Acc.Quantile read from the dense sketch.
func (d *denseAcc) quantile(p float64) float64 {
	if d.n == 0 {
		return 0
	}
	r := rank(p, d.n)
	lo := math.Floor(r)
	v := d.midpointAt(uint64(lo))
	if f := r - lo; f > 0 {
		v += float64(f * (d.midpointAt(uint64(lo)+1) - v))
	}
	return min(max(v, d.min), d.max)
}

func (d *denseAcc) midpointAt(k uint64) float64 {
	for i := len(d.neg.counts) - 1; i >= 0; i-- {
		if k < d.neg.counts[i] {
			return -midpoint(d.neg.lo + i)
		}
		k -= d.neg.counts[i]
	}
	if k < d.zero {
		return 0
	}
	k -= d.zero
	for i, c := range d.pos.counts {
		if k < c {
			return midpoint(d.pos.lo + i)
		}
		k -= c
	}
	return d.max
}

// appendTo is the form AppendAccs wrote from the dense sketch: what an
// Acc with no buckets writes, less its two empty key counts, then each
// sign's counts from its first non-zero one to its last.
func (d *denseAcc) appendTo(b []byte) []byte {
	head := d.Acc
	head.pos, head.neg = nil, nil
	if b = AppendAccs(b, []Acc{head}); d.n == 0 {
		return b
	}
	b = b[:len(b)-2]
	for _, s := range [...]*dense{&d.neg, &d.pos} {
		lo, c := s.lo, s.counts
		for len(c) > 0 && c[0] == 0 {
			lo, c = lo+1, c[1:]
		}
		for len(c) > 0 && c[len(c)-1] == 0 {
			c = c[:len(c)-1]
		}
		if b = binary.AppendUvarint(b, uint64(len(c))); len(c) > 0 {
			b = binary.AppendUvarint(b, uint64(lo-minKey))
		}
		for _, n := range c {
			b = binary.AppendUvarint(b, n)
		}
	}
	return b
}

// fuzzQuantiles are the quantiles FuzzAccMatchesDense compares.
var fuzzQuantiles = [...]float64{0, 0.5, 0.95, 0.99, 1}

// layoutReadouts is N, Min, Max, Sum, Std, CI95 and the fuzzQuantiles,
// as raw bits, with the quantiles read by q.
func layoutReadouts(a *Acc, q func(float64) float64) [11]uint64 {
	r := [11]uint64{uint64(a.N()), math.Float64bits(a.Min()), math.Float64bits(a.Max()),
		math.Float64bits(a.Sum()), math.Float64bits(a.Std()), math.Float64bits(a.CI95())}
	for i, p := range fuzzQuantiles {
		r[6+i] = math.Float64bits(q(p))
	}
	return r
}

// fuzzValues are the observations an op's value byte names below
// len(fuzzValues): both zeros, both signs of the smallest and the
// largest finite magnitudes, and a few plain values.
var fuzzValues = [...]float64{0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	0.5, 1, -1, 3, 1000, 1e-300}

// fuzzValue consumes one value from *ops: a byte below len(fuzzValues)
// names one, a byte from 0x80 with eight bytes after it is their
// float64 (1 if not finite), and any other byte b is (b − 64)/8.
func fuzzValue(ops *[]byte) float64 {
	b := *ops
	if len(b) == 0 {
		return 0
	}
	sel := b[0]
	*ops = b[1:]
	switch {
	case int(sel) < len(fuzzValues):
		return fuzzValues[sel]
	case sel >= 0x80 && len(b) > 8:
		*ops = b[9:]
		if x := math.Float64frombits(binary.LittleEndian.Uint64(b[1:])); finite(x) {
			return x
		}
		return 1
	}
	return (float64(sel) - 64) / 8
}

// Op bytes for FuzzAccMatchesDense: bits 0-1 pick Add, Add, Merge or
// Grow, bits 2-3 the accumulator (mod 3), bits 4-5 a merge's source.
// A value byte is named(x) for a fuzzValues entry or small(x) for x in
// [−8, 24) on an eighth.
func opAdd(i int, v byte) []byte       { return []byte{byte(i << 2), v} }
func opMerge(i, j int) []byte          { return []byte{byte(2 | i<<2 | j<<4)} }
func opGrow(i int, lo, hi byte) []byte { return []byte{byte(3 | i<<2), lo, hi} }
func named(x float64) byte             { return byte(slices.Index(fuzzValues[:], x)) }
func small(x float64) byte             { return byte(x*8 + 64) }

// opAddBits adds x as its eight bytes.
func opAddBits(i int, x float64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{byte(i << 2), 0x80}, math.Float64bits(x))
}

// FuzzAccMatchesDense plays random Add, Merge and Grow sequences on
// three accumulators that also keep their sketch in the dense layout
// Acc had before its runs. Both layouts must read the same N, Min, Max,
// Sum, Std, CI95 and quantiles, hold the same non-zero counts, and
// AppendAccs must write the bytes the dense layout wrote, which
// DecodeAccs reads back to the same readouts and the same bytes. The
// runs ascend, hold each key once, and hold a zero count only inside a
// range Grow reserved.
func FuzzAccMatchesDense(f *testing.F) {
	tiny, huge := named(math.SmallestNonzeroFloat64), named(math.MaxFloat64)
	// The full-range triple, then merged both ways and beside negatives.
	f.Add(slices.Concat(opAdd(0, named(0.5)), opAdd(0, tiny), opAdd(0, huge),
		opAdd(1, named(-math.MaxFloat64)), opAdd(1, named(-math.SmallestNonzeroFloat64)),
		opMerge(1, 0), opAdd(2, 1), opMerge(2, 1), opMerge(0, 2)))
	// The widest span whose Σx² stays finite, to decode.
	f.Add(slices.Concat(opAdd(0, named(0.5)), opAdd(0, tiny), opAddBits(0, 0x1p511), opAdd(1, named(-1e-300)),
		opMerge(1, 0), opAdd(0, named(-1))))
	// Grow leaves zero counts at both ends of its span, around an added
	// key, next to keys held below and above the span, and merges them.
	f.Add(slices.Concat(opAdd(0, small(0.125)), opAdd(0, small(12)), opGrow(0, small(0.5), named(3)),
		opAdd(0, named(1)), opAdd(1, small(2)), opGrow(1, small(0.25), small(8)),
		opMerge(2, 0), opMerge(2, 1), opMerge(0, 1), opGrow(2, tiny, small(0.125))))
	f.Add(slices.Concat(opGrow(0, named(1), named(1000)), opAddBits(0, 999.5), opAddBits(0, 1.0001),
		opAdd(0, named(1)), opAdd(1, small(-3)), opMerge(1, 0), opGrow(1, named(0.5), named(3))))
	f.Fuzz(func(t *testing.T, b []byte) {
		var accs [3]denseAcc
		var reserved [3][][2]int
		for len(b) > 0 {
			op, i, j := b[0]&3, int(b[0]>>2&3)%3, int(b[0]>>4&3)%3
			b = b[1:]
			switch op {
			case 0, 1:
				accs[i].add(fuzzValue(&b))
			case 2:
				if i != j {
					accs[i].merge(&accs[j])
				}
			case 3:
				lo, hi := fuzzValue(&b), fuzzValue(&b)
				accs[i].grow(lo, hi)
				if lo > 0 && lo <= hi {
					reserved[i] = append(reserved[i], [2]int{bucketOf(lo), bucketOf(hi)})
				}
			}
		}
		for i := range accs {
			d := &accs[i]
			want := layoutReadouts(&d.Acc, d.quantile)
			if got := layoutReadouts(&d.Acc, d.Quantile); got != want {
				t.Fatalf("accumulator %d reads %v, the dense layout %v", i, got, want)
			}
			for _, s := range [...]struct {
				run buckets
				ref *dense
			}{{d.Acc.neg, &d.neg}, {d.Acc.pos, &d.pos}} {
				checkRun(t, s.run, reserved[i])
				var held []bucket
				for _, p := range s.run {
					if p.n != 0 {
						held = append(held, p)
					}
				}
				if ref := s.ref.nonZero(); !slices.Equal(held, ref) {
					t.Fatalf("accumulator %d holds %v, the dense layout %v", i, held, ref)
				}
			}
			blob := AppendAccs(nil, []Acc{d.Acc})
			if ref := d.appendTo(nil); !bytes.Equal(blob, ref) {
				t.Fatalf("accumulator %d encodes to\n%x\nthe dense layout to\n%x", i, blob, ref)
			}
			got := make([]Acc, 1)
			err := DecodeAccs(blob, d.N(), got)
			overflowed := func(c float64) bool { return !finite(c) }
			if slices.ContainsFunc(d.sum.c[:d.sum.n], overflowed) || slices.ContainsFunc(d.sq.c[:d.sq.n], overflowed) {
				// A sum past the largest float (Σx² of an observation
				// of 2⁵¹² or more) encodes as ±Inf or NaN, refused.
				if err == nil {
					t.Fatalf("accumulator %d: a sum that overflowed decoded", i)
				}
				continue
			}
			if err != nil {
				t.Fatalf("accumulator %d: %v", i, err)
			}
			if r := layoutReadouts(&got[0], got[0].Quantile); r != want {
				t.Fatalf("accumulator %d decodes to %v, want %v", i, r, want)
			}
			if again := AppendAccs(nil, got); !bytes.Equal(again, blob) {
				t.Fatalf("accumulator %d re-encodes to\n%x\nnot\n%x", i, again, blob)
			}
		}
	})
}

// checkRun fails unless the run's keys ascend strictly within the keys of
// finite floats and each zero count lies in one of the reserved ranges.
func checkRun(t *testing.T, run buckets, reserved [][2]int) {
	t.Helper()
	for i, p := range run {
		if p.key < minKey || p.key > maxKey || (i > 0 && p.key <= run[i-1].key) {
			t.Fatalf("run keys out of order or range at %d: %v", i, run)
		}
		if p.n == 0 && !slices.ContainsFunc(reserved, func(r [2]int) bool { return r[0] <= p.key && p.key <= r[1] }) {
			t.Fatalf("key %d holds a zero count outside the ranges Grow reserved, %v", p.key, reserved)
		}
	}
}
