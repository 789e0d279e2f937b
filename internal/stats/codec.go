package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// AppendAccs appends the binary form of each accumulator to b, growing b
// at most once. Integers are uvarints and floats their IEEE-754 bits,
// little-endian: n; when n > 0, min and max, Σx and Σx² (a component
// count byte, then the components), the zero count, and the negative
// and positive buckets, each as the number of keys k and, for k > 0,
// the first key less minKey and k counts, the first and last non-zero.
func AppendAccs(b []byte, accs []Acc) []byte {
	size := 0
	for i := range accs { // every field at its widest, and per key a count ≤ n
		a := &accs[i]
		size += 78 + 8*(a.sum.n+a.sq.n) + (len(a.pos.counts)+len(a.neg.counts))*(bits.Len64(uint64(a.n)|1)+6)/7
	}
	b = slices.Grow(b, size)
	for i := range accs {
		a := &accs[i]
		if b = binary.AppendUvarint(b, uint64(a.n)); a.n == 0 {
			continue
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.min))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.max))
		for _, e := range [...]*expansion{&a.sum, &a.sq} {
			b = append(b, byte(e.n))
			for _, c := range e.c[:e.n] {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
			}
		}
		b = binary.AppendUvarint(b, a.zero)
		for _, s := range [...]*buckets{&a.neg, &a.pos} {
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
	}
	return b
}

// DecodeAccs reads len(accs) accumulators of n observations each, which
// must fill data exactly, accepting only what AppendAccs writes. Every
// bucket count takes a byte, so one allocation of len(data) counts holds
// them all.
func DecodeAccs(data []byte, n int, accs []Acc) error {
	counts := make([]uint64, 0, len(data))
	for i := range accs {
		if err := accs[i].decode(&data, &counts); err != nil {
			return fmt.Errorf("stats: accumulator %d: %w", i, err)
		}
		if accs[i].n != n {
			return fmt.Errorf("stats: accumulator %d holds %d observations, want %d", i, accs[i].n, n)
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("stats: %d bytes after %d accumulators", len(data), len(accs))
	}
	return nil
}

var errMalformed = errors.New("malformed accumulator")

// decode reads one accumulator from *data, appending its bucket counts
// to *counts, whose capacity they never exceed.
func (a *Acc) decode(data *[]byte, counts *[]uint64) error {
	b := *data
	n, ok := uvarint(&b)
	if *a = (Acc{n: int(n)}); !ok || n > math.MaxInt64 || (n > 0 && len(b) < 16) {
		return errMalformed
	}
	if n > 0 {
		a.min = math.Float64frombits(binary.LittleEndian.Uint64(b))
		a.max = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		if b = b[16:]; !finite(a.min) || !finite(a.max) || a.min > a.max {
			return fmt.Errorf("range [%v, %v] is not a finite interval", a.min, a.max)
		}
		for _, e := range [...]*expansion{&a.sum, &a.sq} {
			if len(b) < 1 || int(b[0]) >= maxParts || len(b) < 1+8*int(b[0]) {
				return errMalformed
			}
			e.n, b = int(b[0]), b[1:]
			for i := range e.c[:e.n] {
				e.c[i], b = math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:]
				if e.c[i] == 0 || !finite(e.c[i]) || (i > 0 && math.Abs(e.c[i]) <= math.Abs(e.c[i-1])) {
					return fmt.Errorf("sum component %v is zero, not finite or out of order", e.c[i])
				}
			}
		}
		if a.zero, ok = uvarint(&b); !ok {
			return errMalformed
		}
		total := a.zero
		for _, s := range [...]*buckets{&a.neg, &a.pos} {
			k, ok := uvarint(&b)
			if !ok || k > uint64(len(b)) {
				return errMalformed
			}
			if k == 0 {
				continue
			}
			lo, ok := uvarint(&b)
			if keys := uint64(maxKey - minKey + 1); !ok || lo >= keys || k > keys-lo {
				return errMalformed
			}
			s.lo = minKey + int(lo)
			for i := uint64(0); i < k; i++ {
				c, ok := uvarint(&b)
				if total += c; !ok || (c == 0 && (i == 0 || i == k-1)) || total < c {
					return errMalformed
				}
				*counts = append(*counts, c)
			}
			s.counts = (*counts)[len(*counts)-int(k) : len(*counts) : len(*counts)]
		}
		if total != n {
			return fmt.Errorf("bucket counts sum to %d, want %d", total, n)
		}
	}
	*data = b
	return nil
}

// uvarint consumes one minimally encoded uvarint from *b, small enough
// to inline into the bucket loop.
func uvarint(b *[]byte) (v uint64, ok bool) {
	for i, c := range *b {
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			*b = (*b)[i+1:]
			return v, (i == 0 || c != 0) && (i < 9 || c < 2)
		}
		if i == 9 {
			break
		}
	}
	return 0, false
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
