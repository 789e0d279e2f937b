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
// and positive buckets, each as the number of keys k from the first
// non-zero count to the last and, for k > 0, the first key less minKey
// and k counts, zero for each key between that holds none.
func AppendAccs(b []byte, accs []Acc) []byte {
	size := 0
	for i := range accs { // every field at its widest, and per key a count ≤ n
		a := &accs[i]
		size += 78 + 8*(a.sum.n+a.sq.n) + (a.neg.nonZero().span()+a.pos.nonZero().span())*(bits.Len64(uint64(a.n)|1)+6)/7
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
		for _, s := range [...]buckets{a.neg.nonZero(), a.pos.nonZero()} {
			if b = binary.AppendUvarint(b, uint64(s.span())); len(s) == 0 {
				continue
			}
			b = binary.AppendUvarint(b, uint64(s[0].key-minKey))
			for i, p := range s {
				if i > 0 {
					b = append(b, make([]byte, p.key-s[i-1].key-1)...) // a zero per key between
				}
				b = binary.AppendUvarint(b, p.n)
			}
		}
	}
	return b
}

// span is the number of keys from the run's first to its last.
func (b buckets) span() int {
	if len(b) == 0 {
		return 0
	}
	return b[len(b)-1].key - b[0].key + 1
}

// DecodeAccs reads len(accs) accumulators of n observations each, which
// must fill data exactly, accepting only what AppendAccs writes. A first
// pass checks the bytes and counts the non-zero bucket counts, so one
// allocation of that many pairs holds every accumulator's buckets.
func DecodeAccs(data []byte, n int, accs []Acc) error {
	held, err := decodeAccs(data, n, accs, nil)
	if err != nil || held == 0 {
		return err
	}
	_, err = decodeAccs(data, n, accs, make([]bucket, 0, held))
	return err
}

// decodeAccs is DecodeAccs putting the buckets into pairs, or none with
// pairs nil, and returning how many it read.
func decodeAccs(data []byte, n int, accs []Acc, pairs []bucket) (held int, err error) {
	for i := range accs {
		if err := accs[i].decode(&data, &pairs, &held); err != nil {
			return 0, fmt.Errorf("stats: accumulator %d: %w", i, err)
		}
		if accs[i].n != n {
			return 0, fmt.Errorf("stats: accumulator %d holds %d observations, want %d", i, accs[i].n, n)
		}
	}
	if len(data) != 0 {
		return 0, fmt.Errorf("stats: %d bytes after %d accumulators", len(data), len(accs))
	}
	return held, nil
}

var errMalformed = errors.New("malformed accumulator")

// decode reads one accumulator from *data, adding the number of its
// non-zero bucket counts to *held. Unless *pairs is nil it appends them
// to *pairs, whose capacity they never exceed, and its runs point there.
func (a *Acc) decode(data *[]byte, pairs *[]bucket, held *int) error {
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
			start := len(*pairs)
			for i := uint64(0); i < k; i++ {
				if i > 0 {
					// Keys between that hold none take a zero byte each.
					z := 0
					for z+8 <= len(b) && binary.LittleEndian.Uint64(b[z:]) == 0 {
						z += 8
					}
					for z < len(b) && b[z] == 0 {
						z++
					}
					if uint64(z) >= k-i {
						return errMalformed // the last count is zero
					}
					i, b = i+uint64(z), b[z:]
				}
				c, ok := uvarint(&b)
				if total += c; !ok || c == 0 || total < c {
					return errMalformed
				}
				if *held++; *pairs != nil {
					*pairs = append(*pairs, bucket{minKey + int(lo+i), c})
				}
			}
			if *pairs != nil {
				*s = (*pairs)[start:len(*pairs):len(*pairs)]
			}
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
