package backend

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/simclock"
)

// Binary codecs for the backend interchange types. The multi-process
// fleet sharding layer (internal/shardexec) ships per-shard arrival
// histograms and device counters between worker processes and the
// supervisor, and checkpoints them to disk, so both need an exact
// binary round-trip. Everything here is integer data: decode(encode(x))
// reproduces x exactly, and merging decoded copies is as exact as
// merging the originals (Histogram.Merge and DeviceStats.Merge are
// commutative, associative integer folds).
//
// These are raw building blocks: the framed shard format in
// internal/fleet adds the magic, version, and checksum that detect
// corruption.

// DeviceStatsBinarySize is the exact encoded size of the DeviceStats
// counters (the histogram is carried separately — it is per-policy
// shared state at the fleet layer, not per-counter-block state).
const DeviceStatsBinarySize = 8 * 8

// AppendBinary appends the eight counters to b and returns the extended
// slice. Hist is deliberately excluded, mirroring its json:"-" tag.
func (s *DeviceStats) AppendBinary(b []byte) []byte {
	for _, v := range [...]int64{s.Requests, s.Shed, s.ShedAttempts, s.Retries,
		s.Redelivered, s.Dropped, s.Pending, s.Reconnects} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// UnmarshalBinary restores the counters written by AppendBinary. Hist
// is left untouched.
func (s *DeviceStats) UnmarshalBinary(data []byte) error {
	if len(data) != DeviceStatsBinarySize {
		return fmt.Errorf("backend: device stats are %d bytes, want %d", len(data), DeviceStatsBinarySize)
	}
	ps := [...]*int64{&s.Requests, &s.Shed, &s.ShedAttempts, &s.Retries,
		&s.Redelivered, &s.Dropped, &s.Pending, &s.Reconnects}
	for i, p := range ps {
		v := int64(binary.LittleEndian.Uint64(data[8*i:]))
		if v < 0 {
			return fmt.Errorf("backend: negative counter %d in device stats", v)
		}
		*p = v
	}
	return nil
}

// AppendBinary appends the histogram to b and returns the extended
// slice: the bucket width, the entry count, then the (bucket, count)
// pairs in ascending bucket order — the order Buckets already keeps, so
// identical histograms always serialize to identical bytes.
func (h *Histogram) AppendBinary(b []byte) []byte {
	b = slices.Grow(b, 12+16*len(h.Buckets))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.Width))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(h.Buckets)))
	for _, x := range h.Buckets {
		b = binary.LittleEndian.AppendUint64(b, uint64(x.Index))
		b = binary.LittleEndian.AppendUint64(b, uint64(x.Count))
	}
	return b
}

// UnmarshalBinary restores a histogram written by AppendBinary,
// rejecting truncated, oversized, or structurally invalid payloads.
func (h *Histogram) UnmarshalBinary(data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("backend: histogram payload is %d bytes, want at least 12", len(data))
	}
	width := simclock.Duration(binary.LittleEndian.Uint64(data))
	if width <= 0 {
		return fmt.Errorf("backend: non-positive histogram bucket width %d", width)
	}
	n := int(binary.LittleEndian.Uint32(data[8:]))
	if len(data) != 12+16*n {
		return fmt.Errorf("backend: histogram payload is %d bytes, want %d for %d buckets", len(data), 12+16*n, n)
	}
	var buckets []Bucket
	if n > 0 {
		buckets = make([]Bucket, n)
	}
	for i := range buckets {
		k := int64(binary.LittleEndian.Uint64(data[12+16*i:]))
		v := int64(binary.LittleEndian.Uint64(data[20+16*i:]))
		// AppendBinary writes only non-empty buckets, in ascending order;
		// accepting nothing else keeps decode(encode(x)) and
		// encode(decode(b)) exact, and keeps an empty bucket from widening
		// Serve's replay.
		if v <= 0 {
			return fmt.Errorf("backend: non-positive count %d in histogram bucket %d", v, k)
		}
		if i > 0 && k <= buckets[i-1].Index {
			return fmt.Errorf("backend: histogram bucket %d out of order", k)
		}
		buckets[i] = Bucket{Index: k, Count: v}
	}
	h.Width, h.Buckets = width, buckets
	return nil
}
