package fleet

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/backend"
	"repro/internal/stats"
)

// The framed binary format of the multi-process fleet protocol. A
// "WFSH" frame carries one ShardAggregate — what a shard-worker process
// writes to stdout and what a checkpoint file persists per shard:
//
//	[magic 4][version u16][payload length u32][payload][crc32c u32]
//
// The CRC (Castagnoli) covers the envelope header and payload, so a
// truncated pipe, a torn checkpoint tail, or a flipped bit decodes as a
// loud error instead of a silently wrong summary. All fixed-width
// integers are little-endian and floats cross as their IEEE-754 bit
// patterns — decode(encode(x)) is x, bit for bit, which is what lets a
// resumed run, which merges its checkpointed shards, produce
// byte-identical Summary JSON.

const (
	shardMagic = "WFSH"

	// CodecVersion is the on-wire version of the shard frame. Bump it
	// on any layout change: a supervisor refuses frames from a worker
	// or checkpoint of a different version instead of misparsing them.
	// v3 ships folded state where v2 shipped per-device rows.
	CodecVersion = 3

	frameHeaderSize = 4 + 2 + 4
	// shardHeadSize is the payload's fixed-width head: index, range,
	// spec hash and backend flag.
	shardHeadSize = 4 + 8 + 8 + 32 + 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame wraps a payload in the envelope.
func frame(payload []byte) []byte {
	b := make([]byte, 0, frameHeaderSize+len(payload)+4)
	b = append(b, shardMagic...)
	b = binary.LittleEndian.AppendUint16(b, CodecVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// unframe validates the envelope and returns the payload.
func unframe(data []byte) ([]byte, error) {
	if len(data) < frameHeaderSize+4 {
		return nil, fmt.Errorf("fleet: %s frame is %d bytes, want at least %d", shardMagic, len(data), frameHeaderSize+4)
	}
	if string(data[:4]) != shardMagic {
		return nil, fmt.Errorf("fleet: frame magic %q, want %q", data[:4], shardMagic)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != CodecVersion {
		return nil, fmt.Errorf("fleet: %s frame version %d, want %d", shardMagic, v, CodecVersion)
	}
	n := int(binary.LittleEndian.Uint32(data[6:]))
	if len(data) != frameHeaderSize+n+4 {
		return nil, fmt.Errorf("fleet: %s frame is %d bytes, want %d for payload of %d", shardMagic, len(data), frameHeaderSize+n+4, n)
	}
	body := data[:frameHeaderSize+n]
	want := binary.LittleEndian.Uint32(data[frameHeaderSize+n:])
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("fleet: %s frame checksum %08x, want %08x (corrupt or truncated)", shardMagic, got, want)
	}
	return data[frameHeaderSize : frameHeaderSize+n], nil
}

// appendBlob writes a u32 length prefix followed by the bytes.
func appendBlob(b, blob []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(blob)))
	return append(b, blob...)
}

// takeBlob consumes a length-prefixed blob and returns it with the rest.
func takeBlob(data []byte) (blob, rest []byte, err error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("fleet: truncated length prefix")
	}
	n := int(binary.LittleEndian.Uint32(data))
	if len(data)-4 < n {
		return nil, nil, fmt.Errorf("fleet: blob of %d bytes in %d remaining", n, len(data)-4)
	}
	return data[4 : 4+n], data[4+n:], nil
}

// EncodeShard serializes a shard aggregate into a checksummed WFSH
// frame: the worker→supervisor wire format and the checkpoint's
// per-shard record payload. The payload is the fixed-width head; with a
// backend model, both policies' device counters and arrival histograms,
// each length-prefixed; then the fold's accumulators.
func EncodeShard(sa *ShardAggregate) []byte {
	var head [shardHeadSize]byte
	payload := binary.LittleEndian.AppendUint32(head[:0], uint32(sa.Index))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(sa.Lo))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(sa.Hi))
	payload = append(payload, sa.SpecHash[:]...)
	if sa.HasBackend {
		payload = append(payload, 1)
		for _, blob := range [...][]byte{sa.BaseStats.AppendBinary(nil), sa.TestStats.AppendBinary(nil), sa.BaseHist.AppendBinary(nil), sa.TestHist.AppendBinary(nil)} {
			payload = appendBlob(payload, blob)
		}
	} else {
		payload = append(payload, 0)
	}
	return frame(stats.AppendAccs(payload, sa.fold[:]))
}

// DecodeShard parses a WFSH frame, rejecting truncated, corrupt,
// version-skewed, or structurally invalid payloads: it accepts only what
// EncodeShard writes, and sizes nothing by a count its bytes do not back.
func DecodeShard(data []byte) (*ShardAggregate, error) {
	payload, err := unframe(data)
	if err != nil {
		return nil, err
	}
	if len(payload) < shardHeadSize {
		return nil, fmt.Errorf("fleet: shard payload is %d bytes, want at least %d", len(payload), shardHeadSize)
	}
	sa := &ShardAggregate{
		Index: int(int32(binary.LittleEndian.Uint32(payload))),
		Lo:    int(int64(binary.LittleEndian.Uint64(payload[4:]))),
		Hi:    int(int64(binary.LittleEndian.Uint64(payload[12:]))),
	}
	copy(sa.SpecHash[:], payload[20:52])
	switch payload[52] {
	case 0:
	case 1:
		sa.HasBackend = true
	default:
		return nil, fmt.Errorf("fleet: shard backend flag %d, want 0 or 1", payload[52])
	}
	if sa.Index < 0 || sa.Lo < 0 || sa.Hi <= sa.Lo {
		return nil, fmt.Errorf("fleet: shard %d range [%d, %d) is inconsistent", sa.Index, sa.Lo, sa.Hi)
	}
	rest := payload[shardHeadSize:]
	if sa.HasBackend {
		sa.BaseHist, sa.TestHist = &backend.Histogram{}, &backend.Histogram{}
		for _, u := range [...]encoding.BinaryUnmarshaler{&sa.BaseStats, &sa.TestStats, sa.BaseHist, sa.TestHist} {
			blob, r, err := takeBlob(rest)
			if err == nil {
				err = u.UnmarshalBinary(blob)
			}
			if err != nil {
				return nil, err
			}
			rest = r
		}
	}
	if err := stats.DecodeAccs(rest, sa.Hi-sa.Lo, sa.fold[:]); err != nil {
		return nil, fmt.Errorf("fleet: shard [%d, %d) state: %w", sa.Lo, sa.Hi, err)
	}
	return sa, nil
}
