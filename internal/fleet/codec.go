package fleet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/backend"
)

// The framed binary format of the multi-process fleet protocol. A
// "WFSH" frame carries one ShardAggregate — what a shard-worker process
// writes to stdout and what a checkpoint file persists per shard:
//
//	[magic 4][version u16][payload length u32][payload][crc32c u32]
//
// The CRC (Castagnoli) covers the envelope header and payload, so a
// truncated pipe, a torn checkpoint tail, or a flipped bit decodes as a
// loud error instead of a silently wrong summary. All integers are
// little-endian and floats cross as their IEEE-754 bit patterns —
// decode(encode(x)) is x, bit for bit, which is what lets a resumed run,
// which refolds its checkpointed shards, produce byte-identical Summary
// JSON.

const (
	shardMagic = "WFSH"

	// CodecVersion is the on-wire version of the shard frame. Bump it
	// on any layout change: a supervisor refuses frames from a worker
	// or checkpoint of a different version instead of misparsing them.
	// v2 added the Age-of-Information mean to PolicyObs rows.
	CodecVersion = 2

	frameHeaderSize = 4 + 2 + 4
	policyObsSize   = 8 * 8
	obsSize         = 1 + 2*policyObsSize + 4*8
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
	if got := string(data[:4]); got != shardMagic {
		return nil, fmt.Errorf("fleet: frame magic %q, want %q", got, shardMagic)
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

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendPolicyObs(b []byte, o PolicyObs) []byte {
	b = appendFloat(b, o.EnergyMJ)
	b = appendFloat(b, o.StandbyHours)
	b = appendFloat(b, o.Wakeups)
	b = appendFloat(b, o.ImperceptibleDelay)
	b = binary.LittleEndian.AppendUint64(b, uint64(o.PerceptibleLate))
	b = binary.LittleEndian.AppendUint64(b, uint64(o.GraceLate))
	b = appendFloat(b, o.MaxPerceptibleDelay)
	return appendFloat(b, o.AoIMean)
}

func decodePolicyObs(data []byte) (PolicyObs, error) {
	o := PolicyObs{
		EnergyMJ:            math.Float64frombits(binary.LittleEndian.Uint64(data)),
		StandbyHours:        math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
		Wakeups:             math.Float64frombits(binary.LittleEndian.Uint64(data[16:])),
		ImperceptibleDelay:  math.Float64frombits(binary.LittleEndian.Uint64(data[24:])),
		PerceptibleLate:     int(int64(binary.LittleEndian.Uint64(data[32:]))),
		GraceLate:           int(int64(binary.LittleEndian.Uint64(data[40:]))),
		MaxPerceptibleDelay: math.Float64frombits(binary.LittleEndian.Uint64(data[48:])),
		AoIMean:             math.Float64frombits(binary.LittleEndian.Uint64(data[56:])),
	}
	if o.PerceptibleLate < 0 || o.GraceLate < 0 {
		return o, fmt.Errorf("fleet: negative guarantee counter in observation row")
	}
	return o, nil
}

func appendObs(b []byte, o Obs) []byte {
	if o.Leaky {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendPolicyObs(b, o.Base)
	b = appendPolicyObs(b, o.Test)
	b = appendFloat(b, o.Total)
	b = appendFloat(b, o.Awake)
	b = appendFloat(b, o.Standby)
	return appendFloat(b, o.Wakeup)
}

func decodeObs(data []byte) (Obs, error) {
	var o Obs
	switch data[0] {
	case 0:
	case 1:
		o.Leaky = true
	default:
		return o, fmt.Errorf("fleet: observation leak flag %d, want 0 or 1", data[0])
	}
	var err error
	if o.Base, err = decodePolicyObs(data[1:]); err != nil {
		return o, err
	}
	if o.Test, err = decodePolicyObs(data[1+policyObsSize:]); err != nil {
		return o, err
	}
	tail := data[1+2*policyObsSize:]
	o.Total = math.Float64frombits(binary.LittleEndian.Uint64(tail))
	o.Awake = math.Float64frombits(binary.LittleEndian.Uint64(tail[8:]))
	o.Standby = math.Float64frombits(binary.LittleEndian.Uint64(tail[16:]))
	o.Wakeup = math.Float64frombits(binary.LittleEndian.Uint64(tail[24:]))
	return o, nil
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
	if len(data) < 4+n {
		return nil, nil, fmt.Errorf("fleet: blob of %d bytes in %d remaining", n, len(data)-4)
	}
	return data[4 : 4+n], data[4+n:], nil
}

// EncodeShard serializes a shard aggregate into a checksummed WFSH
// frame: the worker→supervisor wire format and the checkpoint's
// per-shard record payload.
func EncodeShard(sa *ShardAggregate) []byte {
	payload := make([]byte, 0, 64+obsSize*len(sa.Obs))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(sa.Index))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(sa.Lo))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(sa.Hi))
	payload = append(payload, sa.SpecHash[:]...)
	if sa.HasBackend {
		payload = append(payload, 1)
	} else {
		payload = append(payload, 0)
	}
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(sa.Obs)))
	for i := range sa.Obs {
		payload = appendObs(payload, sa.Obs[i])
	}
	if sa.HasBackend {
		payload = sa.BaseStats.AppendBinary(payload)
		payload = sa.TestStats.AppendBinary(payload)
		payload = appendBlob(payload, sa.BaseHist.AppendBinary(nil))
		payload = appendBlob(payload, sa.TestHist.AppendBinary(nil))
	}
	return frame(payload)
}

// DecodeShard parses a WFSH frame, rejecting truncated, corrupt,
// version-skewed, or structurally invalid payloads.
func DecodeShard(data []byte) (*ShardAggregate, error) {
	payload, err := unframe(data)
	if err != nil {
		return nil, err
	}
	const fixed = 4 + 8 + 8 + 32 + 1 + 4
	if len(payload) < fixed {
		return nil, fmt.Errorf("fleet: shard payload is %d bytes, want at least %d", len(payload), fixed)
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
	n := int(binary.LittleEndian.Uint32(payload[53:]))
	if sa.Index < 0 || sa.Lo < 0 || sa.Hi <= sa.Lo || n != sa.Hi-sa.Lo {
		return nil, fmt.Errorf("fleet: shard %d range [%d, %d) with %d rows is inconsistent", sa.Index, sa.Lo, sa.Hi, n)
	}
	rest := payload[fixed:]
	if len(rest) < n*obsSize {
		return nil, fmt.Errorf("fleet: shard payload holds %d bytes for %d rows of %d", len(rest), n, obsSize)
	}
	sa.Obs = make([]Obs, n)
	for i := 0; i < n; i++ {
		if sa.Obs[i], err = decodeObs(rest[i*obsSize:]); err != nil {
			return nil, fmt.Errorf("fleet: shard row %d: %w", i, err)
		}
	}
	rest = rest[n*obsSize:]
	if !sa.HasBackend {
		if len(rest) != 0 {
			return nil, fmt.Errorf("fleet: %d trailing bytes after backend-less shard", len(rest))
		}
		return sa, nil
	}
	if len(rest) < 2*backend.DeviceStatsBinarySize {
		return nil, fmt.Errorf("fleet: shard backend block truncated")
	}
	if err := sa.BaseStats.UnmarshalBinary(rest[:backend.DeviceStatsBinarySize]); err != nil {
		return nil, err
	}
	if err := sa.TestStats.UnmarshalBinary(rest[backend.DeviceStatsBinarySize : 2*backend.DeviceStatsBinarySize]); err != nil {
		return nil, err
	}
	rest = rest[2*backend.DeviceStatsBinarySize:]
	baseHist, rest, err := takeBlob(rest)
	if err != nil {
		return nil, err
	}
	testHist, rest, err := takeBlob(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("fleet: %d trailing bytes after shard backend block", len(rest))
	}
	sa.BaseHist, sa.TestHist = &backend.Histogram{}, &backend.Histogram{}
	if err := sa.BaseHist.UnmarshalBinary(baseHist); err != nil {
		return nil, err
	}
	if err := sa.TestHist.UnmarshalBinary(testHist); err != nil {
		return nil, err
	}
	return sa, nil
}
