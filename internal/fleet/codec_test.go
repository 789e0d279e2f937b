package fleet

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
)

// TestShardCodecRoundTrip: DecodeShard reads back exactly what
// EncodeShard wrote — the decoded shard re-encodes to the same bytes and
// merges to the same summary as the original — and the encoding is
// deterministic, for both fleet shapes.
func TestShardCodecRoundTrip(t *testing.T) {
	for name, spec := range shardSpecs() {
		t.Run(name, func(t *testing.T) {
			want, got := NewAggregate(spec), NewAggregate(spec)
			for _, sa := range runShards(t, spec, 7) {
				blob := EncodeShard(sa)
				if string(blob) != string(EncodeShard(sa)) {
					t.Fatal("shard encoding is not deterministic")
				}
				dec, err := DecodeShard(blob)
				if err != nil {
					t.Fatal(err)
				}
				if string(EncodeShard(dec)) != string(blob) {
					t.Fatalf("shard [%d, %d) re-encodes to different bytes", sa.Lo, sa.Hi)
				}
				if err := want.MergeShard(sa); err != nil {
					t.Fatal(err)
				}
				if err := got.MergeShard(dec); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(got.Summary(), want.Summary()) {
				t.Fatal("decoded shards merge to a different summary")
			}
		})
	}
}

// TestShardCodecRejectsBadFrames pins every rejection path of the
// envelope and payload: truncation, trailing bytes, magic/version skew,
// checksum damage, and structural inconsistencies.
func TestShardCodecRejectsBadFrames(t *testing.T) {
	spec := shardSpecs()["backend"]
	sa := runShards(t, spec, 8)[0]
	blob := EncodeShard(sa)

	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), blob...)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"empty":            nil,
		"truncated header": blob[:6],
		"truncated body":   blob[:len(blob)-5],
		"trailing bytes":   append(append([]byte(nil), blob...), 0xaa),
		"bad magic":        mutate(func(b []byte) { b[0] = 'X' }),
		"bad version":      mutate(func(b []byte) { b[4], b[5] = 0xff, 0xff }),
		"flipped bit":      mutate(func(b []byte) { b[len(b)/2] ^= 0x40 }),
		"damaged crc":      mutate(func(b []byte) { b[len(b)-1] ^= 0x01 }),
	}
	for name, b := range cases {
		if _, err := DecodeShard(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	// Structural damage behind a recomputed (valid) checksum: the range
	// no longer matches the state's device count.
	reframed := func(f func(b []byte)) []byte {
		payload := append([]byte(nil), blob[frameHeaderSize:len(blob)-4]...)
		f(payload)
		return frame(payload)
	}
	if _, err := DecodeShard(reframed(func(p []byte) { p[4] = 0xee })); err == nil {
		t.Error("inconsistent shard range accepted")
	}
	if _, err := DecodeShard(reframed(func(p []byte) { p[52] = 7 })); err == nil {
		t.Error("invalid backend flag accepted")
	}
}

// TestShardFramePinned pins one backend shard frame, the first 16
// devices of the SIMTY-J herd fleet on one worker, byte for byte: a
// checkpoint written by an earlier build resumes only while the frame a
// shard encodes to stays the same.
func TestShardFramePinned(t *testing.T) {
	sa, err := RunShard(context.Background(), herdSpec("SIMTY-J"), 0, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob := EncodeShard(sa)
	const wantLen, wantSum = 15125, "b76c51e791a6a32378c6aa189f0f618a94ce59251c2379ea05cb7d023704aa9a"
	if sum := fmt.Sprintf("%x", sha256.Sum256(blob)); len(blob) != wantLen || sum != wantSum {
		t.Errorf("frame is %d bytes with SHA-256 %s, want %d bytes with %s", len(blob), sum, wantLen, wantSum)
	}
}

func benchShard(b *testing.B) *ShardAggregate {
	b.Helper()
	spec := Spec{Devices: 256, Seed: 9, Hours: 0.1}.WithDefaults()
	sa, err := RunShard(context.Background(), spec, 0, 256, 0)
	if err != nil {
		b.Fatal(err)
	}
	return sa
}

// BenchmarkEncodeShard serializes a 256-device shard.
func BenchmarkEncodeShard(b *testing.B) {
	sa := benchShard(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if blob := EncodeShard(sa); len(blob) == 0 {
			b.Fatal("empty frame")
		}
	}
}

// BenchmarkDecodeShard parses and validates the same frame.
func BenchmarkDecodeShard(b *testing.B) {
	blob := EncodeShard(benchShard(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeShard(blob); err != nil {
			b.Fatal(err)
		}
	}
}
