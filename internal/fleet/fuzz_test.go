package fleet

import (
	"bytes"
	"context"
	"runtime"
	"testing"
)

// FuzzFleetSpec: ReadSpec is total over arbitrary bytes — it either
// rejects the input with an error or returns a spec whose sampling and
// config-building paths cannot panic.
func FuzzFleetSpec(f *testing.F) {
	f.Add([]byte(`{"devices": 10}`))
	f.Add([]byte(`{"devices": 3, "seed": -9, "hours": 0.5, "beta": 0.5,
		"base_policy": "noalign", "test_policy": "simty-dur",
		"apps": {"min": 1, "max": 64}, "one_shots": {"min": 0, "max": 1000},
		"pushes_per_hour": {"min": 0, "max": 1000},
		"screens_per_hour": {"min": 0.5, "max": 0.5},
		"task_jitter": {"min": 0, "max": 0.999},
		"battery_scale": {"min": 0.01, "max": 100},
		"leak_fraction": 1, "system_alarms": true, "zero_wake_latency": true}`))
	f.Add([]byte(`{"devices": 10000000, "hours": 10000}`))
	f.Add([]byte(`{"devices": 0}`))
	f.Add([]byte(`{"apps": {"min": 9e99}}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ReadSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		// An accepted spec must sample and build configs without panics,
		// and the samples must respect the spec's own bounds.
		for _, i := range []int{0, spec.Devices - 1} {
			d := spec.SampleDevice(i)
			if len(d.Workload) == 0 {
				t.Fatalf("device %d sampled an empty workload", i)
			}
			if d.LeakApp != "" {
				installed := false
				for _, w := range d.Workload {
					installed = installed || w.Name == d.LeakApp
				}
				if !installed {
					t.Fatalf("device %d leaks %q, which is not installed", i, d.LeakApp)
				}
			}
			s := spec.WithDefaults()
			for _, policy := range []string{s.BasePolicy, s.TestPolicy} {
				cfg := spec.Config(d, policy)
				if len(cfg.Workload) != len(d.Workload) {
					t.Fatalf("config dropped workload apps: %d vs %d", len(cfg.Workload), len(d.Workload))
				}
			}
		}
	})
}

// FuzzDecodeShard: DecodeShard is total over arbitrary bytes. It never
// panics; an accepted frame re-encodes to exactly its bytes; and a
// rejected one allocated little, because every count or length the
// decoder reads is checked against the bytes that remain, and the whole
// payload validated, before anything is sized by it. Each input is
// decoded as it is and, rewrapped in a valid envelope, as a payload, so
// mutations reach the payload parser instead of failing the checksum.
// The seeds are real frames, with and without a backend model.
func FuzzDecodeShard(f *testing.F) {
	specs := shardSpecs()
	for _, name := range []string{"plain", "backend"} {
		for _, r := range [][2]int{{0, 1}, {1, 3}} {
			sa, err := RunShard(context.Background(), specs[name], r[0], r[1], 2)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(EncodeShard(sa))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frames := [][]byte{data}
		if len(data) >= frameHeaderSize+4 {
			frames = append(frames, frame(data[frameHeaderSize:len(data)-4]))
		}
		for _, b := range frames {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sa, err := DecodeShard(b)
			runtime.ReadMemStats(&after)
			if err != nil {
				// The shard struct, error text and histogram maps: a
				// fixed allowance plus a few bytes per input byte.
				if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(b)); got > bound {
					t.Fatalf("rejected a %d-byte frame after allocating %d bytes (bound %d): %v", len(b), got, bound, err)
				}
				continue
			}
			if out := EncodeShard(sa); !bytes.Equal(out, b) {
				t.Fatalf("accepted frame re-encodes to different bytes:\n in %x\nout %x", b, out)
			}
		}
	})
}
