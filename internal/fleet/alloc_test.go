package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestRunShardAllocsPerDevice pins what one more device allocates: the
// slope of RunShard's allocations between 32 and 160 devices on one
// worker, so the pool, the aggregate, the warm-up and the Results a
// stream lends cancel out. A device samples into recycled inputs, takes
// its name from a block shared by up to 1,024 devices, its environment
// keeps its policy and fault injector, and its runs overwrite lent
// Results, so nothing is left that every device makes. The benchmark
// fleet reads 0.23 (0.24 under -race): its aggregate's accumulators grow
// as they meet new keys, and the lent Results' buffers now and then. The
// other rows are the tournament's shapes: a diurnal fleet whose two
// policies alternate on every environment (0.09), and SIMTY against
// SIMTY-J (3.10), whose registry policy is an alarm.Jitter value built
// on every test run: the Jitter, its inner SIMTY and its name. The run
// environments, device inputs and policies stay on their free lists
// through collections, so the counts hold with collection on, and the
// race build's pools drop nothing the devices use.
//
// testing.AllocsPerRun measures at GOMAXPROCS 1, where a stream's worker
// yields each finished run to the delivery before it makes a Result, so
// a shard makes two Results whatever its size; a third now and then
// (the deliverer preempted twice in a row, under load) is why each size
// counts the least of three shards.
func TestRunShardAllocsPerDevice(t *testing.T) {
	steady := Spec{
		Hours: 0.5, SystemAlarms: true, ZeroWakeLatency: true,
		Apps:          IntRange{Min: 4, Max: 12},
		PushesPerHour: Range{Min: 0, Max: 4}, ScreensPerHour: Range{Min: 0, Max: 2},
	}
	diurnal := steady
	diurnal.Diurnal = true
	diurnal.BasePolicy, diurnal.TestPolicy = "SIMTY-U", "AOI"
	jitter := steady
	jitter.BasePolicy, jitter.TestPolicy = "SIMTY", "SIMTY-J"
	for _, row := range []struct {
		name    string
		spec    func(devices int) Spec
		ceiling float64
	}{
		{"benchmark", benchFleetSpec, 0.5},
		{"diurnal SIMTY-U vs AOI", withDevices(diurnal), 0.5},
		{"SIMTY vs SIMTY-J", withDevices(jitter), 3.5},
	} {
		// allocs is the least of three warm shards' counts.
		allocs := func(devices int) float64 {
			spec := row.spec(devices)
			least := math.Inf(1)
			for i := 0; i < 3; i++ {
				least = min(least, testing.AllocsPerRun(1, func() {
					if _, err := RunShard(context.Background(), spec, 0, devices, 1); err != nil {
						t.Fatal(err)
					}
				}))
			}
			return least
		}
		lo, hi := allocs(32), allocs(160)
		slope := (hi - lo) / 128
		t.Logf("%s: 32 devices: %.0f allocations, 160: %.0f, %.2f per device", row.name, lo, hi, slope)
		if slope > row.ceiling {
			t.Errorf("%s: %.2f allocations per device, ceiling %.2f", row.name, slope, row.ceiling)
		}
	}
}

// withDevices returns spec's fleet at a given size.
func withDevices(spec Spec) func(devices int) Spec {
	return func(devices int) Spec {
		spec.Devices = devices
		return spec
	}
}

// TestPermReplaysRandPerm: perm draws Perm's permutation into a scratch
// that holds another one, and leaves the source where Perm leaves it.
func TestPermReplaysRandPerm(t *testing.T) {
	scratch := []int{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
	for _, n := range []int{0, 1, 2, 7, 18, 30} {
		a, b := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		want := a.Perm(n)
		scratch = perm(b, scratch, n)
		if !slices.Equal(scratch, want) {
			t.Errorf("perm(%d) = %v, want %v", n, scratch, want)
		}
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Errorf("after perm(%d) the source draws %d, after Perm %d", n, y, x)
		}
	}
}

// TestDeviceNameMatchesSprintf: a device's name is the bytes
// fmt.Sprintf("dev%06d") prints, at the padding's edges and past them.
func TestDeviceNameMatchesSprintf(t *testing.T) {
	for _, i := range []int{0, 7, 99_999, 999_999, 1_000_000, 9_999_999, -1, -12345, -123456} {
		if got, want := deviceName(i), fmt.Sprintf("dev%06d", i); got != want {
			t.Errorf("deviceName(%d) = %q, want %q", i, got, want)
		}
	}
}

// TestNamesMatchDeviceName: names hands out deviceName's bytes across
// its blocks' edges, across the name growing a digit at 1,000,000 and
// up to the fleet cap, one string per block.
func TestNamesMatchDeviceName(t *testing.T) {
	for _, r := range [][2]int{{0, 3000}, {5, 6}, {998_000, 1_002_100}, {maxDevices - 2100, maxDevices}} {
		var n names
		blocks := map[*byte]bool{}
		for i := r[0]; i < r[1]; i++ {
			got := n.name(i, r[1])
			if want := fmt.Sprintf("dev%06d", i); got != want {
				t.Fatalf("names [%d, %d): device %d is %q, want %q", r[0], r[1], i, got, want)
			}
			blocks[unsafe.StringData(n.block)] = true
		}
		// One more block where the name grows a digit.
		if most := (r[1]-r[0]+nameBlock-1)/nameBlock + 1; len(blocks) > most {
			t.Errorf("names [%d, %d) made %d blocks, want at most %d", r[0], r[1], len(blocks), most)
		}
	}
}

// TestRecycledInputsMatchFreshSampling: a fleet samples every device into
// inputs an earlier device left behind, yet each run's config is the one
// Spec.Config builds for SampleDevice. Two fleets run in turn on one
// worker: the first with large app mixes, every device leaking and its
// battery scaled, the second with small mixes, some leaks and an
// unscaled battery, so the second's devices take over inputs that hold
// longer mixes, fault plans and scaled profiles than they need. Then
// both run at once, taking inputs from the one free list.
func TestRecycledInputsMatchFreshSampling(t *testing.T) {
	big := benchFleetSpec(40)
	big.Hours, big.Apps, big.LeakFraction = 1, IntRange{Min: 10, Max: 12}, 1
	small := benchFleetSpec(40)
	small.Hours, small.Seed, small.Apps, small.BatteryScale = 1, 2, IntRange{Min: 1, Max: 3}, Range{}
	small.LeakFraction = 0.3
	// check runs spec's fleet and returns how many of its devices leak.
	check := func(spec Spec) (leaks int) {
		spec = spec.WithDefaults()
		i := 0
		err := runDevices(context.Background(), spec, 0, spec.Devices, 1, nil, func(base, test *sim.Result) {
			d := spec.SampleDevice(i)
			if d.LeakApp != "" {
				leaks++
			}
			for _, r := range []*sim.Result{base, test} {
				want := spec.Config(d, r.Config.Policy)
				want.NoTrace = true
				if !reflect.DeepEqual(r.Config, want) {
					t.Errorf("device %d (%s) ran\n%+v\nwant\n%+v", i, r.Config.Policy, r.Config, want)
				}
			}
			i++
		})
		if err != nil {
			t.Error(err)
		}
		return leaks
	}
	check(big)
	if leaks := check(small); leaks == 0 || leaks == small.Devices {
		t.Fatalf("%d of the second fleet's devices leak: it must mix leaking and healthy devices", leaks)
	}
	var wg sync.WaitGroup
	for _, spec := range []Spec{big, small} {
		wg.Add(1)
		go func(spec Spec) {
			defer wg.Done()
			check(spec)
		}(spec)
	}
	wg.Wait()
}
