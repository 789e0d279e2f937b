package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/shardexec"
)

// workerEnv marks a re-executed test binary as a shard worker.
const workerEnv = "WAKEBENCH_TEST_SHARDWORKER=1"

func TestMain(m *testing.M) {
	if os.Getenv(strings.Split(workerEnv, "=")[0]) != "" {
		os.Exit(shardexec.WorkerMain(context.Background(), os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of the repository's BENCHMARK.json this test
// holds the program to.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(blob))
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestDeclarationsMatchBenchmarkJSON pins the workload list and both
// metric lists, names and units in order, to BENCHMARK.json.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range bj.Workloads {
		declared = append(declared, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(declared, ",") {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", names, declared)
	}
	var e2e, layer []metricSpec
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit})
	}
	if !equalSpecs(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v, program %v", e2e, endToEnd)
	}
	if !equalSpecs(layer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json %v, program %v", layer, perLayer)
	}
}

func equalSpecs(a, b []metricSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsShort runs every workload, untraced and traced, on tiny
// inputs, and checks that each verdict is correct and carries exactly the
// metrics BENCHMARK.json declares for its mode, with their units.
func TestWorkloadsShort(t *testing.T) {
	bj := readBenchmarkJSON(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bj.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		want[true][m.Name] = m.Unit
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				o := options{
					workload: w.name, seed: 3, window: 200 * time.Millisecond, trace: trace, short: true,
					tmpDir: t.TempDir(), workerArgv: []string{exe}, workerEnv: []string{workerEnv},
				}
				var stdout, stderr bytes.Buffer
				if err := run(o, &stdout, &stderr); err != nil {
					t.Fatalf("run: %v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				for _, l := range lines[:len(lines)-1] {
					var m map[string]any
					if err := json.Unmarshal([]byte(l), &m); err != nil {
						t.Fatalf("output line %q: %v", l, err)
					}
					if wl, ok := m["workload"]; ok && wl != w.name {
						t.Errorf("line %q names workload %v", l, wl)
					}
				}
				var v verdict
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
					t.Fatalf("verdict %q: %v", lines[len(lines)-1], err)
				}
				if !v.Correct || v.Failed != 0 || v.Attempted < 1 {
					t.Errorf("verdict correct=%v attempted=%d failed=%d\n%s", v.Correct, v.Attempted, v.Failed, stderr.String())
				}
				for k, m := range v.Metrics {
					if unit, ok := want[trace][k]; !ok || unit != m.Unit {
						t.Errorf("emitted %s (%s), BENCHMARK.json declares %q", k, m.Unit, unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", k, m.Value)
					}
				}
				for k := range want[trace] {
					if _, ok := v.Metrics[k]; !ok {
						t.Errorf("BENCHMARK.json declares %s, not emitted", k)
					}
				}
			})
		}
	}
}

// TestRunRejectsUnknownWorkload checks the error path prints nothing.
func TestRunRejectsUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(options{workload: "bogus", window: time.Second}, &stdout, &stderr)
	if err == nil || stdout.Len() != 0 {
		t.Fatalf("run(bogus) = %v, stdout %q", err, stdout.String())
	}
}

func TestCPUBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/simclock.(*Clock).fireMin":                      "simclock",
		"repro/internal/sim.(*runEnv).schedulePushes.func1":             "sim",
		"repro/internal/sim.runAttempt[go.shape.*repro/internal/fleet]": "sim",
		"repro/internal/shardexec.Run":                                  "other",
		"runtime.mallocgc":                                              "runtime",
		"runtime/internal/syscall.Syscall6":                             "runtime",
		"internal/runtime/syscall.Syscall6":                             "runtime",
		"encoding/json.(*decodeState).object":                           "other",
		"main.runDevice.func2":                                          "other",
		"[unknown]":                                                     "other",
	} {
		if got := cpuBucket(fn); got != want {
			t.Errorf("cpuBucket(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBucketTop buckets canned `go tool pprof -top` output.
func TestBucketTop(t *testing.T) {
	const top = `File: wakebench
Type: cpu
Time: 2026-10-16 01:15:00 UTC
Duration: 2s, Total samples = 2s (100.00%)
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.80s 40.00% 40.00%      0.90s 45.00%  repro/internal/simclock.(*Clock).fireMin
     0.60s 30.00% 70.00%      0.60s 30.00%  runtime.mallocgc
     0.40s 20.00% 90.00%      1.20s 60.00%  repro/internal/alarm.(*Queue).Insert
     0.10s  5.00% 95.00%      0.10s  5.00%  repro/internal/shardexec.Run
     0.10s  5.00%   100%      0.10s  5.00%  sort.Slice
         0     0%   100%      2s   100%  main.main
`
	shares, rows, err := bucketTop([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	if rows != 6 {
		t.Errorf("rows = %d, want 6", rows)
	}
	want := map[string]float64{"simclock": 0.4, "runtime": 0.3, "alarm": 0.2, "other": 0.1}
	for k, v := range want {
		if math.Abs(shares[k]-v) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", k, shares[k], v)
		}
	}
	if len(shares) != len(want) {
		t.Errorf("shares = %v, want %v", shares, want)
	}

	empty, rows, err := bucketTop([]byte("Showing nodes accounting for 0, 0% of 0 total\n      flat  flat%   sum%        cum   cum%\n"))
	if err != nil || rows != 0 || len(empty) != 0 {
		t.Errorf("empty profile: shares %v, rows %d, err %v", empty, rows, err)
	}
	if _, _, err := bucketTop([]byte("      flat  flat%   sum%        cum   cum%\n 1s x% 1% 1s 1% f\n")); err == nil {
		t.Error("malformed row accepted")
	}
}
