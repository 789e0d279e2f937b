// Command wakebench is the repository benchmark. One invocation runs one
// named workload in its own process: it builds the workload's inputs from
// --seed, times the workload for --seconds, checks every simulated output
// against a reference, and prints one JSON line per measurement
// ({workload, metric, value, unit, n}), a digest of the simulated outputs,
// and a one-line verdict last:
//
//	{"correct":true,"attempted":8123,"failed":0,"metrics":{"setup_s":{"value":0.051,"unit":"s"},...}}
//
// It is a module of its own, whose go.mod points repro at the repository
// root. Run it from the repository root through run.sh, which builds it
// into .bench_build/:
//
//	bash cmd/wakebench/run.sh --workload device-heavy --seed 1 --seconds 20 --trace 0
//
// or with go run . from this directory. Its test runs with go test from
// this directory; go test ./... at the repository root does not reach a
// nested module.
//
// The first output line records the Go version, GOMAXPROCS, nproc, the CPU
// model and the VCS revision. BENCHMARK.json at the repository root
// declares the workloads and the metrics of the verdict; main_test.go
// keeps this program and that file in step.
//
// # Workloads
//
// --seed shifts every seed a workload uses, so a seed fixes the inputs,
// and the program under test receives only the inputs generated here. The
// simulator's pools keep their GOMAXPROCS defaults; the benchmark itself
// uses at most two goroutines or connections (nproc on the reference
// host). Each window runs after the set-up's warm-up and a GC.
//
//   - device-heavy: a closed loop on one goroutine calling sim.Run on the
//     paper's heavy workload (Table 3's 18 apps, system alarms, 6
//     one-shots, 3 h, SIMTY, NoTrace), seeds seed..seed+15 in rotation.
//     It is the ROADMAP's unit of cost at paper scale. The event heap is
//     shallow, so per-run set-up and metric streaming weigh the most.
//   - device-dense: the same loop on 10 copies of the light workload (120
//     apps plus system alarms): the same code with a roughly 10x working
//     set, a deep event heap, long queues and large batches. 10x is the
//     smallest point of examples/sweep's large-population grid.
//   - fleet: report -experiment fleet's population plus the default
//     backend model, 4,096 devices, in alternating pairs, at least two:
//     fleet.Run in-process, and shardexec.Run on two worker processes of
//     one sim worker each in the default 2,048-device shards (the worker
//     is this binary re-executed with --shardworker). The same devices go
//     through both dispatch paths, which separates the sim.RunAll pool's
//     batch barriers and in-order fold from process spawn, the shard codec
//     and the merge. The backend model adds histogram merges and
//     backend.Serve.
//   - service-mixed: runstore.New(0) behind httpapi.New with default
//     options on a loopback httptest listener. An open-loop schedule posts
//     {"workload":"heavy","hours":3} every 10 ms and
//     {"devices":100,"hours":3} every second, each followed by an SSE tail
//     until done, from two senders over at most two connections. Latency
//     counts from the time a request was due. It is the only path through
//     runstore, httpapi and SSE; runs share the two execution slots and
//     both cores with fleets, so a gain for one class that costs the other
//     shows.
//   - tournament: tournament.Run of the default spec (6 policies across
//     the steady, diurnal and sync-heavy regimes), 96 devices, at least
//     three times after an 8-device warm-up. It is the only workload with
//     24 h diurnal horizons and the SIMTY-U, AOI and SIMTY-J policies;
//     diurnal cells take most of its time.
//
// # Correctness
//
// Every mismatch counts in the verdict's failed, which stands in for a
// failed_frac metric (a metric must never read 0). device-*: the set-up
// runs every seed in NoTrace and in retained mode, which must agree and
// must repeat across set-up repetitions, and every timed run equals its
// seed's set-up run. fleet: both summaries of a pair are byte-identical
// and equal the first pair's, and the supervisor launches one worker per
// shard with no retry or quarantine. service-mixed: every SSE stream ends
// in a done frame with state done, every fleet's final snapshot equals a
// direct fleet.Run of its body byte for byte, and every run's stored
// summary equals a direct sim.Run's. tournament: the scoreboard is
// byte-stable across repetitions and no cell delivers a perceptible alarm
// late. The digest line hashes simulated outputs fixed by the seed alone,
// so a later change can show that every simulated statistic is unchanged.
//
// # End-to-end metrics (--trace 0)
//
// Every workload reports the same four metrics; BENCHMARK.json fixes the
// bound by which each may worsen:
//
//   - setup_s: the median wall time of five repetitions of the set-up:
//     building the inputs, the warm-up, and the reference runs the checks
//     compare against; service-mixed also starts a fresh server each time.
//     It is a median of repetitions rather than the one span from process
//     start because that span also carries the process's one-off costs
//     (exec, page faults, heap growth), which vary more than the set-up.
//   - allocs_per_run, alloc_kb_per_run: heap allocations of this process
//     during the window per simulated device-run (a fleet device is two
//     runs, base and test policy). In fleet the multi-process half runs in
//     the workers, so it adds only the supervisor's cost. For a given seed
//     they repeat to a few parts per million; across seeds they vary with
//     the sampled population, by 4% in tournament.
//   - peak_rss_mb: this process's peak resident set (VmHWM) during the
//     window. Operations of a second or more report their own peaks, and
//     the metric is their median, because a peak moves with where garbage
//     collections fall.
//
// Request timings are measured in every run and reported by the traced
// run, but no bound gates them. On a shared 2-vCPU virtual machine the
// same binary's timings moved by up to 22% between two sets of ten runs,
// and spread by 10-20% across the runs of one set, on every timing of at
// least one workload, so none repeats within the 10% a timing bound
// allows. Compare them across commits with alternating paired runs. A
// request is the unit its user waits for: one sim.Run (device-*), one
// fleet (fleet), one HTTP submission until its done frame (service-mixed),
// one tournament cell (tournament):
//
//   - latency_ms_p50, latency_ms_p90: request latency; n is the request
//     count.
//   - latency_ms_best: the median over a workload's distinct requests
//     (device seeds, fleet dispatch paths, service request bodies,
//     tournament cells) of each one's fastest repetition, the timing other
//     tenants move least.
//   - device_runs_per_s: simulated device-runs completed per second of
//     window. Under service-mixed's open loop it follows the offered rate.
//
// Also printed, outside the verdict: fleet_devices_per_s,
// fleet_procs_devices_per_s and worker_peak_rss_mb (fleet),
// run_submit_to_done_ms_p50/p90 and fleet_submit_to_done_ms_p50
// (service-mixed), and tournament_cell_s (tournament).
//
// # Per-layer metrics (--trace 1) and the metric each moves
//
// A traced run times the first half of the window untraced, reporting the
// request timings above, and the second half with tracing on and a CPU
// profile running; trace_overhead_frac is the traced median request
// latency over the untraced one, minus 1. It then replays a sample of the
// workload's own device configurations through the layers' public calls,
// from outside the program:
//
//   - alarm/core (alarm.select_calls, alarm.select_us,
//     alarm.queue_len_mean, alarm.join_ratio, core.hw_column_calls, per
//     device-run): a timing alarm.Policy wraps the registry-built policy,
//     passed as sim.Config.Custom, with a counting core.HardwareClassifier
//     inside the SIMTY family; on device-* the traced half runs with it.
//     Moves latency_ms_p50, most on device-dense.
//   - sim set-up (sim.setup_us, sim.setup_allocs): sim.Run of the same
//     configurations with a 1 ms horizon. Moves latency_ms_p50 and
//     allocs_per_run on device-heavy, little on device-dense.
//   - metrics (metrics.ns_per_record): the retained Records replayed
//     through the six public accumulators. Moves latency_ms_p50 on
//     device-heavy.
//   - counts (alarm.deliveries, device.wakeups, per device-run).
//   - CPU profile (cpu.<bucket>): each package's share of the profiled
//     self time, from runtime/pprof and go tool pprof -top. cpu.simclock
//     should move device-dense; cpu.runtime the allocation metrics and
//     fleet_devices_per_s.
//
// Layers that only some workloads reach are printed as JSON lines, outside
// the verdict:
//
//   - fleet pipeline (fleet): the supervisor pipeline replayed with
//     SampleDevice/Config, RunShard, EncodeShard, DecodeShard, MergeShard,
//     Summary and backend.Serve. Moves both fleet throughputs; codec time
//     and frame size move only fleet_procs_devices_per_s.
//   - sim.RunAll pool (fleet): sim.pool_busy_frac and fleet.fold_share,
//     from RunProgress and Progress timestamps. Moves fleet_devices_per_s
//     only.
//   - shardexec (fleet): shard wall, its overhead over RunShard of the
//     same range, attempts and retries, from OnShard timestamps. Moves
//     fleet_procs_devices_per_s only.
//   - httpapi/runstore (service-mixed): POST-to-202, queue wait and
//     execution per request class, SSE frames and KB per fleet, device
//     frames lost, late sends, run p99. Moves the submit-to-done
//     latencies.
//   - tournament: tournament.cell_s.<regime>. Moves tournament_cell_s;
//     diurnal dominates.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/shardexec"
)

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median.
const setupReps = 5

// metricSpec declares one metric of the verdict.
type metricSpec struct{ name, unit string }

// endToEnd is the verdict of an untraced run; BENCHMARK.json declares the
// same list.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"allocs_per_run", "count"},
	{"alloc_kb_per_run", "KB"},
	{"peak_rss_mb", "MB"},
}

// cpuBuckets are the packages the CPU profile is split into: the
// simulator's layers, the Go runtime, and everything else.
var cpuBuckets = []string{
	"simclock", "alarm", "core", "device", "hw", "power", "apps",
	"metrics", "sim", "fleet", "stats", "backend", "runtime", "other",
}

// perLayer is the verdict of a traced run; BENCHMARK.json declares the
// same list.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"latency_ms_p50", "ms"},
		{"latency_ms_p90", "ms"},
		{"latency_ms_best", "ms"},
		{"device_runs_per_s", "1/s"},
		{"alarm.select_calls", "count"},
		{"alarm.select_us", "us"},
		{"alarm.queue_len_mean", "count"},
		{"alarm.join_ratio", "frac"},
		{"core.hw_column_calls", "count"},
		{"alarm.deliveries", "count"},
		{"device.wakeups", "count"},
		{"sim.setup_us", "us"},
		{"sim.setup_allocs", "count"},
		{"metrics.ns_per_record", "ns"},
	}
	for _, b := range cpuBuckets {
		m = append(m, metricSpec{"cpu." + b, "frac"})
	}
	return append(m, metricSpec{"trace_overhead_frac", "frac"})
}()

// workloads maps each workload name to its body, in BENCHMARK.json order.
var workloads = []struct {
	name string
	run  func(*bench) error
}{
	{"device-heavy", func(b *bench) error { return runDevice(b, false) }},
	{"device-dense", func(b *bench) error { return runDevice(b, true) }},
	{"fleet", runFleet},
	{"service-mixed", runService},
	{"tournament", runTournament},
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// short shrinks every input so the package test can run each
	// workload in well under a second of simulation.
	short bool
	// tmpDir receives the CPU profile of a traced run.
	tmpDir string
	// workerArgv/workerEnv override the shard-worker command (empty means
	// this executable with -shardworker).
	workerArgv, workerEnv []string
}

// measurement is one printed JSON line.
type measurement struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
}

// verdictValue is one metric of the verdict line.
type verdictValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of the output.
type verdict struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]verdictValue `json:"metrics"`
}

// bench carries one invocation's state: options, output, the values
// measured so far, the correctness tally, and the alarm/core counters of
// a traced run.
type bench struct {
	options
	out       *json.Encoder
	log       io.Writer
	values    map[string]verdictValue
	attempted int
	failed    int
	layers    layerCounters
}

// emit prints one measurement and records it for the verdict.
func (b *bench) emit(name string, v float64, unit string, n int) {
	b.out.Encode(measurement{Workload: b.workload, Metric: name, Value: v, Unit: unit, N: n})
	b.values[name] = verdictValue{Value: v, Unit: unit}
}

// fail counts one wrong output of an operation already attempted. Timed
// loops call it only on a mismatch, so a passing check allocates nothing.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(b.log, "wakebench: %s: check failed: %s\n", b.workload, fmt.Sprintf(format, args...))
}

// verify counts one reference check as attempted, and as failed unless ok.
func (b *bench) verify(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.fail(format, args...)
	}
}

// digest prints the hash of a workload's simulated outputs. It depends
// only on the seed, so two builds that simulate identically print the
// same digest.
func (b *bench) digest(blob []byte) {
	sum := sha256.Sum256(blob)
	b.out.Encode(map[string]string{"workload": b.workload, "digest": hex.EncodeToString(sum[:])})
}

// setup runs fn setupReps times and reports the median wall time as
// setup_s. rep is the repetition index, so fn can compare a repetition's
// outputs with the first one's.
func (b *bench) setup(fn func(rep int) error) error {
	walls := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		if err := fn(rep); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	b.emit("setup_s", quantile(walls, 0.5), "s", len(walls))
	return nil
}

// opFunc executes one timed request batch: it returns the request
// latencies in milliseconds and the device-runs it completed. traced
// turns on the workload's own instrumentation; d is the window, for
// workloads whose one operation fills it.
type opFunc func(traced bool, d time.Duration) (latMS []float64, runs int, err error)

// window is what one timed window measured.
type window struct {
	lat              []float64
	runs, ops        int
	elapsed          time.Duration
	mallocs, allocKB float64
	peakMB           []float64
}

// ownPeak is the shortest operation whose own peak resident set timed
// records. The peak of a process that collects garbage varies with where
// its collections fall, so a window of long operations reports the median
// of their peaks; shorter operations, thousands to a window, share the
// window's.
const ownPeak = time.Second

// timed calls op in a closed loop: minOps times, then for as long as the
// previous operation's duration says another can finish inside d.
func timed(d time.Duration, minOps int, traced bool, op opFunc) (window, error) {
	var w window
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	resetPeakRSS()
	start := time.Now()
	var last time.Duration
	for w.ops < minOps || time.Since(start)+last <= d {
		t := time.Now()
		lat, runs, err := op(traced, d)
		if err != nil {
			return w, err
		}
		last = time.Since(t)
		w.lat = append(w.lat, lat...)
		w.runs += runs
		w.ops++
		if last >= ownPeak {
			w.peakMB = append(w.peakMB, peakRSSMB())
			resetPeakRSS()
		}
	}
	w.elapsed = time.Since(start)
	if len(w.peakMB) == 0 {
		w.peakMB = append(w.peakMB, peakRSSMB())
	}
	runtime.ReadMemStats(&m1)
	w.mallocs = float64(m1.Mallocs - m0.Mallocs)
	w.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	return w, nil
}

// measure times op for the window, at least minOps times, and emits the
// window's metrics. In a traced run the first half of the window runs
// untraced and the second traced under the CPU profile, each at least
// minOps/2 times; the ratio of their median latencies is
// trace_overhead_frac.
func (b *bench) measure(minOps int, op opFunc) error {
	if !b.trace {
		w, err := timed(b.window, minOps, false, op)
		if err != nil {
			return err
		}
		b.attempted += w.ops
		b.emitWindow(w)
		return nil
	}
	half := max(minOps/2, 1)
	u, err := timed(b.window/2, half, false, op)
	if err != nil {
		return err
	}
	var t window
	err = b.profile(func() error {
		var err error
		t, err = timed(b.window/2, half, true, op)
		return err
	})
	if err != nil {
		return err
	}
	b.attempted += u.ops + t.ops
	b.emitWindow(u)
	b.emit("trace_overhead_frac", quantile(t.lat, 0.5)/quantile(u.lat, 0.5)-1, "frac", len(t.lat))
	return nil
}

// emitWindow prints a window's request timings, allocations and peak
// resident set.
func (b *bench) emitWindow(w window) {
	n := len(w.lat)
	b.emit("latency_ms_p50", quantile(w.lat, 0.5), "ms", n)
	b.emit("latency_ms_p90", quantile(w.lat, 0.9), "ms", n)
	b.emit("device_runs_per_s", float64(w.runs)/w.elapsed.Seconds(), "1/s", w.runs)
	b.emit("allocs_per_run", w.mallocs/float64(w.runs), "count", w.runs)
	b.emit("alloc_kb_per_run", w.allocKB/float64(w.runs), "KB", w.runs)
	b.emit("peak_rss_mb", quantile(w.peakMB, 0.5), "MB", len(w.peakMB))
}

// quantile is the q-quantile of xs with linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS lowers this process's peak resident set (VmHWM) to its
// current resident set. Where the kernel does not allow it, peaks read
// later cover everything since the process started.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is this process's peak resident set (VmHWM), in MB. Unlike
// getrusage's maxrss it does not carry over the peak of the process image
// that exec replaced (run.sh's shell).
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// childMaxRSSMB is the peak resident set of the largest waited-for child
// process (getrusage RUSAGE_CHILDREN), in MB.
func childMaxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// envHeader is the first output line: what the numbers were measured on.
type envHeader struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Revision   string  `json:"revision"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func environment(o options) envHeader {
	h := envHeader{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: "unknown", Revision: "unknown",
		Workload: o.workload, Seed: o.seed, Seconds: o.window.Seconds(), Trace: o.trace,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	return h
}

// run executes one workload and prints its measurements and verdict.
func run(o options, stdout, stderr io.Writer) error {
	var body func(*bench) error
	for _, w := range workloads {
		if w.name == o.workload {
			body = w.run
		}
	}
	if body == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	if o.window <= 0 {
		return fmt.Errorf("non-positive window %v", o.window)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]envHeader{"env": environment(o)}); err != nil {
		return err
	}
	b := &bench{options: o, out: enc, log: stderr, values: map[string]verdictValue{}}
	if err := body(b); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	declared := endToEnd
	if o.trace {
		declared = perLayer
	}
	v := verdict{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]verdictValue{}}
	for _, m := range declared {
		got, ok := b.values[m.name]
		if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("%s: metric %s (%s) not measured: %+v", o.workload, m.name, m.unit, got)
		}
		v.Metrics[m.name] = got
	}
	if v.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	return enc.Encode(v)
}

func main() {
	fs := flag.NewFlagSet("wakebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (see the package doc)")
	seed := fs.Int64("seed", 1, "shifts every seed the workload uses")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	worker := fs.Bool("shardworker", false, "run as a shard worker: manifest on stdin, shard frame on stdout")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *worker {
		os.Exit(shardexec.WorkerMain(context.Background(), os.Stdin, os.Stdout, os.Stderr))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "wakebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o := options{
		workload: *workload, seed: *seed, trace: *trace == 1,
		window: time.Duration(*seconds * float64(time.Second)), tmpDir: ".bench_build",
	}
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "wakebench:", err)
		os.Exit(1)
	}
}
