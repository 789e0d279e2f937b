package main

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/fleet"
	"repro/internal/shardexec"
	"repro/internal/sim"
)

// fleetSpec is the population report -experiment fleet simulates, plus
// the default backend model so histogram merges and backend.Serve run.
func fleetSpec(seed int64, devices int) fleet.Spec {
	m := backend.DefaultModel()
	return fleet.Spec{
		Devices:        devices,
		Seed:           seed,
		Hours:          3,
		Apps:           fleet.IntRange{Min: 4, Max: 12},
		OneShots:       fleet.IntRange{Min: 0, Max: 6},
		PushesPerHour:  fleet.Range{Min: 0, Max: 4},
		ScreensPerHour: fleet.Range{Min: 0, Max: 2},
		TaskJitter:     fleet.Range{Min: 0, Max: 0.3},
		BatteryScale:   fleet.Range{Min: 0.9, Max: 1.1},
		LeakFraction:   0.05,
		Backend:        &m,
	}
}

// fleetSample is the first n devices of a fleet under both of its
// policies, as the fleet runs them.
func fleetSample(spec fleet.Spec, n int) []sim.Config {
	spec = spec.WithDefaults()
	cfgs := make([]sim.Config, 0, 2*n)
	for i := 0; i < n && i < spec.Devices; i++ {
		d := spec.SampleDevice(i)
		for _, p := range []string{spec.BasePolicy, spec.TestPolicy} {
			c := spec.Config(d, p)
			c.NoTrace = true
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// fleetSize is the fleet workload's population and worker-process shard
// size: 4,096 devices in shardexec's default 2,048-device shards, so
// each of the two worker processes runs one shard.
func (b *bench) fleetSize() (devices, shard int) {
	if b.short {
		return 8, 4
	}
	return 4096, shardexec.DefaultShardSize
}

// runProcs executes spec through the shard supervisor on two worker
// processes of one sim worker each and returns its summary JSON. A
// crash-free run launches one worker per shard, retries nothing and
// quarantines nothing; anything else is a failed check.
func (b *bench) runProcs(spec fleet.Spec, shard int, onShard func(shardexec.ShardEvent)) ([]byte, error) {
	r, err := shardexec.Run(context.Background(), spec, shardexec.Options{
		Procs: 2, Workers: 1, ShardSize: shard,
		WorkerArgv: b.workerArgv, WorkerEnv: b.workerEnv, OnShard: onShard,
	})
	if err != nil {
		return nil, err
	}
	if r.Attempts != r.Shards || r.Retries != 0 || len(r.Quarantined) != 0 {
		b.fail("supervisor ran %d shards with %d attempts, %d retries, %d quarantined", r.Shards, r.Attempts, r.Retries, len(r.Quarantined))
	}
	return json.Marshal(r.Agg.Summary())
}

// runInProcess executes spec on the in-process fleet runner and returns
// its summary JSON.
func runInProcess(spec fleet.Spec, opts fleet.Options) ([]byte, error) {
	r, err := fleet.Run(context.Background(), spec, opts)
	if err != nil {
		return nil, err
	}
	return json.Marshal(r.Agg.Summary())
}

// runFleet is the fleet workload: one fleet through both dispatch paths
// in alternating pairs, fleet.Run in-process and shardexec.Run on two
// worker processes, at least two pairs. Both summaries of a pair must be
// byte-identical, and equal to the first pair's. The set-up runs a
// 64th-size fleet of the same spec through both paths.
func runFleet(b *bench) error {
	devices, shard := b.fleetSize()
	spec := fleetSpec(b.seed, devices)
	err := b.setup(func(int) error {
		warm := fleetSpec(b.seed, max(devices/64, 2))
		in, err := runInProcess(warm, fleet.Options{})
		if err != nil {
			return err
		}
		out, err := b.runProcs(warm, shard, nil)
		if err != nil {
			return err
		}
		b.verify(bytes.Equal(in, out), "warm-up fleet: in-process and multi-process summaries differ")
		return nil
	})
	if err != nil {
		return err
	}

	pool := &poolTrace{}
	shards := &shardTrace{started: map[[2]int]time.Time{}}
	inProcess := func(traced bool) ([]byte, error) {
		opts := fleet.Options{}
		if traced {
			opts = pool.options(time.Now())
		}
		return runInProcess(spec, opts)
	}
	multiProcess := func(traced bool) ([]byte, error) {
		var onShard func(shardexec.ShardEvent)
		if traced {
			onShard = shards.observe
		}
		return b.runProcs(spec, shard, onShard)
	}

	var want []byte
	var inProc, multiProc []float64 // untraced fleet walls, seconds
	pairs := 0
	err = b.measure(2, func(traced bool, _ time.Duration) ([]float64, int, error) {
		lat := make([]float64, 2)
		var in, out []byte
		var err error
		for i := 0; i < 2; i++ {
			start := time.Now()
			if i == pairs%2 { // the first path alternates
				in, err = inProcess(traced)
			} else {
				out, err = multiProcess(traced)
			}
			if err != nil {
				return nil, 0, err
			}
			wall := time.Since(start)
			lat[i] = ms(wall)
			switch {
			case i == pairs%2 && traced:
				pool.wall += wall
			case i == pairs%2:
				inProc = append(inProc, wall.Seconds())
			case !traced:
				multiProc = append(multiProc, wall.Seconds())
			}
		}
		pairs++
		if !bytes.Equal(in, out) {
			b.fail("pair %d: in-process and multi-process summaries differ", pairs)
		}
		if want == nil {
			want = in
		} else if !bytes.Equal(in, want) {
			b.fail("pair %d: summary differs from the first pair's", pairs)
		}
		return lat, 2 * 2 * devices, nil
	})
	if err != nil {
		return err
	}
	b.emit("latency_ms_best", 1000*quantile([]float64{slices.Min(inProc), slices.Min(multiProc)}, 0.5), "ms", 2)
	b.emit("fleet_devices_per_s", float64(devices)*float64(len(inProc))/total(inProc), "1/s", len(inProc))
	b.emit("fleet_procs_devices_per_s", float64(devices)*float64(len(multiProc))/total(multiProc), "1/s", len(multiProc))
	b.emit("worker_peak_rss_mb", childMaxRSSMB(), "MB", 1)
	b.digest(want)
	if !b.trace {
		return nil
	}

	simMS, err := b.replayPipeline(spec, shard, want)
	if err != nil {
		return err
	}
	n := len(shards.walls)
	wall := quantile(shards.walls, 0.5)
	b.emit("shardexec.shard_wall_ms", wall, "ms", n)
	b.emit("shardexec.overhead_ms_per_shard", wall-simMS, "ms", n)
	b.emit("shardexec.attempts_per_shard", float64(shards.attempts)/float64(n), "count", n)
	b.emit("shardexec.retries", float64(shards.retries), "count", n)
	b.emit("sim.pool_busy_frac", pool.busy.Seconds()/(float64(runtime.GOMAXPROCS(0))*pool.wall.Seconds()), "frac", pool.runs)
	b.emit("fleet.fold_share", pool.fold.Seconds()/pool.wall.Seconds(), "frac", pool.folds)
	return b.replayLayers(fleetSample(spec, 16))
}

// total is the sum of xs.
func total(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// poolTrace derives the sim.RunAll pool's busy share and the in-order
// fold's share of fleet wall time from fleet.Run's progress callbacks: a
// device is folded between the previous callback and its Progress call.
type poolTrace struct {
	mu          sync.Mutex
	last        time.Time
	busy, fold  time.Duration
	wall        time.Duration
	runs, folds int
}

func (p *poolTrace) options(start time.Time) fleet.Options {
	p.last = start
	return fleet.Options{
		RunProgress: func(pr sim.Progress) {
			p.mu.Lock()
			p.busy += pr.Wall
			p.runs++
			p.last = time.Now()
			p.mu.Unlock()
		},
		Progress: func(done, total int) {
			p.mu.Lock()
			now := time.Now()
			p.fold += now.Sub(p.last)
			p.folds++
			p.last = now
			p.mu.Unlock()
		},
	}
}

// shardTrace times worker-process shards from the supervisor's OnShard
// events, which the supervisor serializes.
type shardTrace struct {
	started           map[[2]int]time.Time
	walls             []float64
	attempts, retries int
}

func (s *shardTrace) observe(ev shardexec.ShardEvent) {
	key := [2]int{ev.Index, ev.Attempt}
	switch ev.State {
	case "start":
		s.started[key] = time.Now()
		s.attempts++
		if ev.Attempt > 1 {
			s.retries++
		}
	case "ok":
		s.walls = append(s.walls, ms(time.Since(s.started[key])))
	}
}

// replayPipeline replays the multi-process supervisor's pipeline in this
// process through the fleet and backend public calls — sample, simulate
// a shard with one sim worker as a worker process does, encode, decode,
// merge in device order, summarize, serve — timing each step. The
// replayed summary must equal the fleet's. It returns the median time to
// simulate one shard.
func (b *bench) replayPipeline(spec fleet.Spec, shard int, want []byte) (float64, error) {
	spec = spec.WithDefaults()
	n := spec.Devices
	start := time.Now()
	for i := 0; i < n; i++ {
		d := spec.SampleDevice(i)
		spec.Config(d, spec.BasePolicy)
		spec.Config(d, spec.TestPolicy)
	}
	b.emit("fleet.sample_us_per_device", float64(time.Since(start))/float64(time.Microsecond)/float64(n), "us", n)

	agg := fleet.NewAggregate(spec)
	width := spec.Backend.WithDefaults().BucketWidth
	hists := []*backend.Histogram{backend.NewHistogram(width), backend.NewHistogram(width)}
	var simMS []float64
	var enc, dec, merge, histMerge time.Duration
	frameBytes, shards := 0, 0
	for lo := 0; lo < n; lo += shard {
		t := time.Now()
		sa, err := fleet.RunShard(context.Background(), spec, lo, min(lo+shard, n), 1)
		if err != nil {
			return 0, err
		}
		simMS = append(simMS, ms(time.Since(t)))
		sa.Index = shards
		shards++

		t = time.Now()
		frame := fleet.EncodeShard(sa)
		enc += time.Since(t)
		frameBytes += len(frame)

		t = time.Now()
		got, err := fleet.DecodeShard(frame)
		dec += time.Since(t)
		if err != nil {
			return 0, err
		}

		t = time.Now()
		err = agg.MergeShard(got)
		merge += time.Since(t)
		if err != nil {
			return 0, err
		}

		t = time.Now()
		hists[0].Merge(got.BaseHist)
		hists[1].Merge(got.TestHist)
		histMerge += time.Since(t)
	}
	t := time.Now()
	sum := agg.Summary()
	summary := time.Since(t)
	blob, err := json.Marshal(sum)
	if err != nil {
		return 0, err
	}
	b.verify(bytes.Equal(blob, want), "replayed supervisor pipeline's summary differs from the fleet's")

	t = time.Now()
	for _, h := range hists {
		backend.Serve(h, *spec.Backend)
	}
	serve := time.Since(t)

	perShard := func(d time.Duration) float64 { return ms(d) / float64(shards) }
	b.emit("fleet.simulate_ms_per_shard", quantile(simMS, 0.5), "ms", shards)
	b.emit("fleet.encode_ms_per_shard", perShard(enc), "ms", shards)
	b.emit("fleet.decode_ms_per_shard", perShard(dec), "ms", shards)
	b.emit("fleet.frame_bytes_per_device", float64(frameBytes)/float64(n), "B", n)
	b.emit("fleet.merge_us_per_device", float64(merge)/float64(time.Microsecond)/float64(n), "us", n)
	b.emit("fleet.summary_ms", ms(summary), "ms", 1)
	b.emit("backend.hist_merge_us_per_shard", float64(histMerge)/float64(time.Microsecond)/float64(shards), "us", shards)
	b.emit("backend.serve_ms", ms(serve)/float64(len(hists)), "ms", len(hists))
	return quantile(simMS, 0.5), nil
}
