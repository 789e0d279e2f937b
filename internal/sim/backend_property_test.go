package sim

import (
	"encoding/json"
	"testing"
	"testing/quick"

	"repro/internal/apps"
	"repro/internal/backend"
	"repro/internal/simclock"
)

// backendCfg is the shared retry-pipeline stress config: a heavy shed
// rate with fast retries so chains of every depth occur within the
// horizon.
func backendCfg(seed int64, policy string, m *backend.Model) Config {
	return Config{
		Name:     "backend-prop",
		Policy:   policy,
		Workload: apps.Table3(),
		Duration: simclock.Duration(simclock.Hour),
		Seed:     seed,
		Backend:  m,
	}
}

// TestPropertyShedAccounting: for random seeds and shed rates, every
// request whose first attempt was shed is eventually re-delivered,
// dropped after MaxRetries, or cut off by the horizon — nothing is lost
// and nothing is double-counted.
func TestPropertyShedAccounting(t *testing.T) {
	prop := func(seed int64, shedByte uint8) bool {
		m := &backend.Model{
			ShedRate:  0.05 + float64(shedByte%80)/100, // 0.05..0.84
			RetryBase: 2 * simclock.Second,
			RetryMax:  20 * simclock.Second,
		}
		for _, policy := range []string{"NATIVE", "SIMTY", "SIMTY-J"} {
			res, err := Run(backendCfg(seed, policy, m))
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, policy, err)
			}
			b := res.Backend
			if b == nil {
				t.Fatalf("seed %d %s: no backend stats", seed, policy)
			}
			if b.Shed != b.Redelivered+b.Dropped+b.Pending {
				t.Errorf("seed %d %s: shed %d != redelivered %d + dropped %d + pending %d",
					seed, policy, b.Shed, b.Redelivered, b.Dropped, b.Pending)
				return false
			}
			if b.Pending < 0 || b.Shed > b.Requests || b.ShedAttempts < b.Shed {
				t.Errorf("seed %d %s: inconsistent counters %+v", seed, policy, b)
				return false
			}
			// Every arrival in the histogram is an attempt that fired.
			if got, want := b.Hist.Total(), b.Requests+b.Retries; got != want {
				t.Errorf("seed %d %s: hist total %d != requests+retries %d", seed, policy, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyArrivalsGateOnReconnect: no request attempt reaches the
// backend before the wake session's network re-association completes.
func TestPropertyArrivalsGateOnReconnect(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		cfg := backendCfg(seed, "SIMTY", &backend.Model{ShedRate: 0.3}).withDefaults()
		env, err := newRunEnv(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		violations := 0
		env.backend.onAttempt = func(at simclock.Time, attempt int, shed bool) {
			if at < env.backend.netReady {
				violations++
			}
			if at > env.clock.Now().Add(env.backend.model.ReconnectMax) {
				t.Errorf("seed %d: arrival %v implausibly far past now %v", seed, at, env.clock.Now())
			}
		}
		env.clock.Run(simclock.Time(cfg.Duration))
		res := env.result(nil)
		if violations != 0 {
			t.Errorf("seed %d: %d arrivals before reconnect completed", seed, violations)
		}
		if res.Backend.Reconnects == 0 {
			t.Errorf("seed %d: no reconnects recorded", seed)
		}
	}
}

// TestPropertyBackendOffLeavesRunsUntouched: a nil Backend keeps the
// result free of backend state and byte-identical to an independent run
// of the same config — the golden parity tests in the root package pin
// the same stream against the recorded seed baselines.
func TestPropertyBackendOffLeavesRunsUntouched(t *testing.T) {
	for _, policy := range []string{"NATIVE", "SIMTY"} {
		cfg := backendCfg(99, policy, nil)
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Backend != nil {
			t.Fatalf("%s: Backend stats present with backend off", policy)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := json.Marshal(a.Records)
		jb, _ := json.Marshal(b.Records)
		if string(ja) != string(jb) {
			t.Fatalf("%s: backend-off runs not byte-identical", policy)
		}
	}
}
