package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunSmallFleet(t *testing.T) {
	spec := Spec{Devices: 8, Seed: 5, Hours: 1}
	r, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Agg.Summary()
	if s.Devices != 8 || r.Agg.Devices() != 8 {
		t.Fatalf("Devices = %d / %d, want 8", s.Devices, r.Agg.Devices())
	}
	if s.BasePolicy != "NATIVE" || s.TestPolicy != "SIMTY" {
		t.Fatalf("policies = %s vs %s, want NATIVE vs SIMTY", s.BasePolicy, s.TestPolicy)
	}
	for _, d := range []struct {
		name string
		dist Dist
	}{
		{"base energy", s.Base.EnergyMJ},
		{"test energy", s.Test.EnergyMJ},
		{"base wakeups", s.Base.Wakeups},
		{"savings total", s.Savings.Total},
		{"wakeup reduction", s.Savings.WakeupReduction},
	} {
		if d.dist.N != 8 {
			t.Errorf("%s: N = %d, want 8", d.name, d.dist.N)
		}
		if d.dist.Min > d.dist.P50 || d.dist.P50 > d.dist.Max {
			t.Errorf("%s: P50 %v outside [min %v, max %v]", d.name, d.dist.P50, d.dist.Min, d.dist.Max)
		}
	}
	if s.Base.EnergyMJ.Mean <= s.Test.EnergyMJ.Mean {
		t.Errorf("SIMTY mean energy %.1f mJ not below NATIVE %.1f mJ",
			s.Test.EnergyMJ.Mean, s.Base.EnergyMJ.Mean)
	}
	if s.Savings.Total.Mean <= 0 {
		t.Errorf("mean total savings %.3f, want positive", s.Savings.Total.Mean)
	}
}

// TestRunTenThousandDevices: the fleet-scale acceptance run — 10,000
// heterogeneous devices stream through the aggregator on a short
// horizon. Every distribution must have folded in exactly one
// observation per device; nothing per-run survives, so this also pins
// the memory-bounded path at real population size.
func TestRunTenThousandDevices(t *testing.T) {
	spec := Spec{
		Devices: 10_000,
		Seed:    3,
		Hours:   0.25,
		Apps:    IntRange{Min: 1, Max: 3},
	}
	var lastDone int
	r, err := Run(context.Background(), spec, Options{
		Progress: func(done, total int) {
			if total != 10_000 {
				t.Fatalf("progress total = %d, want 10000", total)
			}
			if done != lastDone+1 {
				t.Fatalf("progress done = %d after %d, want in-order increments", done, lastDone)
			}
			lastDone = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != 10_000 {
		t.Fatalf("progress reached %d, want 10000", lastDone)
	}
	s := r.Agg.Summary()
	if s.Devices != 10_000 {
		t.Fatalf("Devices = %d, want 10000", s.Devices)
	}
	for _, d := range []struct {
		name string
		dist Dist
	}{
		{"base wakeups", s.Base.Wakeups},
		{"test wakeups", s.Test.Wakeups},
		{"savings total", s.Savings.Total},
	} {
		if d.dist.N != 10_000 {
			t.Errorf("%s: N = %d, want 10000", d.name, d.dist.N)
		}
	}
	if s.Base.Wakeups.Mean <= 0 {
		t.Errorf("mean NATIVE wakeups %.2f, want positive", s.Base.Wakeups.Mean)
	}
	t.Logf("10k devices in %v: mean savings %.1f%% ± %.1f (CI95)",
		r.Wall, 100*s.Savings.Total.Mean, 100*s.Savings.Total.CI95)
}

func TestSpecValidation(t *testing.T) {
	valid := func() Spec { return Spec{Devices: 4}.WithDefaults() }
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"zero devices", func(s *Spec) { s.Devices = 0 }, "non-positive device count"},
		{"negative devices", func(s *Spec) { s.Devices = -3 }, "non-positive device count"},
		{"too many devices", func(s *Spec) { s.Devices = maxDevices + 1 }, "cap"},
		{"negative hours", func(s *Spec) { s.Hours = -1 }, "horizon"},
		{"huge hours", func(s *Spec) { s.Hours = 20000 }, "horizon"},
		{"beta one", func(s *Spec) { s.Beta = 1 }, "grace factor"},
		{"bad base policy", func(s *Spec) { s.BasePolicy = "BOGUS" }, "unknown policy"},
		{"bad test policy", func(s *Spec) { s.TestPolicy = "BOGUS" }, "unknown policy"},
		{"apps below floor", func(s *Spec) { s.Apps = IntRange{Min: 0, Max: 3} }, "apps"},
		{"apps inverted", func(s *Spec) { s.Apps = IntRange{Min: 5, Max: 2} }, "min > max"},
		{"apps above cap", func(s *Spec) { s.Apps = IntRange{Min: 1, Max: 65} }, "apps"},
		{"negative one-shots", func(s *Spec) { s.OneShots = IntRange{Min: -1, Max: 0} }, "one-shots"},
		{"negative pushes", func(s *Spec) { s.PushesPerHour = Range{Min: -2, Max: 0} }, "pushes"},
		{"jitter at one", func(s *Spec) { s.TaskJitter = Range{Min: 0, Max: 1} }, "task-jitter"},
		{"battery zero", func(s *Spec) { s.BatteryScale = Range{Min: 0, Max: 1} }, "battery"},
		{"leak fraction", func(s *Spec) { s.LeakFraction = 1.5 }, "leak fraction"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := valid()
			c.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate() = %q, want it to contain %q", err, c.wantErr)
			}
		})
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("defaulted spec invalid: %v", err)
	}
}

func TestSpecDefaults(t *testing.T) {
	s := Spec{Devices: 1}.WithDefaults()
	if s.Hours != 3 || s.BasePolicy != "NATIVE" || s.TestPolicy != "SIMTY" {
		t.Errorf("defaults = %v h, %s vs %s", s.Hours, s.BasePolicy, s.TestPolicy)
	}
	if s.Apps != (IntRange{Min: 4, Max: 12}) {
		t.Errorf("default apps range = %+v", s.Apps)
	}
	if s.BatteryScale != (Range{Min: 1, Max: 1}) {
		t.Errorf("default battery scale = %+v", s.BatteryScale)
	}
	// A pinned-zero one-shot range must stay expressible: it is a valid
	// choice, not a missing value.
	if s.OneShots != (IntRange{}) {
		t.Errorf("one-shot range was re-defaulted to %+v", s.OneShots)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	want := detSpec()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip changed the spec:\nwrote %+v\nread  %+v", want, got)
	}
}

func TestReadSpecRejectsBadInput(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"garbage", "not json"},
		{"unknown field", `{"devices": 3, "bogus": 1}`},
		{"invalid spec", `{"devices": -1}`},
		{"bad policy", `{"devices": 2, "test_policy": "NOPE"}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadSpec(strings.NewReader(c.body)); err == nil {
				t.Fatalf("ReadSpec(%q) = nil error", c.body)
			}
		})
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	if _, err := Run(context.Background(), Spec{}, Options{}); err == nil {
		t.Fatal("Run with empty spec succeeded, want validation error")
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Spec{Devices: 50, Hours: 1}, Options{})
	if err == nil {
		t.Fatal("Run with cancelled context succeeded")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("error %q does not mention cancellation", err)
	}
}
