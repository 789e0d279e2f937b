package tournament

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// FuzzTournamentSpec: every spec that arbitrary JSON decodes into and
// that Validate accepts after defaulting names each policy once, even
// case-folded, and plans exactly the fleets Run hands to fleet.Run:
// finite, validated and correctly wired, with one cell per regime for
// the base and for every entrant.
func FuzzTournamentSpec(f *testing.F) {
	f.Add([]byte(`{"devices": 4}`))
	f.Add([]byte(`{"seed": -3, "devices": 2, "base": "noalign",
		"policies": ["SIMTY", "simty-u", "AOI"], "beta": 0.5,
		"regimes": [
			{"name": "a", "hours": 0.5, "apps": {"min": 1, "max": 4},
			 "pushes_per_hour": {"min": 0, "max": 8}, "diurnal": true,
			 "system_alarms": true},
			{"name": "b", "catalog": "mixed", "aligned_phases": true}
		]}`))
	f.Add([]byte(`{"devices": 2, "regimes": [{"name": "x", "hours": -1}]}`))
	f.Add([]byte(`{"devices": 2, "regimes": [{"name": "x", "pushes_per_hour": {"min": -5}}]}`))
	f.Add([]byte(`{"devices": 2, "policies": ["SIMTY", "SIMTY"]}`))
	f.Add([]byte(`{"devices": 9999999999}`))
	f.Add([]byte(`{"devices": 2, "regimes": [{"name": "x", "catalog": "nope"}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"devices": 4, "policies": ["SIMTY", "simty"]}`))
	f.Add([]byte(`{"devices": 4, "base": "native", "policies": ["NATIVE", "SIMTY"]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		s := spec.WithDefaults()
		if s.Validate() != nil {
			return
		}
		field := append([]string{s.Base}, s.Policies...)
		folded := map[string]bool{}
		for _, p := range field {
			if folded[strings.ToUpper(p)] {
				t.Fatalf("accepted policy %q twice once case-folded: %v", p, field)
			}
			folded[strings.ToUpper(p)] = true
		}
		for _, r := range s.Regimes {
			if math.IsNaN(r.Hours) || math.IsInf(r.Hours, 0) || r.Hours < 0 {
				t.Fatalf("accepted regime %q with horizon %v", r.Name, r.Hours)
			}
			cells := map[string]int{}
			for _, pair := range s.pairs() {
				fs := s.fleetSpec(r, pair).WithDefaults()
				if err := fs.Validate(); err != nil {
					t.Fatalf("regime %q, policies %v: fleet spec invalid: %v", r.Name, pair, err)
				}
				if fs.Devices != s.Devices || fs.Seed != s.Seed || !fs.ZeroWakeLatency ||
					fs.BasePolicy != pair[0] || fs.TestPolicy != pair[len(pair)-1] {
					t.Fatalf("regime %q, policies %v: fleet spec miswired: %+v", r.Name, pair, fs)
				}
				for _, p := range pair {
					cells[p]++
				}
			}
			for _, p := range field {
				if cells[p] != 1 {
					t.Fatalf("regime %q: policy %s fills %d cells, want 1 (plan %v)", r.Name, p, cells[p], s.pairs())
				}
			}
			if len(cells) != len(field) {
				t.Fatalf("regime %q: plan %v fills cells outside the field %v", r.Name, s.pairs(), field)
			}
		}
	})
}
