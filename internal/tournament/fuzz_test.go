package tournament

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzTournamentSpec: every spec that arbitrary JSON decodes into and
// that Validate accepts after defaulting builds finite, validated and
// correctly wired fleet specs for each (regime, policy) cell — the
// invariant Run relies on when it hands those cells to fleet.Run.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		s := spec.WithDefaults()
		if s.Validate() != nil {
			return
		}
		for _, r := range s.Regimes {
			if math.IsNaN(r.Hours) || math.IsInf(r.Hours, 0) || r.Hours < 0 {
				t.Fatalf("accepted regime %q with horizon %v", r.Name, r.Hours)
			}
			for _, p := range s.Policies {
				fs := s.fleetSpec(r, p).WithDefaults()
				if err := fs.Validate(); err != nil {
					t.Fatalf("regime %q, policy %s: cell spec invalid: %v", r.Name, p, err)
				}
				if fs.Devices != s.Devices || fs.TestPolicy != p || fs.BasePolicy != s.Base {
					t.Fatalf("regime %q, policy %s: cell spec miswired: %+v", r.Name, p, fs)
				}
			}
		}
	})
}
