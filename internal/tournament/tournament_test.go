package tournament

import (
	"context"
	"encoding/json"
	"testing"
)

// smallSpec is a tournament sized for unit tests: two tiny regimes,
// three entrants, a handful of devices.
func smallSpec() Spec {
	return Spec{
		Seed:     7,
		Devices:  4,
		Policies: []string{"NOALIGN", "SIMTY", "AOI"},
		Regimes: []Regime{
			{Name: "steady", Hours: 0.5, SystemAlarms: true},
			{Name: "storm", Hours: 0.5, Catalog: "diffsync", AlignedPhases: true},
		},
	}
}

func TestDefaultsAndValidate(t *testing.T) {
	s := Spec{Devices: 8}.WithDefaults()
	if s.Base != "NATIVE" {
		t.Fatalf("default base %q", s.Base)
	}
	if len(s.Policies) < 5 {
		t.Fatalf("default entrants %v", s.Policies)
	}
	if len(s.Regimes) != 3 {
		t.Fatalf("default regimes %d", len(s.Regimes))
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	base := smallSpec()
	for name, mutate := range map[string]func(*Spec){
		"no devices":       func(s *Spec) { s.Devices = 0 },
		"unknown base":     func(s *Spec) { s.Base = "BOGUS" },
		"unknown policy":   func(s *Spec) { s.Policies = []string{"BOGUS"} },
		"duplicate policy": func(s *Spec) { s.Policies = []string{"SIMTY", "SIMTY"} },
		"folded entrant":   func(s *Spec) { s.Policies = []string{"SIMTY", "simty"} },
		"folded base":      func(s *Spec) { s.Base, s.Policies = "native", []string{"NATIVE", "SIMTY"} },
		"unnamed regime":   func(s *Spec) { s.Regimes[0].Name = "" },
		"duplicate regime": func(s *Spec) { s.Regimes[1].Name = s.Regimes[0].Name },
		"bad catalog":      func(s *Spec) { s.Regimes[0].Catalog = "nope" },
		"negative rate":    func(s *Spec) { s.Regimes[0].PushesPerHour.Min = -1 },
		"bad horizon":      func(s *Spec) { s.Regimes[0].Hours = -3 },
	} {
		s := base
		s.Regimes = append([]Regime(nil), base.Regimes...)
		mutate(&s)
		if err := s.WithDefaults().Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRankCells(t *testing.T) {
	cells := []Cell{
		{Policy: "C", PerceptibleLate: 0, EnergyMJ: 50},
		{Policy: "A", PerceptibleLate: 2, EnergyMJ: 10},
		{Policy: "B", PerceptibleLate: 0, EnergyMJ: 50},
		{Policy: "D", PerceptibleLate: 0, EnergyMJ: 40},
	}
	rankCells(cells)
	want := []string{"D", "B", "C", "A"} // guarantees first, then energy, then name
	for i, w := range want {
		if cells[i].Policy != w || cells[i].Rank != i+1 {
			t.Fatalf("rank %d: got %s/%d, want %s", i+1, cells[i].Policy, cells[i].Rank, w)
		}
	}
}

func TestStandings(t *testing.T) {
	regimes := []RegimeResult{
		{Cells: []Cell{{Policy: "A", Rank: 1}, {Policy: "B", Rank: 2}}},
		{Cells: []Cell{{Policy: "B", Rank: 1}, {Policy: "A", Rank: 2}}},
	}
	st := standings(regimes)
	if len(st) != 2 || st[0].Policy != "A" || st[0].MeanRank != 1.5 || st[1].Policy != "B" {
		t.Fatalf("standings %+v", st)
	}
}

func TestRunSmallTournament(t *testing.T) {
	spec := smallSpec()
	sb, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sb.Regimes) != 2 {
		t.Fatalf("regimes %d", len(sb.Regimes))
	}
	for _, rr := range sb.Regimes {
		if len(rr.Cells) != 4 { // base + 3 entrants
			t.Fatalf("regime %s has %d cells", rr.Regime, len(rr.Cells))
		}
		seen := map[string]bool{}
		for i, c := range rr.Cells {
			if c.Rank != i+1 {
				t.Fatalf("regime %s cell %d has rank %d", rr.Regime, i, c.Rank)
			}
			seen[c.Policy] = true
		}
		if !seen["NATIVE"] {
			t.Fatalf("regime %s missing the base policy", rr.Regime)
		}
	}
	if len(sb.Standings) != 4 {
		t.Fatalf("standings %d", len(sb.Standings))
	}
	for _, s := range sb.Standings {
		if len(s.Ranks) != 2 {
			t.Fatalf("standing %s has %d ranks", s.Policy, len(s.Ranks))
		}
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	spec := smallSpec()
	a, err := Run(context.Background(), spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("scoreboard differs across worker counts:\n%s\n%s", ja, jb)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, smallSpec(), Options{}); err == nil {
		t.Fatal("cancelled tournament succeeded")
	}
}
