package report

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/simclock"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "x", Title: "Demo", Columns: []string{"a", "b"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("only")        // padded
	tbl.AddRow("1", "2", "3") // truncated
	tbl.AddNote("note %d", 7)

	var text strings.Builder
	if err := tbl.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"=== Demo ===", "a", "b", "note 7"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text output missing %q:\n%s", want, text.String())
		}
	}

	var md strings.Builder
	if err := tbl.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "## Demo") || !strings.Contains(md.String(), "| --- | --- |") {
		t.Fatalf("markdown output wrong:\n%s", md.String())
	}

	var csv strings.Builder
	if err := tbl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 4 || lines[0] != "a,b" || lines[1] != "1,2" || lines[2] != "only," {
		t.Fatalf("csv output wrong:\n%s", csv.String())
	}
}

func TestMarkdownEscapesPipes(t *testing.T) {
	tbl := &Table{Columns: []string{"c"}}
	tbl.AddRow("a|b")
	var md strings.Builder
	if err := tbl.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), `a\|b`) {
		t.Fatalf("pipe not escaped:\n%s", md.String())
	}
}

func TestCSVQuoting(t *testing.T) {
	tbl := &Table{Columns: []string{"c"}}
	tbl.AddRow(`with,comma and "quote"`)
	var csv strings.Builder
	if err := tbl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), `"with,comma and ""quote"""`) {
		t.Fatalf("csv quoting wrong:\n%s", csv.String())
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("experiments = %d", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Build == nil || e.Paper == "" {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		got, ok := ByID(e.ID)
		if !ok || got.ID != e.ID {
			t.Fatalf("ByID(%s) failed", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID accepted unknown id")
	}
}

func TestTable1Exact(t *testing.T) {
	tbl, err := Table1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"high", "1", "3", "5"},
		{"medium", "2", "4", "6"},
		{"low", "∞", "∞", "∞"},
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	for i, w := range want {
		for j, cell := range w {
			if tbl.Rows[i][j] != cell {
				t.Fatalf("cell [%d][%d] = %q, want %q", i, j, tbl.Rows[i][j], cell)
			}
		}
	}
}

func TestTable3Rows(t *testing.T) {
	tbl, err := Table3(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 18 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][2] != "Facebook" || tbl.Rows[0][3] != "60" {
		t.Fatalf("first row = %v", tbl.Rows[0])
	}
	// Light column marks exactly the first 12.
	lightCount := 0
	for _, r := range tbl.Rows {
		if r[1] == "•" {
			lightCount++
		}
	}
	if lightCount != 12 {
		t.Fatalf("light marks = %d", lightCount)
	}
}

func TestFigure2Shape(t *testing.T) {
	tbl, err := Figure2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	nat, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
	sty, _ := strconv.ParseFloat(tbl.Rows[1][1], 64)
	if nat < 7000 || nat > 8000 || sty < 3800 || sty > 4600 {
		t.Fatalf("fig2 energies = %v / %v", nat, sty)
	}
}

// quick Options for the expensive experiments: 1 trial, 1 h horizon.
func fastOpts() Options {
	return Options{Trials: 1, Seed: 1, Duration: simclock.Duration(simclock.Hour)}
}

func TestFigure3Builds(t *testing.T) {
	tbl, err := Figure3(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 || len(tbl.Notes) != 2 {
		t.Fatalf("fig3 shape: %d rows, %d notes", len(tbl.Rows), len(tbl.Notes))
	}
	for _, n := range tbl.Notes {
		if !strings.Contains(n, "savings") {
			t.Fatalf("note = %q", n)
		}
	}
}

func TestFigure4Builds(t *testing.T) {
	tbl, err := Figure4(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("fig4 rows = %d", len(tbl.Rows))
	}
	// SIMTY imperceptible delay (col 3) must exceed NATIVE's on each
	// workload.
	for i := 0; i < 4; i += 2 {
		nat, _ := strconv.ParseFloat(tbl.Rows[i][3], 64)
		sty, _ := strconv.ParseFloat(tbl.Rows[i+1][3], 64)
		if sty <= nat {
			t.Fatalf("rows %d/%d: SIMTY delay %v not above NATIVE %v", i, i+1, sty, nat)
		}
	}
}

func TestTable4Builds(t *testing.T) {
	tbl, err := Table4(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("table4 rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if !strings.Contains(r[2], "/") {
			t.Fatalf("CPU cell = %q", r[2])
		}
	}
}

func TestBoundsBuilds(t *testing.T) {
	tbl, err := Bounds(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("bounds rows = %v", tbl.Rows)
	}
}

func TestDrainBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day simulations")
	}
	tbl, err := Drain(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("drain rows = %d", len(tbl.Rows))
	}
	// SIMTY rows carry a positive extension vs NATIVE.
	for _, r := range tbl.Rows {
		if r[1] == "SIMTY" && !strings.HasPrefix(r[3], "+") {
			t.Fatalf("SIMTY extension = %q", r[3])
		}
		if r[1] == "NOALIGN" && !strings.HasPrefix(r[3], "-") {
			t.Fatalf("NOALIGN extension = %q (should be negative)", r[3])
		}
	}
}

func TestScalingBuilds(t *testing.T) {
	tbl, err := Scaling(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("scaling rows = %d", len(tbl.Rows))
	}
	// Standby falls monotonically with app count under both policies.
	prevN, prevS := 1e18, 1e18
	for _, r := range tbl.Rows {
		n, _ := strconv.ParseFloat(r[1], 64)
		s, _ := strconv.ParseFloat(r[2], 64)
		if n >= prevN || s >= prevS {
			t.Fatalf("standby not monotone: %v", tbl.Rows)
		}
		if s <= n {
			t.Fatalf("SIMTY not ahead at %s apps", r[0])
		}
		prevN, prevS = n, s
	}
}

func TestAblationsBuilds(t *testing.T) {
	tbl, err := Ablations(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// 6 policies + 3 betas + 2 latency + 2 realign = 13 rows.
	if len(tbl.Rows) != 13 {
		t.Fatalf("ablations rows = %d", len(tbl.Rows))
	}
	// INTERVAL must show a nonzero perceptible delay; SIMTY must not.
	var intervalPerc, simtyPerc float64
	for _, r := range tbl.Rows {
		if r[0] == "INTERVAL" {
			intervalPerc, _ = strconv.ParseFloat(r[5], 64)
		}
		if r[0] == "SIMTY" {
			simtyPerc, _ = strconv.ParseFloat(r[5], 64)
		}
	}
	if intervalPerc <= simtyPerc {
		t.Fatalf("INTERVAL perceptible delay %v not above SIMTY %v", intervalPerc, simtyPerc)
	}
}

func TestFleetBuilds(t *testing.T) {
	o := fastOpts()
	o.FleetDevices = 150
	var calls int
	o.Progress = func(sim.Progress) { calls++ }
	tbl, err := Fleet(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 9 {
		t.Fatalf("fleet rows = %d", len(tbl.Rows))
	}
	if !strings.Contains(tbl.Title, "150") {
		t.Fatalf("title does not name the population: %q", tbl.Title)
	}
	savings, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
	if savings <= 0 {
		t.Fatalf("mean total savings = %v%%, want positive", savings)
	}
	// NATIVE wakeups (row 4) must exceed SIMTY's (row 5) on average.
	nat, _ := strconv.ParseFloat(tbl.Rows[4][1], 64)
	sty, _ := strconv.ParseFloat(tbl.Rows[5][1], 64)
	if sty >= nat {
		t.Fatalf("SIMTY mean wakeups %v not below NATIVE %v", sty, nat)
	}
	if calls == 0 {
		t.Fatal("progress callback never invoked")
	}
	if len(tbl.Notes) != 2 {
		t.Fatalf("fleet notes = %d", len(tbl.Notes))
	}
}

func TestTournamentBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-regime fleet matrix")
	}
	o := fastOpts()
	o.FleetDevices = 4
	var calls int
	o.Progress = func(sim.Progress) { calls++ }
	tbl, err := Tournament(o)
	if err != nil {
		t.Fatal(err)
	}
	// One row per entrant plus the NATIVE base.
	if len(tbl.Rows) != 6 {
		t.Fatalf("tournament rows = %d", len(tbl.Rows))
	}
	// Three regime columns beyond overall/policy/mean-rank.
	if len(tbl.Columns) != 6 {
		t.Fatalf("tournament columns = %v", tbl.Columns)
	}
	seen := map[string]bool{}
	for i, r := range tbl.Rows {
		if r[0] != strconv.Itoa(i+1) {
			t.Fatalf("row %d overall = %q", i, r[0])
		}
		seen[r[1]] = true
	}
	for _, p := range []string{"NATIVE", "NOALIGN", "SIMTY", "SIMTY-J", "SIMTY-U", "AOI"} {
		if !seen[p] {
			t.Fatalf("scoreboard missing %s (rows %v)", p, tbl.Rows)
		}
	}
	if calls != 15 { // 3 regimes × 5 entrants
		t.Fatalf("progress calls = %d", calls)
	}
}

// TestPopulationProgressCarriesWall: the herd experiment reports
// progress through the adapter the fleet experiment uses, and every
// herd and tournament line carries the wall time since the line before
// it.
func TestPopulationProgressCarriesWall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-regime fleet matrix")
	}
	o := fastOpts()
	o.FleetDevices = 4
	for _, build := range []struct {
		name  string
		fn    func(Options) (*Table, error)
		lines int
	}{
		{"herd", Herd, 8},              // 2 fleets × 4 devices
		{"tournament", Tournament, 15}, // 3 regimes × 5 entrants
	} {
		var lines []sim.Progress
		o.Progress = func(p sim.Progress) { lines = append(lines, p) }
		if _, err := build.fn(o); err != nil {
			t.Fatal(err)
		}
		if len(lines) != build.lines {
			t.Errorf("%s: %d progress lines, want %d", build.name, len(lines), build.lines)
		}
		for _, p := range lines {
			if p.Wall <= 0 {
				t.Errorf("%s: line %q carries no wall time", build.name, p.Name)
			}
		}
	}
}

func TestRobustnessBuilds(t *testing.T) {
	tbl, err := Robustness(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("robustness rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][5] != "0" {
		t.Fatalf("fault-free row reports fault events: %v", tbl.Rows[0])
	}
	// Faulted rows must actually inject something, and each faulted
	// scenario must burn more NATIVE energy than the clean baseline.
	clean, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
	for _, r := range tbl.Rows[1:] {
		if r[5] == "0" {
			t.Fatalf("scenario %q injected no faults", r[0])
		}
		n, _ := strconv.ParseFloat(r[1], 64)
		if n <= clean {
			t.Fatalf("scenario %q costs no energy: NATIVE %v J vs clean %v J", r[0], n, clean)
		}
	}
}
