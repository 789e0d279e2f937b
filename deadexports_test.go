package repro

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportKeep names the exported package-level identifiers of internal/*
// that no non-test file references yet stay, each with its reason. Every
// entry is an oracle: a test checks live code against it.
var exportKeep = map[string]string{
	"stats.Min":      "Acc.Min must equal it exactly (TestWelfordMatchesBatch)",
	"stats.Max":      "Acc.Max must equal it exactly (TestWelfordMatchesBatch)",
	"stats.Quantile": "Acc.Quantile must stay within its stated 2⁻⁷ bound of this sorted R-7 quantile (TestP2ConvergesToBatchQuantile)",

	"power.NewMonitor": "the sampled Monitor cross-checks the Accountant's energy integral",

	"metrics.Delays":            "record-level fold of the DelayAcc sim streams; TestDelays pins the accumulator through it",
	"metrics.Wakeups":           "record-level fold of the WakeupAcc sim streams; TestWakeupBreakdown pins the accumulator through it",
	"metrics.SpeakerVibrator":   "record-level fold of the SpkVibAcc sim streams; TestSpeakerVibratorMerged pins the accumulator through it",
	"metrics.AoI":               "the streaming AoIAcc must equal this batch scan (TestAoIStreamingMatchesBatch)",
	"metrics.GuaranteesOf":      "sim's streamed guarantee counters must equal this batch scan (TestNoTraceParity)",
	"metrics.WakeupGaps":        "sim's streamed wake gaps must equal this batch scan (TestNoTraceParity)",
	"metrics.AdjacentIntervals": "checks the §3.2.2 spacing bounds of sim.Run's deliveries (TestAdjacentIntervalBounds)",
}

// listedPackage is the part of one `go list -json` record the audit reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

// goList lists the packages of the module rooted at dir.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// exportAudit type-checks the repository's non-test files and records
// every object an identifier in them refers to.
type exportAudit struct {
	fset    *token.FileSet
	listed  map[string]listedPackage
	std     types.Importer
	checked map[string]*types.Package
	used    map[types.Object]bool
}

// Import resolves a repository package by type-checking its non-test
// files and anything else from the standard library's source.
func (a *exportAudit) Import(path string) (*types.Package, error) {
	if pkg, ok := a.checked[path]; ok {
		return pkg, nil
	}
	p, ok := a.listed[path]
	if !ok {
		return a.std.Import(path)
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(a.fset, filepath.Join(p.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: a}).Check(path, a.fset, files, info)
	if err != nil {
		return nil, err
	}
	for _, obj := range info.Uses {
		a.used[obj] = true
	}
	a.checked[path] = pkg
	return pkg, nil
}

// TestInternalExportsHaveCallers fails on an exported package-level
// identifier of internal/* that no non-test file references — the main
// packages, the examples, the repro facade and the cmd/wakebench module
// included — unless exportKeep names it, and on a stale exportKeep
// entry. Methods and fields are out of its scope: interface
// satisfaction calls them without naming them.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	a := &exportAudit{
		fset:    fset,
		listed:  map[string]listedPackage{},
		std:     importer.ForCompiler(fset, "source", nil),
		checked: map[string]*types.Package{},
		used:    map[types.Object]bool{},
	}
	var paths []string
	for _, dir := range []string{".", filepath.Join("cmd", "wakebench")} {
		for _, p := range goList(t, dir) {
			a.listed[p.ImportPath] = p
			paths = append(paths, p.ImportPath)
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := a.Import(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}
	for _, path := range paths {
		short, internal := strings.CutPrefix(path, "repro/internal/")
		if !internal {
			continue
		}
		scope := a.checked[path].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			id := short + "." + name
			_, keep := exportKeep[id]
			switch {
			case keep && a.used[obj]:
				t.Errorf("exportKeep entry %s is stale: a non-test file references it", id)
			case !keep && !a.used[obj]:
				t.Errorf("%s: no non-test file references it; delete it, or add it to exportKeep with the reason it stays", id)
			}
		}
	}
	for id := range exportKeep {
		pkg, name, _ := strings.Cut(id, ".")
		if p := a.checked["repro/internal/"+pkg]; p == nil || p.Scope().Lookup(name) == nil {
			t.Errorf("exportKeep entry %s names no identifier of internal/*", id)
		}
	}
}
