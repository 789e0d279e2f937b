package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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

// optionKeep names the exported option fields of internal/* that no
// non-test file outside their own package sets yet stay, each with its
// reason.
var optionKeep = map[string]string{
	"shardexec.Options.WorkerTimeout": "the hung-worker deadline the commands are still to set; TestRunKillsHungWorker exercises it",
}

// listedPackage is the part of one `go list -json` record the audit reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

// goList lists the packages of the module rooted at dir.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportAudit type-checks the repository's non-test files and records
// every object an identifier in them refers to, and every struct field
// they write from outside the field's own package.
type exportAudit struct {
	fset    *token.FileSet
	listed  map[string]listedPackage
	paths   []string // every listed import path, sorted
	std     types.Importer
	checked map[string]*types.Package
	used    map[types.Object]bool
	written map[*types.Var]bool
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
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			for _, id := range writtenIdents(n) {
				if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != pkg {
					a.written[v] = true
				}
			}
			return true
		})
	}
	a.checked[path] = pkg
	return pkg, nil
}

// writtenIdents returns the identifiers n writes through: a composite
// literal's keys, and the selected names on the left of an assignment
// or an increment.
func writtenIdents(n ast.Node) []*ast.Ident {
	var targets []ast.Expr
	switch n := n.(type) {
	case *ast.KeyValueExpr:
		if id, ok := n.Key.(*ast.Ident); ok {
			return []*ast.Ident{id}
		}
	case *ast.AssignStmt:
		targets = n.Lhs
	case *ast.IncDecStmt:
		targets = []ast.Expr{n.X}
	}
	var ids []*ast.Ident
	for _, e := range targets {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			ids = append(ids, sel.Sel)
		}
	}
	return ids
}

var (
	auditOnce sync.Once
	audit     *exportAudit
	auditErr  error
)

// loadAudit type-checks every non-test file of the module and of the
// cmd/wakebench module, once per test binary, for the audits below.
func loadAudit(t *testing.T) *exportAudit {
	t.Helper()
	auditOnce.Do(func() {
		fset := token.NewFileSet()
		a := &exportAudit{
			fset:    fset,
			listed:  map[string]listedPackage{},
			std:     importer.ForCompiler(fset, "source", nil),
			checked: map[string]*types.Package{},
			used:    map[types.Object]bool{},
			written: map[*types.Var]bool{},
		}
		for _, dir := range []string{".", filepath.Join("cmd", "wakebench")} {
			pkgs, err := goList(dir)
			if err != nil {
				auditErr = err
				return
			}
			for _, p := range pkgs {
				a.listed[p.ImportPath] = p
				a.paths = append(a.paths, p.ImportPath)
			}
		}
		sort.Strings(a.paths)
		for _, path := range a.paths {
			if _, err := a.Import(path); err != nil {
				auditErr = fmt.Errorf("type-check %s: %v", path, err)
				return
			}
		}
		audit = a
	})
	if auditErr != nil {
		t.Fatal(auditErr)
	}
	return audit
}

// TestInternalExportsHaveCallers fails on an exported package-level
// identifier of internal/* that no non-test file references — the main
// packages, the examples, the repro facade and the cmd/wakebench module
// included — unless exportKeep names it, and on a stale exportKeep
// entry. Methods and fields are out of its scope: interface
// satisfaction calls them without naming them.
func TestInternalExportsHaveCallers(t *testing.T) {
	a := loadAudit(t)
	for _, path := range a.paths {
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

// TestOptionsHaveSetters fails on an exported field of an exported
// internal/* struct named Config or ending in Options that no non-test
// file outside the field's own package writes — as a composite-literal
// key, an assignment or ++/-- — unless optionKeep names it, and on a
// stale optionKeep entry. An option that only its own package's tests
// set belongs unexported; one that nothing sets belongs deleted.
func TestOptionsHaveSetters(t *testing.T) {
	a := loadAudit(t)
	fields := map[string]bool{}
	for _, path := range a.paths {
		short, internal := strings.CutPrefix(path, "repro/internal/")
		if !internal {
			continue
		}
		scope := a.checked[path].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || (name != "Config" && !strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				id := short + "." + name + "." + f.Name()
				fields[id] = true
				_, keep := optionKeep[id]
				switch {
				case keep && a.written[f]:
					t.Errorf("optionKeep entry %s is stale: a non-test file outside %s sets it", id, short)
				case !keep && !a.written[f]:
					t.Errorf("%s: no non-test file outside %s sets it; unexport it if only tests set it, delete it if nothing does, or add it to optionKeep with the reason it stays", id, short)
				}
			}
		}
	}
	for id := range optionKeep {
		if !fields[id] {
			t.Errorf("optionKeep entry %s names no option field of internal/*", id)
		}
	}
}
