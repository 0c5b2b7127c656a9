package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachedIndirectly is the allow-list of TestNoUnreachableExports: exported
// names under internal/ that no non-test code names, each with the reason it
// stays. A name is "pkg.Ident" or "pkg.Type.Method".
var reachedIndirectly = map[string]string{
	"fault.Config.Validate":   "the config contract's pre-flight check (TestEveryConfigHasValidate); NewInjector clamps rather than refuses, and every profile in the tree is built from DefaultProfile",
	"nn.GradCheck":            "the numerical-gradient reference the nn tests compare backward passes against",
	"nn.Network.FitOnline":    "the paper's §V-B online-training claim: TestOnlineTrainingIntegration and the root BenchmarkGradientStep exercise it, and the leave-one-room-out few-shot arm (ROADMAP item 15) decides whether it stays",
	"server.Server.FeedCount": "the server tests' leak check: how many feeds a node holds, read without a request that would itself be routed, rate-limited or refused while draining",
}

// TestNoUnreachableExports keeps dead surface out of internal/: every
// exported top-level identifier and every exported method declared there
// must be reached from non-test code somewhere in the tree — the root module
// or bench/ — or sit in reachedIndirectly with a reason. A top-level name
// counts when the type checker resolves some identifier outside the
// declaration itself (and outside its own methods' receivers) to it. A
// method counts when some selector resolves to that method itself, or when
// its type implements an interface — named or anonymous — whose method of
// that name non-test code calls; every standard-library interface counts as
// called, since fmt, encoding/json, net/http and the rest call through them.
// Tests are not callers: a helper only its own test reaches is deleted with
// the test, not kept for it.
func TestNoUnreachableExports(t *testing.T) {
	l := loadTree(t)

	// own maps every declared object to the source range a use does not
	// count in: its declaration, so recursion and a type's self-references
	// keep nothing alive.
	type span struct{ from, to token.Pos }
	own := make(map[types.Object]span)
	receivers := make(map[*ast.Ident]bool)
	var declared []types.Object
	for _, f := range l.files {
		internal := strings.HasPrefix(l.fset.Position(f.Pos()).Filename, "internal"+string(filepath.Separator))
		declare := func(id *ast.Ident, n ast.Node) {
			obj := l.info.Defs[id]
			if obj == nil {
				return
			}
			own[obj] = span{n.Pos(), n.End()}
			if internal && id.IsExported() {
				declared = append(declared, obj)
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				declare(d.Name, d)
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id, s)
						}
					}
				}
			}
		}
	}

	used := make(map[types.Object]bool)
	// called indexes by method name the interfaces whose method of that
	// name non-test code calls.
	called := make(map[string][]*types.Interface)
	for id, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called[fn.Name()] = append(called[fn.Name()], recv.Type().Underlying().(*types.Interface))
			}
		}
		if s, ok := own[obj]; ok && s.from <= id.Pos() && id.Pos() < s.to {
			continue
		}
		if !receivers[id] {
			used[obj] = true
		}
	}
	for _, iface := range l.stdInterfaces() {
		for i := 0; i < iface.NumMethods(); i++ {
			called[iface.Method(i).Name()] = append(called[iface.Method(i).Name()], iface)
		}
	}
	implementsCalled := func(fn types.Object, recv *types.Named) bool {
		for _, iface := range called[fn.Name()] {
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		return false
	}

	var dead []string
	names := make(map[string]bool)
	for _, obj := range declared {
		name := obj.Pkg().Name() + "." + obj.Name()
		recv := receiverOf(obj)
		if recv != nil {
			name = obj.Pkg().Name() + "." + recv.Obj().Name() + "." + obj.Name()
		}
		names[name] = true
		if _, ok := reachedIndirectly[name]; ok || used[obj] || recv != nil && implementsCalled(obj, recv) {
			continue
		}
		dead = append(dead, name+"  ("+l.fset.Position(obj.Pos()).String()+")")
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but reached by no non-test code: %s — delete it (with the tests of it alone), unexport it, or allow-list it with a reason", d)
	}
	for name := range reachedIndirectly {
		if !names[name] {
			t.Errorf("reachedIndirectly lists %s, which internal/ no longer declares", name)
		}
	}
}

// setIndirectly is the allow-list of TestEveryConfigFieldIsSet: exported
// fields of configuration structs that no non-test code writes, each with
// the reason it stays. A name is "pkg.Type.Field".
var setIndirectly = map[string]string{
	"core.DivergenceConfig.MaxAbsDelta": "overrides the per-precision default probability bound (0 keeps it, negative disables); the divergence tests tighten and disable it to show the gate refusing and admitting",
	"core.DivergenceConfig.MaxFlipRate": "overrides the zero-flip default (negative disables); the divergence tests disable it beside MaxAbsDelta",
	"occupancy.ServeConfig.Burst":       "the public serving API's token-bucket capacity beside RatePerSec, which occuserve sets; zero takes server.Config's default of 2×RatePerSec",
	"server.Config.MaxHoldGap":          "passed through to each feed's stream.Config (zero: stream's default); the server goldens shorten it so short traces reach every runtime path",
	"server.Config.WatchdogFrames":      "passed through to each feed's stream.Config (zero: stream's default); the server goldens shorten it so short traces reach fallback",
	"server.Config.SmootherNeed":        "passed through to each feed's stream.Config (zero: stream's default); the server goldens and durability tests set it to exercise smoothing",
}

// TestEveryConfigFieldIsSet keeps options from outliving their callers:
// every exported field of an exported struct named Config or *Config under
// internal/ or pkg/ must be written by non-test code somewhere in the tree
// — the root module or bench/ — as a composite-literal key or an
// assignment target, or sit in setIndirectly with a reason. A field only
// its own tests set is a constant in disguise: inline it.
func TestEveryConfigFieldIsSet(t *testing.T) {
	l := loadTree(t)
	var fields []*types.Var
	names := make(map[*types.Var]string)
	for _, f := range l.files {
		path := filepath.ToSlash(l.fset.Position(f.Pos()).Filename)
		if !strings.HasPrefix(path, "internal/") && !strings.HasPrefix(path, "pkg/") {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Assign != 0 || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") {
					continue
				}
				obj := l.info.Defs[ts.Name]
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if fv := st.Field(i); fv.Exported() {
						fields = append(fields, fv)
						names[fv] = obj.Pkg().Name() + "." + obj.Name() + "." + fv.Name()
					}
				}
			}
		}
	}

	set := make(map[types.Object]bool)
	for _, f := range l.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							set[l.info.Uses[key]] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						set[l.info.Uses[sel.Sel]] = true
					}
				}
			}
			return true
		})
	}

	var unset []string
	declared := make(map[string]bool)
	for _, fv := range fields {
		name := names[fv]
		declared[name] = true
		_, allowed := setIndirectly[name]
		switch {
		case set[fv] && allowed:
			t.Errorf("setIndirectly lists %s, which non-test code now sets — drop the entry", name)
		case !set[fv] && !allowed:
			unset = append(unset, name+"  ("+l.fset.Position(fv.Pos()).String()+")")
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("config field set by no non-test code: %s — inline its default and delete it, or allow-list it with a reason", u)
	}
	for name := range setIndirectly {
		if !declared[name] {
			t.Errorf("setIndirectly lists %s, which internal/ and pkg/ no longer declare", name)
		}
	}
}

// receiverOf returns the named type obj is a method of, or nil.
func receiverOf(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, _ := rt.(*types.Named)
	return named
}

// treeLoader type-checks the tree's non-test packages from source, sharing
// one types.Info so an object used from another package — or from bench/,
// which is its own module but a subdirectory, so "repro/bench/x" is
// ./bench/x just as "repro/x" is ./x — is the object its package declared.
type treeLoader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	pkgs  map[string]*types.Package
	info  *types.Info
	files []*ast.File
	// stdPkgs are the standard-library packages the tree imports.
	stdPkgs []*types.Package
}

var (
	treeOnce sync.Once
	tree     *treeLoader
	treeErr  error
)

// loadTree type-checks every non-test package of the tree once, for all the
// tests that read it.
func loadTree(t *testing.T) *treeLoader {
	t.Helper()
	treeOnce.Do(func() {
		l := &treeLoader{
			fset: token.NewFileSet(),
			pkgs: make(map[string]*types.Package),
			info: &types.Info{
				Defs: make(map[*ast.Ident]types.Object),
				Uses: make(map[*ast.Ident]types.Object),
			},
		}
		l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
		treeErr = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			_, ierr := l.Import(filepath.ToSlash(filepath.Join("repro", path)))
			if _, noGo := ierr.(*build.NoGoError); noGo {
				return nil // a directory without non-test Go files
			}
			return ierr
		})
		tree = l
	})
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return tree
}

func (l *treeLoader) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		p, err := l.std.Import(path)
		if err == nil {
			l.stdPkgs = append(l.stdPkgs, p)
		}
		return p, err
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.FromSlash("." + strings.TrimPrefix(path, "repro"))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.files = append(l.files, files...)
	return p, nil
}

// stdInterfaces returns error and every method-set interface the standard
// library declares in the packages the tree imports, directly or not.
func (l *treeLoader) stdInterfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() && iface.NumMethods() > 0 {
				out = append(out, iface)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.stdPkgs {
		visit(p)
	}
	return out
}
