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
	"testing"
)

// reachedIndirectly is the allow-list of TestNoUnreachableExports: exported
// names under internal/ that no non-test code names, each with the reason it
// stays. A name is "pkg.Ident" or "pkg.Type.Method".
var reachedIndirectly = map[string]string{
	"nn.GradCheck":                   "the numerical-gradient reference the nn tests compare backward passes against",
	"dataset.FeatureSet.MarshalText": "reached through encoding: experiment results marshal FeatureSet map keys as JSON text",
	"server.Server.FeedCount":        "the server tests' leak check: how many feeds a node holds, read without a request that would itself be routed, rate-limited or refused while draining",
}

// TestNoUnreachableExports keeps dead surface out of internal/: every
// exported top-level identifier and every exported method declared there
// must be named from non-test code somewhere in the tree — the root module
// or bench/ — or sit in reachedIndirectly with a reason. A top-level name
// counts when the type checker resolves some identifier outside the
// declaration itself (and outside its own methods' receivers) to it. A
// method counts when some selector in non-test code picks a method or field
// of that name — by name, not by receiver type, because a call through an
// interface names every implementation and the checker cannot tell which;
// the rule therefore misses a dead method that shares its name with a live
// one, and never flags a live one. Tests are not callers: a helper only its
// own test reaches is deleted with the test, not kept for it.
func TestNoUnreachableExports(t *testing.T) {
	l := &treeLoader{
		fset: token.NewFileSet(),
		pkgs: make(map[string]*types.Package),
		info: &types.Info{
			Defs: make(map[*ast.Ident]types.Object),
			Uses: make(map[*ast.Ident]types.Object),
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
	if err != nil {
		t.Fatal(err)
	}

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
	// selected holds every method or field name some selector picks.
	selected := make(map[string]bool)
	for id, obj := range l.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			if o.Type().(*types.Signature).Recv() != nil {
				selected[o.Name()] = true
			}
		case *types.Var:
			if o.IsField() {
				selected[o.Name()] = true
			}
		}
		if s, ok := own[obj]; ok && s.from <= id.Pos() && id.Pos() < s.to {
			continue
		}
		if !receivers[id] {
			used[obj] = true
		}
	}

	var dead []string
	names := make(map[string]bool)
	for _, obj := range declared {
		name := obj.Pkg().Name() + "." + obj.Name()
		method := false
		if recv := receiverOf(obj); recv != nil {
			name, method = obj.Pkg().Name()+"."+recv.Obj().Name()+"."+obj.Name(), true
		}
		names[name] = true
		if _, ok := reachedIndirectly[name]; ok || used[obj] || method && selected[obj.Name()] {
			continue
		}
		dead = append(dead, name+"  ("+l.fset.Position(obj.Pos()).String()+")")
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but named by no non-test code: %s — delete it (with the tests of it alone), unexport it, or allow-list it with a reason", d)
	}
	for name := range reachedIndirectly {
		if !names[name] {
			t.Errorf("reachedIndirectly lists %s, which internal/ no longer declares", name)
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
	std   types.Importer
	pkgs  map[string]*types.Package
	info  *types.Info
	files []*ast.File
}

func (l *treeLoader) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return l.std.Import(path)
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
