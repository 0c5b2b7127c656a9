package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoRawAPIPaths enforces the client-facade boundary of the /v1 surface:
// the wire paths may be spelled only where the API is defined — the server's
// route table and the typed occupancy.Client. Everything else in the module
// (commands, sibling packages) must go through the client, so the
// versioned surface has exactly one producer and one consumer and a path
// change cannot silently fork the two.
//
// Files under internal/server (including its tests, which pin wire bytes)
// and the client implementation are the only places a "/v1/" string literal
// may appear.
func TestNoRawAPIPaths(t *testing.T) {
	allowed := func(path string) bool {
		if strings.HasPrefix(path, filepath.Join("internal", "server")+string(filepath.Separator)) {
			return true
		}
		// This guard's own error message spells the forbidden substring.
		return path == filepath.Join("pkg", "occupancy", "client.go") || path == "api_guard_test.go"
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || allowed(path) {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if perr != nil {
			return perr
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, uerr := strconv.Unquote(lit.Value)
			if uerr != nil {
				return true
			}
			if strings.Contains(s, "/v1/") {
				t.Errorf("%s: raw API path %q — go through occupancy.Client instead (the /v1 surface lives in internal/server and pkg/occupancy/client.go only)",
					fset.Position(lit.Pos()), s)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// statsFreePackages are the packages whose exported Stats() accessors were
// removed in favor of the obs metrics registry. The methods must not
// reappear: they were unversioned ad-hoc surface that every consumer
// scraped differently, which is exactly what /metrics and the typed client
// replaced.
var statsFreePackages = []string{
	filepath.Join("internal", "stream"),
	filepath.Join("internal", "infer"),
	filepath.Join("internal", "fault"),
	filepath.Join("internal", "server"),
	filepath.Join("internal", "framelog"),
}

// TestNoStatsAccessors fails if any exported Stats method (or Stats-returning
// exported function) reappears in a package that migrated to the obs
// registry, or if a declaration is merely parked behind a Deprecated marker
// instead of being deleted.
func TestNoStatsAccessors(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range statsFreePackages {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if perr != nil {
				return perr
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				if fd.Name.Name == "Stats" {
					t.Errorf("%s: exported Stats accessor reintroduced — expose it as an obs metric instead",
						fset.Position(fd.Pos()))
				}
				if fd.Doc != nil && strings.Contains(fd.Doc.Text(), "Deprecated:") {
					t.Errorf("%s: %s carries a Deprecated marker — this module deletes dead surface instead of deprecating it",
						fset.Position(fd.Pos()), fd.Name.Name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
