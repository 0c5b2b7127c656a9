package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// configStruct is one exported configuration struct found in the tree.
type configStruct struct {
	pkg  string // directory path, e.g. internal/stream
	name string
	pos  string
}

// TestEveryConfigHasValidate enforces the repository's configuration
// contract: every exported struct type named Config or *Config must carry a
// `Validate() error` method (value or pointer receiver) so callers can
// pre-flight any configuration — including ones built from external input
// such as occuserve request parameters or JSON profiles — before handing it
// to a constructor. Constructors that can fail call Validate themselves;
// clamp-style entry points (nn.Fit, the rf fits, fault.NewInjector)
// keep their behaviour and expose Validate purely as the pre-flight check.
func TestEveryConfigHasValidate(t *testing.T) {
	fset := token.NewFileSet()
	var configs []configStruct
	// validated maps "pkgDir.TypeName" → true for each Validate() error
	// method seen.
	validated := map[string]bool{}

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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if perr != nil {
			return perr
		}
		pkgDir := filepath.Dir(path)
		for _, decl := range f.Decls {
			switch fd := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range fd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") {
						continue
					}
					if _, ok := ts.Type.(*ast.StructType); !ok {
						continue
					}
					configs = append(configs, configStruct{
						pkg:  pkgDir,
						name: ts.Name.Name,
						pos:  fset.Position(ts.Pos()).String(),
					})
				}
			case *ast.FuncDecl:
				if fd.Name.Name != "Validate" || fd.Recv == nil || len(fd.Recv.List) != 1 {
					continue
				}
				if fd.Type.Params != nil && len(fd.Type.Params.List) > 0 {
					continue
				}
				res := fd.Type.Results
				if res == nil || len(res.List) != 1 {
					continue
				}
				if id, ok := res.List[0].Type.(*ast.Ident); !ok || id.Name != "error" {
					continue
				}
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					validated[pkgDir+"."+id.Name] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) == 0 {
		t.Fatal("no exported Config structs found; the walk is broken")
	}
	for _, c := range configs {
		if !validated[c.pkg+"."+c.name] {
			t.Errorf("%s: exported %s.%s has no Validate() error method (value or pointer receiver)",
				c.pos, c.pkg, c.name)
		}
	}
	t.Logf("checked %d exported Config structs", len(configs))
}
