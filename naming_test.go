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

// intoKernels are the exported dst-first functions exempt from the Into
// suffix: BLAS-style kernels and interface contracts where in-place writing
// is the entire point (see doc.go, "Zero-allocation naming convention").
var intoKernels = map[string]bool{
	"MatMul":    true,
	"MatMulATB": true,
	"MatMulABT": true,
	"MatMulF32": true, // float32 mirror of MatMul
	"Axpy":      true,
	"Grad":      true, // nn.Loss contract
}

// TestIntoNamingConvention enforces the repository's zero-allocation naming
// convention: any exported function or method whose first parameter is named
// dst must either end in "Into" or be a listed kernel. This keeps the
// allocation-free surface discoverable by name alone.
func TestIntoNamingConvention(t *testing.T) {
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if perr != nil {
			return perr
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
				continue
			}
			first := fd.Type.Params.List[0]
			if len(first.Names) == 0 || first.Names[0].Name != "dst" {
				continue
			}
			name := fd.Name.Name
			if strings.HasSuffix(name, "Into") || intoKernels[name] {
				continue
			}
			t.Errorf("%s: exported %s takes dst first but is neither ...Into nor an allowlisted kernel (see doc.go)",
				fset.Position(fd.Pos()), name)
		}
		// Interface method fields: enforce the same rule on contracts.
		ast.Inspect(f, func(n ast.Node) bool {
			it, ok := n.(*ast.InterfaceType)
			if !ok {
				return true
			}
			for _, m := range it.Methods.List {
				ft, ok := m.Type.(*ast.FuncType)
				if !ok || len(m.Names) == 0 || !m.Names[0].IsExported() {
					continue
				}
				if ft.Params == nil || len(ft.Params.List) == 0 {
					continue
				}
				first := ft.Params.List[0]
				if len(first.Names) == 0 || first.Names[0].Name != "dst" {
					continue
				}
				name := m.Names[0].Name
				if strings.HasSuffix(name, "Into") || intoKernels[name] {
					continue
				}
				t.Errorf("%s: interface method %s takes dst first but is neither ...Into nor an allowlisted kernel (see doc.go)",
					fset.Position(m.Pos()), name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
