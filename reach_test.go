package umine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists the internal functions that only tests call and
// that stay on purpose, each with the reason.
var testOnlyAllowed = map[string]string{
	"umine/internal/prob.PBFreqProbDP": "the plain DP recurrence: the reference the kernel's exact DP is checked against bit for bit",
	"umine/internal/prob.PBTailGE":     "the exact tail from the truncated distribution: the reference for the Chernoff, approximation and kernel tests",
}

// TestEveryInternalFunctionIsReached fails when a package-level function
// declared under internal/ has no reference from a non-test file of the
// module: its own package, another internal package, the commands, the
// examples, the public package or perfbench. Such a function is code only
// tests keep alive: delete it, or move it into the tests that use it.
// internal/core/coretest holds shared test fixtures and is exempt.
//
// The check parses the files without type-checking, so it matches a
// reference by name: a bare identifier in the declaring package, or a
// selector pkg.Name in a file that imports that package. Methods are not
// checked, since an interface can call them without naming them.
func TestEveryInternalFunctionIsReached(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]token.Position{}
	reached := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("umine", filepath.ToSlash(filepath.Dir(p)))
		if strings.HasPrefix(pkg, "umine/internal/") && pkg != "umine/internal/core/coretest" {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name != "init" {
					declared[pkg+"."+fn.Name.Name] = fset.Position(fn.Pos())
				}
			}
		}
		collectReferences(f, pkg, reached)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unreached []string
	for fn, pos := range declared {
		if !reached[fn] && testOnlyAllowed[fn] == "" {
			unreached = append(unreached, pos.String()+": "+fn)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s: no non-test file calls it", u)
	}
	for fn := range testOnlyAllowed {
		if _, ok := declared[fn]; !ok || reached[fn] {
			t.Errorf("testOnlyAllowed lists %s, which is gone or now reached: drop the entry", fn)
		}
	}
}

// collectReferences adds to reached every function name f refers to, keyed
// by the declaring package's import path. A function's references to
// itself do not count.
func collectReferences(f *ast.File, pkg string, reached map[string]bool) {
	imports := map[string]string{}
	for _, spec := range f.Imports {
		p, _ := strconv.Unquote(spec.Path.Value)
		name := path.Base(p)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = p
	}
	for _, decl := range f.Decls {
		self := ""
		nodes := []ast.Node{decl}
		if fn, ok := decl.(*ast.FuncDecl); ok {
			// Everything but the declared name.
			nodes = []ast.Node{fn.Type}
			if fn.Recv != nil {
				nodes = append(nodes, fn.Recv)
			} else {
				self = fn.Name.Name
			}
			if fn.Body != nil {
				nodes = append(nodes, fn.Body)
			}
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						reached[p+"."+n.Sel.Name] = true
						return false
					}
				}
				// A field or method selector: only its operand can name a
				// function.
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if n.Name != self {
					reached[pkg+"."+n.Name] = true
				}
			}
			return true
		}
		for _, n := range nodes {
			ast.Inspect(n, visit)
		}
	}
}
