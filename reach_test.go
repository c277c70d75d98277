package iupdater

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowlist names the internal/ functions that no production
// path reaches but that stay on purpose, each with its reason. An entry
// is "pkg.Func" or "pkg.Type.Method", pkg relative to internal/.
var testOnlyAllowlist = map[string]string{
	"core.MIC":           "Figs 8/9 tests and BenchmarkAblationMIC select references through it",
	"core.WithAutoScale": "BenchmarkAblationTermScaling turns the §IV-E scaling off through it",
	"core.WithVariant":   "the printed-Algorithm-1 tests and BenchmarkAblationSolverVariant select VariantPaper through it",
	"loc.NewNearestColumn": "the nearest-column baseline of loc's tests and BenchmarkAblationMatcher; " +
		"K-NN voting reduces to it on a one-column-per-cell grid",
	"eval.DriftMonitorRun":             "the drift scenario's harness, driven by internal/eval's detection tests",
	"eval.DriftRunConfig.withDefaults": "helper of DriftMonitorRun",
	"eval.laborEntryErrDB":             "helper of DriftMonitorRun",
	"eval.manualUpdateErrDB":           "helper of DriftMonitorRun",
	"geom.Grid.Strip":                  "the grid, RF band-structure and survey tests read a cell's strip through it",
	"mat.AddM":                         "matrix test helper used by mat's and core's tests",
	"mat.Dense.Col":                    "matrix test helper used across the internal packages' tests",
	"mat.Dense.Equal":                  "matrix test helper used across the internal packages' tests",
	"mat.Dense.EqualApprox":            "matrix test helper used across the internal packages' tests",
	"mat.NewFromData":                  "matrix test helper used by mat's and fingerprint's tests",
	"mat.NewFromRows":                  "matrix test helper used across the internal packages' tests",
	"mat.RandomNormal":                 "matrix test helper used across the internal packages' tests",
}

// errorsInterfaces declares the interfaces the errors package asserts on
// without naming them, so Unwrap, Is and As methods count as reached.
const errorsInterfaces = `package errorsifaces

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

// TestInternalCodeHasProductionCallers guards against code that only
// tests reach. It type-checks the module's non-test sources (bench/
// included) and walks function references from the production roots:
// every function of the root package, cmd/*, examples/* and bench/,
// every init function and package-level initializer, and every method
// that satisfies an interface. An internal/ function the walk never
// reaches must be deleted, or allowlisted with a reason.
func TestInternalCodeHasProductionCallers(t *testing.T) {
	if raceEnabled {
		t.Skip("type-checking the standard library from source is slow under -race")
	}
	listed := map[string]bool{}
	for _, name := range unreachedInternalFuncs(t) {
		listed[name] = true
		if _, ok := testOnlyAllowlist[name]; !ok {
			t.Errorf("%s is reached only from tests: delete it or allowlist it with a reason", name)
		}
	}
	for name := range testOnlyAllowlist {
		if !listed[name] {
			t.Errorf("allowlist entry %s is reached from production code or no longer exists: drop it", name)
		}
	}
}

// unreachedInternalFuncs returns the sorted names of the internal/
// functions and methods that no production root reaches.
func unreachedInternalFuncs(t *testing.T) []string {
	t.Helper()
	l := &reachLoader{
		fset:  token.NewFileSet(),
		pkgs:  map[string]*reachPkg{},
		uses:  map[*types.Func][]*types.Func{},
		decls: map[*types.Func]bool{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)

	var roots []*types.Func
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		importPath := "iupdater"
		if path != "." {
			importPath += "/" + filepath.ToSlash(path)
		}
		p, err := l.load(importPath, bp)
		if err != nil {
			return err
		}
		if !strings.HasPrefix(importPath, "iupdater/internal/") {
			roots = append(roots, p.funcs...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Package-level initializers and init functions run in every binary.
	var initRefs []*types.Func
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						initRefs = append(initRefs, l.refs(d)...)
					}
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						initRefs = append(initRefs, l.refs(d)...)
					}
				}
			}
		}
	}
	roots = append(roots, initRefs...)
	roots = append(roots, l.interfaceMethods()...)

	reached := map[*types.Func]bool{}
	for len(roots) > 0 {
		fn := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[fn] {
			continue
		}
		reached[fn] = true
		roots = append(roots, l.uses[fn]...)
	}

	var unreached []string
	for fn := range l.decls {
		pkg := fn.Pkg().Path()
		if !strings.HasPrefix(pkg, "iupdater/internal/") || reached[fn] {
			continue
		}
		name := strings.TrimPrefix(pkg, "iupdater/internal/") + "."
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			name += rt.(*types.Named).Obj().Name() + "."
		}
		unreached = append(unreached, name+fn.Name())
	}
	sort.Strings(unreached)
	return unreached
}

type reachPkg struct {
	pkg   *types.Package
	files []*ast.File
	funcs []*types.Func
}

// reachLoader type-checks the module's packages from source, sharing
// one types.Info, and records for each declared function the functions
// its body refers to.
type reachLoader struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*reachPkg
	uses  map[*types.Func][]*types.Func
	decls map[*types.Func]bool
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if path != "iupdater" && !strings.HasPrefix(path, "iupdater/") {
		return l.std.Import(path)
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, "iupdater"), "/")
	if dir == "" {
		dir = "."
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p, err := l.load(path, bp)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *reachLoader) load(path string, bp *build.Package) (*reachPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	p := &reachPkg{}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, p.files, l.info)
	if err != nil {
		return nil, err
	}
	p.pkg = pkg
	for _, f := range p.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn := l.info.Defs[fd.Name].(*types.Func)
			l.decls[fn] = true
			l.uses[fn] = l.refs(fd)
			p.funcs = append(p.funcs, fn)
		}
	}
	l.pkgs[path] = p
	return p, nil
}

// refs lists the module functions that node refers to.
func (l *reachLoader) refs(node ast.Node) []*types.Func {
	var out []*types.Func
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if fn, ok := l.info.Uses[id].(*types.Func); ok {
			out = append(out, fn.Origin())
		}
		return true
	})
	return out
}

// interfaceMethods returns the module methods that implement a method
// of some interface type the module or its imports declare or spell out.
func (l *reachLoader) interfaceMethods() []*types.Func {
	ifaces := map[string][]*types.Interface{}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.pkgs {
		visit(p.pkg)
	}
	f, err := parser.ParseFile(l.fset, "errorsifaces.go", errorsInterfaces, 0)
	if err != nil {
		panic(err)
	}
	errs, err := new(types.Config).Check("errorsifaces", l.fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	visit(errs)
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, tv := range l.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok {
			addIface(it)
		}
	}

	var out []*types.Func
	for fn := range l.decls {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		rt := recv.Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		named := rt.(*types.Named)
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				out = append(out, fn)
				break
			}
		}
	}
	return out
}
