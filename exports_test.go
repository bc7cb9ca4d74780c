package spottune

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlySurvivors are the exported functions and methods under internal/
// that no non-test file references and that stay on purpose, keyed as
// TestNoTestOnlyExports names them.
var testOnlySurvivors = map[string]string{
	"cloudsim.NewCluster":           "the cluster fixture that the tests of several packages share",
	"cloudsim.InstanceState.String": "fmt.Stringer: instance states print by name",
	"cloudsim.capacityError.Unwrap": "errors.Is matches a capacity rejection to ErrCapacityUnavailable, RequestSpot's documented contract",
	"cloudsim.priceError.Unwrap":    "errors.Is matches a price rejection to ErrPriceAboveMax, RequestSpot's documented contract",
	"market.ReadCSV":                "reads the paper's real trace format; fuzzed by FuzzTraceCSVRoundTrip",
	"market.WriteSetCSV":            "writes the paper's real trace format; fuzzed by FuzzTraceCSVRoundTrip",
	"market.Trace.AvgOver":          "the segment-walk reference the store's block integrals are compared against",
	"market.Trace.MaxOver":          "test-only since its one caller, the tracegen CLI, went; deleting it deletes TestWindowAndMaxOver and TestMaxOverHalfOpenBoundaries, left for a later change",
	"obs.SchemaJSON":                "renders the trace schema that TestSchemaGolden diffs against the committed fixture",
	"revpred.Model.Save":            "with LoadModel, lets BenchmarkRevPredInference empty a model's memo",
	"revpred.LoadModel":             "with Save, lets BenchmarkRevPredInference empty a model's memo",
	"stats.ArgMin":                  "test-only since TopKAccuracy went; deleting it deletes TestMinMaxArgMin, left for a later change",
	"stats.TopK":                    "test-only since TopKAccuracy went; deleting it deletes three TopK tests, left for a later change",
}

// TestNoTestOnlyExports fails on every exported function or method under
// internal/ that no non-test file of either module (this one and
// benchmark/) references, other than the survivors listed above. A method
// that satisfies an interface declared in either module, or error, counts
// as referenced: callers reach it through the interface.
func TestNoTestOnlyExports(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	fset := token.NewFileSet()
	checked := map[string]*types.Package{}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	decls := map[*types.Func]*ast.FuncDecl{}
	var ifaces []*types.Interface
	// Standard-library packages come from their export data, through one
	// importer for both modules so that both see the same types.
	exports := map[string]string{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		return gc.Import(path)
	})
	for _, dir := range []string{".", "benchmark"} {
		pkgs, err := listPackages(gobin, dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			exports[p.ImportPath] = p.Export
		}
		for _, p := range pkgs {
			if p.Standard || checked[p.ImportPath] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			conf := types.Config{Importer: imp}
			pkg, err := conf.Check(p.ImportPath, fset, files, info)
			if err != nil {
				t.Fatalf("type-check %s: %v", p.ImportPath, err)
			}
			checked[p.ImportPath] = pkg
			for _, name := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						ifaces = append(ifaces, it)
					}
				}
			}
			if strings.Contains(p.ImportPath, "/internal/") {
				for _, f := range files {
					for _, d := range f.Decls {
						if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
							decls[info.Defs[fd.Name].(*types.Func)] = fd
						}
					}
				}
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	// A reference from inside the function's own body does not count.
	used := map[*types.Func]bool{}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if decl := decls[fn]; decl != nil && decl.Pos() <= id.Pos() && id.Pos() < decl.End() {
			continue
		}
		used[fn] = true
	}

	var unused []string
	seen := map[string]bool{}
	for fn := range decls {
		if used[fn] || satisfiesInterface(fn, ifaces) {
			continue
		}
		key := exportKey(fn)
		seen[key] = true
		if _, ok := testOnlySurvivors[key]; !ok {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s: exported under internal/ but referenced by no non-test file; delete it, unexport it, or list it in testOnlySurvivors with the reason it stays", key)
	}
	for key := range testOnlySurvivors {
		if !seen[key] {
			t.Errorf("testOnlySurvivors lists %s, which is gone or has a non-test reference", key)
		}
	}
}

type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
}

// listPackages returns every package of the module in dir and every
// package they import, dependencies first, with their export data built.
func listPackages(gobin, dir string) ([]listedPackage, error) {
	cmd := exec.Command(gobin, "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// satisfiesInterface reports whether fn is a method through which a value
// of its receiver type, or a pointer to one, satisfies one of ifaces.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	for _, it := range ifaces {
		if it.NumMethods() == 0 {
			continue
		}
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				has = true
				break
			}
		}
		if has && (types.Implements(recv, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}

// exportKey names fn as pkg.Func or pkg.Type.Method, pkg being the last
// element of its import path.
func exportKey(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name += named.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}
