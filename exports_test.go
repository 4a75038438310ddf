package ironhide

import (
	"bufio"
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
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportsList pins the exported funcs and methods of the root module that
// no production (non-test) code calls. Each line is "<name> <tag>", where
// name is types.Func.FullName and tag says why the export stays:
//
//	oracle      a reference implementation or probe tests hold other code to
//	fake        a test double behind a production seam
//	accessor    a small read of state that production reads too
//	client-api  API for callers outside this repository
const exportsList = "testdata/test_only_exports.txt"

var exportTags = map[string]bool{"oracle": true, "fake": true, "accessor": true, "client-api": true}

// Methods the standard library calls through its own interfaces, which
// the modules here satisfy without naming them.
var stdlibInterfaceMethods = []string{
	"Error",               // error
	"String",              // fmt.Stringer
	"ServeHTTP",           // http.Handler
	"Write",               // io.Writer
	"Close",               // io.Closer
	"Len", "Less", "Swap", // sort.Interface
	"Push", "Pop", // heap.Interface
}

// TestTestOnlyExports is the ratchet that keeps production packages to
// what production runs. It type-checks the non-test files of every
// package in the root module and in benchmark/ (a consumer of the root
// module's API), then finds each exported func or method of the root
// module that no non-test file references. A method whose name belongs to
// an interface either module references — or to one of the standard
// library interfaces above — is exempt, since its callers are dynamic.
// The result must equal testdata/test_only_exports.txt exactly: a new
// test-only export fails, and so does a listed one that gained a
// production caller or no longer exists.
func TestTestOnlyExports(t *testing.T) {
	if raceEnabled {
		t.Skip("a static scan; the race detector adds nothing to it")
	}
	declared := map[string]token.Position{} // exported funcs of the root module
	used := map[string]bool{}               // funcs referenced by non-test code
	ifaceMethods := map[string]bool{}
	for _, name := range stdlibInterfaceMethods {
		ifaceMethods[name] = true
	}
	for _, p := range checkedPackages(t) {
		noteInterfaces(p.info, ifaceMethods)
		for _, f := range p.files {
			for _, decl := range f.Decls {
				self := types.Object(nil)
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
					if p.root && fd.Name.IsExported() {
						declared[self.(*types.Func).FullName()] = p.fset.Position(fd.Pos())
					}
				}
				// A function's references to itself are not callers.
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := p.info.Uses[id].(*types.Func); ok && fn != self {
						used[fn.Origin().FullName()] = true
					}
					return true
				})
			}
		}
	}

	found := map[string]bool{}
	for name := range declared {
		if used[name] || ifaceMethods[methodName(name)] {
			continue
		}
		found[name] = true
	}

	listed, err := readExportsList(exportsList)
	if err != nil {
		t.Fatal(err)
	}
	var problems []string
	for _, name := range sortedKeys(found) {
		if _, ok := listed[name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: %s is exported but only tests call it; delete it, unexport it, or list it with a tag", declared[name], name))
		}
	}
	for _, name := range sortedKeys(listed) {
		switch {
		case found[name]:
		case declared[name] == token.Position{}:
			problems = append(problems, fmt.Sprintf("%s is listed but no longer exists; drop it from %s", name, exportsList))
		default:
			problems = append(problems, fmt.Sprintf("%s is listed but production code now calls it; drop it from %s", name, exportsList))
		}
	}
	for _, p := range problems {
		t.Error(p)
	}
	t.Logf("%d test-only exports of %d exported funcs and methods", len(found), len(declared))
}

// goStatementsList pins the funcs of the root module whose non-test code
// holds a go statement. Each line is "<name> <tag>", where name is
// types.Func.FullName and tag says why the func starts goroutines:
//
//	pool     the one worker pool every fan-out goes through
//	handler  a request's work runs apart from the handler that answers it
//	main     a program serves while its main goroutine waits
const goStatementsList = "testdata/go_statements.txt"

var goStatementTags = map[string]bool{"pool": true, "handler": true, "main": true}

// TestGoStatements is the ratchet that keeps concurrency in the few places
// that need it: fan-out belongs to runner.Map, so a new hand-rolled pool
// (or any other go statement) fails until its func is listed, with a tag,
// in testdata/go_statements.txt. The list must be exact: a listed func
// that no longer starts goroutines fails too.
func TestGoStatements(t *testing.T) {
	if raceEnabled {
		t.Skip("a static scan; the race detector adds nothing to it")
	}
	found := map[string]token.Position{}
	for _, p := range checkedPackages(t) {
		if !p.root {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				name := p.path + " (package-level initializer)"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					name = p.info.Defs[fd.Name].(*types.Func).FullName()
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						if _, seen := found[name]; !seen {
							found[name] = p.fset.Position(g.Pos())
						}
					}
					return true
				})
			}
		}
	}
	listed, err := readTaggedList(goStatementsList, goStatementTags)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedKeys(found) {
		if _, ok := listed[name]; !ok {
			t.Errorf("%s: %s starts a goroutine; fan out through runner.Map, or list it with a tag in %s", found[name], name, goStatementsList)
		}
	}
	for _, name := range sortedKeys(listed) {
		if _, ok := found[name]; !ok {
			t.Errorf("%s is listed but starts no goroutine; drop it from %s", name, goStatementsList)
		}
	}
	t.Logf("%d funcs start goroutines", len(found))
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
}

// checkedPackage is one non-test package, type-checked from source.
type checkedPackage struct {
	path  string
	root  bool // of the root module, not of benchmark/
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
}

var (
	checkOnce sync.Once
	checked   []checkedPackage
	checkErr  error
)

// checkedPackages type-checks the non-test files of every package in the
// root module and in benchmark/ (a consumer of the root module's API), once
// per test binary; both ratchets read the result.
func checkedPackages(t *testing.T) []checkedPackage {
	t.Helper()
	checkOnce.Do(func() {
		for _, dir := range []string{".", "benchmark"} {
			pkgs, err := checkModule(dir)
			if err != nil {
				checkErr = err
				return
			}
			checked = append(checked, pkgs...)
		}
	})
	if checkErr != nil {
		t.Fatal(checkErr)
	}
	return checked
}

// checkModule type-checks the module's own packages from source, importing
// every dependency from the export data `go list -export` built.
func checkModule(dir string) ([]checkedPackage, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, err
		}
		exports[p.ImportPath] = p.Export
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			pkgs = append(pkgs, p)
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	var checkedPkgs []checkedPackage
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		checkedPkgs = append(checkedPkgs, checkedPackage{path: p.ImportPath, root: dir == ".", fset: fset, files: files, info: info})
	}
	return checkedPkgs, nil
}

// noteInterfaces records the method names of every interface the package
// declares or whose type some expression has (type expressions included),
// named or literal, declared here or imported.
func noteInterfaces(info *types.Info, names map[string]bool) {
	add := func(typ types.Type) {
		if typ == nil {
			return
		}
		iface, ok := typ.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			names[iface.Method(i).Name()] = true
		}
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			add(tn.Type())
		}
	}
	for _, tv := range info.Types {
		add(tv.Type)
	}
}

// methodName returns the bare name of a FullName ("pkg.F" or
// "(*pkg.T).M"), which is what interface satisfaction goes by.
func methodName(full string) string {
	if !strings.HasPrefix(full, "(") {
		return "" // a plain func satisfies no interface
	}
	return full[strings.LastIndex(full, ".")+1:]
}

// readExportsList parses the exports ratchet's list.
func readExportsList(path string) (map[string]string, error) {
	return readTaggedList(path, exportTags)
}

// readTaggedList parses a ratchet's list of "<name> <tag>" lines,
// rejecting unknown tags and duplicates so the file stays exact.
func readTaggedList(path string, tags map[string]bool) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	listed := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 || !tags[fields[1]] {
			return nil, fmt.Errorf("%s:%d: want \"<name> <%s>\", got %q", path, line, strings.Join(sortedKeys(tags), "|"), text)
		}
		if _, dup := listed[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, line, fields[0])
		}
		listed[fields[0]] = fields[1]
	}
	return listed, sc.Err()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fieldsList pins the struct fields of the simulator's packages
// (fieldPackages) that no production code reads. Each line is
// "<pkg>.<Type>.<Field> <tag>" with one of these tags:
//
//	oracle  state that only tests read, to hold the model to
const fieldsList = "testdata/unread_fields.txt"

var fieldTags = map[string]bool{"oracle": true}

// fieldPackages are the packages whose struct fields TestUnreadFields
// covers: the simulated machine, whose state every access writes.
var fieldPackages = []string{"arch", "cache", "tlb", "mem", "noc", "sim"}

// TestUnreadFields is the ratchet that keeps the simulator's state to
// what something reads. It finds each struct field declared in
// fieldPackages that no non-test code of the root module or benchmark/
// reads. A field is read when it is used other than as the target of an
// assignment or increment, as the source of an assignment to the same
// field of another value (summing counters into an aggregate), or as the
// argument of clear, len or cap; writing through a pointer field reads the
// pointer. Reads inside the test-only exports of exportsList do not
// count. The result must equal testdata/unread_fields.txt exactly.
func TestUnreadFields(t *testing.T) {
	if raceEnabled {
		t.Skip("a static scan; the race detector adds nothing to it")
	}
	testOnly, err := readExportsList(exportsList)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]token.Position{}
	read := map[string]bool{}
	for _, p := range checkedPackages(t) {
		if p.root && slices.Contains(fieldPackages, strings.TrimPrefix(p.path, "ironhide/internal/")) {
			declareFields(p, declared)
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if _, listed := testOnly[p.info.Defs[fd.Name].(*types.Func).FullName()]; listed {
						continue
					}
				}
				noteFieldReads(p.info, decl, read)
			}
		}
	}

	found := map[string]bool{}
	for name := range declared {
		if !read[name] {
			found[name] = true
		}
	}
	listed, err := readTaggedList(fieldsList, fieldTags)
	if err != nil {
		t.Fatal(err)
	}
	var problems []string
	for _, name := range sortedKeys(found) {
		if _, ok := listed[name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: %s is written but no production code reads it; delete it or list it with a tag", declared[name], name))
		}
	}
	for _, name := range sortedKeys(listed) {
		switch {
		case found[name]:
		case declared[name] == token.Position{}:
			problems = append(problems, fmt.Sprintf("%s is listed but no longer exists; drop it from %s", name, fieldsList))
		default:
			problems = append(problems, fmt.Sprintf("%s is listed but production code now reads it; drop it from %s", name, fieldsList))
		}
	}
	for _, p := range problems {
		t.Error(p)
	}
	t.Logf("%d unread fields of %d declared", len(found), len(declared))
}

// declareFields records the fields of every named struct type the package
// declares, as "<pkg>.<Type>.<Field>".
func declareFields(p checkedPackage, declared map[string]token.Position) {
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := spec.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					declared[fieldName(p.path, spec.Name.Name, name.Name)] = p.fset.Position(name.Pos())
				}
			}
			return true
		})
	}
}

// fieldName is the list's name of a field: the package path without the
// module's internal/ prefix, the type, and the field.
func fieldName(pkgPath, typeName, field string) string {
	return strings.TrimPrefix(pkgPath, "ironhide/internal/") + "." + typeName + "." + field
}

// noteFieldReads records every field of a named struct type that node
// reads.
func noteFieldReads(info *types.Info, node ast.Node, read map[string]bool) {
	unread := map[ast.Expr]bool{} // field selections that only write
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				markTarget(info, lhs, unread)
				if len(n.Rhs) == len(n.Lhs) {
					if rhs, ok := ast.Unparen(n.Rhs[i]).(*ast.SelectorExpr); ok && sameField(info, lhs, rhs) {
						unread[rhs] = true
					}
				}
			}
		case *ast.IncDecStmt:
			markTarget(info, n.X, unread)
		case *ast.CallExpr:
			if builtinCall(info, n, "clear", "len", "cap") {
				for _, arg := range n.Args {
					markTarget(info, arg, unread)
				}
			}
		case *ast.SelectorExpr:
			if unread[n] {
				return true
			}
			sel := info.Selections[n]
			if sel == nil || sel.Kind() != types.FieldVal {
				return true
			}
			// Walk the selection's path, embedded fields included.
			typ := sel.Recv()
			for _, idx := range sel.Index() {
				if ptr, ok := typ.(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				named, _ := typ.(*types.Named)
				field := typ.Underlying().(*types.Struct).Field(idx)
				if named != nil && named.Obj().Pkg() != nil {
					read[fieldName(named.Obj().Pkg().Path(), named.Obj().Name(), field.Name())] = true
				}
				typ = field.Type()
			}
		}
		return true
	})
}

// markTarget marks the field selections an assignment to e writes without
// reading: e itself and, through struct values and indexing, the fields
// it is part of. A selection through a pointer reads the pointer.
func markTarget(info *types.Info, e ast.Expr, unread map[ast.Expr]bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		sel := info.Selections[e]
		if sel == nil || sel.Kind() != types.FieldVal {
			return
		}
		unread[e] = true
		if !sel.Indirect() {
			markTarget(info, e.X, unread)
		}
	case *ast.IndexExpr:
		markTarget(info, e.X, unread)
	}
}

// sameField reports whether two expressions select the same field of the
// same named struct type.
func sameField(info *types.Info, a, b ast.Expr) bool {
	sa, ok := ast.Unparen(a).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	sb, ok := ast.Unparen(b).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fa, fb := info.Selections[sa], info.Selections[sb]
	return fa != nil && fb != nil && fa.Kind() == types.FieldVal && fa.Obj() == fb.Obj()
}

// builtinCall reports whether call calls one of the named builtins.
func builtinCall(info *types.Info, call *ast.CallExpr, names ...string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && slices.Contains(names, b.Name())
}
