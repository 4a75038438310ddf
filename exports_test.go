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
	"sort"
	"strings"
	"testing"
)

// exportsList pins the exported funcs and methods of the root module that
// no production (non-test) code calls. Each line is "<name> <tag>", where
// name is types.Func.FullName and tag says why the export stays:
//
//	oracle      a reference implementation or probe tests hold other code to
//	fake        a test double behind a production seam
//	accessor    a small read of state the production code keeps anyway
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
	for _, dir := range []string{".", "benchmark"} {
		scanModule(t, dir, dir == ".", declared, used, ifaceMethods)
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

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
}

// scanModule type-checks the module's own packages from source, importing
// every dependency from the export data `go list -export` built, and
// records the funcs they declare (when declare is set) and reference.
func scanModule(t *testing.T, dir string, declare bool, declared map[string]token.Position, used, ifaceMethods map[string]bool) {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
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
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		noteInterfaces(info, ifaceMethods)
		for _, f := range files {
			for _, decl := range f.Decls {
				self := types.Object(nil)
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = info.Defs[fd.Name]
					if declare && fd.Name.IsExported() {
						declared[self.(*types.Func).FullName()] = fset.Position(fd.Pos())
					}
				}
				// A function's references to itself are not callers.
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := info.Uses[id].(*types.Func); ok && fn != self {
						used[fn.Origin().FullName()] = true
					}
					return true
				})
			}
		}
	}
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

// readExportsList parses the ratchet's list, rejecting unknown tags and
// duplicates so the file stays exact.
func readExportsList(path string) (map[string]string, error) {
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
		if len(fields) != 2 || !exportTags[fields[1]] {
			return nil, fmt.Errorf("%s:%d: want \"<name> <oracle|fake|accessor|client-api>\", got %q", path, line, text)
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
