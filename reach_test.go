package strippack

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The reachability gate: every function and method in a non-test file
// under the repository root — cmd/, examples/, internal/ and the nested
// benchmark/ module — must be reachable from production code, or carry
// an allow-list entry that says why it stays. Code that only tests call
// belongs in a _test.go file beside them, or nowhere.
//
// The scan is name-level and needs no type information. Every identifier
// in a non-function declaration (var, const, type) is a root, and so is
// every identifier in the body of main, init and the methods the standard
// library calls through an interface (String, Error, Len, ...). A
// function is reached when its name appears in a root or in the body of
// a reached function other than itself; the scan repeats to a fixpoint,
// so a chain of functions that only call each other shows at once. A
// package-qualified name pkg.F reaches only the function F of that
// package, and a bare F only the F of the same package; a method is
// reached by its name alone, wherever it appears. So the gate can miss a
// dead method that shares its name with a live one, but it never reports
// live code.
//
// Run it alone with
//
//	go test -run TestEveryFunctionReached .

// reachAllow lists the functions that stay in production although no
// production code reaches them, keyed "dir.Name" or "dir.Recv.Name" with
// dir relative to the repository root. Each entry says why it stays; an
// entry that names no unreached function fails the gate.
var reachAllow = map[string]string{
	"internal/fpga.OnlineScheduler.Complete":    "the engine's external-completion entry point; the fault harness and fault_test.go's reference engine drive it, while the served path registers lifetimes at submit",
	"internal/lp.SolveExact":                    "the big.Rat oracle that lp's and release's tests compare the float engines against",
	"internal/service.Client.RemoteEpoch":       "client half of the opEpoch wire op documented in internal/service/DESIGN.md; the network reaches the server half",
	"internal/service.Client.TriggerCheckpoint": "client half of the opCheckpoint wire op documented in internal/service/DESIGN.md; the network reaches the server half",
	"internal/workload.Burst":                   "the materialized BurstStream, shared by the fpga, fleet, service and root tests",
	"internal/packing.Registry":                 "the list of packers that the packing and exact tests iterate over",
	"internal/core/release.LowerBound":          "the release-time lower bound that fpga's online tests check makespans against",
}

// maxReachAllow caps reachAllow and reachTestSupport together, so the
// lists stay short enough that each entry is a decision.
const maxReachAllow = 8

// reachTestSupport names packages that only tests may import. Their
// files are left out of the scan, so they neither reach nor count as
// unreached, and a non-test file that imports one fails the gate.
var reachTestSupport = map[string]string{
	"internal/faultinject": "the fault-injection harness that the fpga tests drive",
}

// stdlibMethods are method names that the standard library calls
// through an interface, so no call site in this repository names them.
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

type reachFunc struct {
	key    string // dir.Name or dir.Recv.Name
	pos    string // file:line
	name   string
	method bool
	decl   *ast.FuncDecl
	file   *reachFile
}

// reachFile is what resolving a name needs from its file: the package
// directory and the directory behind each import name of this module.
type reachFile struct {
	dir     string
	imports map[string]string // import name -> package directory
}

type reachRoot struct {
	node ast.Node
	file *reachFile
}

func TestEveryFunctionReached(t *testing.T) {
	const module = "strippack"
	fset := token.NewFileSet()
	var funcs []*reachFunc
	var roots []reachRoot
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if _, ok := reachTestSupport[filepath.ToSlash(path)]; ok {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rf := &reachFile{dir: filepath.ToSlash(filepath.Dir(path)), imports: map[string]string{}}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			dir, ok := strings.CutPrefix(p, module+"/")
			if p == module {
				dir, ok = ".", true
			}
			if !ok {
				dir = "" // outside the module: reaches no function of ours
			}
			rf.imports[name] = dir
			if _, ok := reachTestSupport[dir]; ok {
				t.Errorf("%s imports test-support package %s", path, p)
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				roots = append(roots, reachRoot{decl, rf})
				continue
			}
			name := fd.Name.Name
			if fd.Recv == nil && (name == "main" || name == "init") || fd.Recv != nil && stdlibMethods[name] {
				roots = append(roots, reachRoot{fd, rf})
				continue
			}
			key := rf.dir + "." + name
			if fd.Recv != nil {
				key = rf.dir + "." + recvName(fd.Recv.List[0].Type) + "." + name
			}
			p := fset.Position(fd.Pos())
			funcs = append(funcs, &reachFunc{
				key: key, pos: fmt.Sprintf("%s:%d", p.Filename, p.Line),
				name: name, method: fd.Recv != nil, decl: fd, file: rf,
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range reachTestSupport {
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("test-support package %s no longer exists; drop its entry", dir)
		}
	}

	byName := map[string][]*reachFunc{}
	for _, f := range funcs {
		byName[f.name] = append(byName[f.name], f)
	}
	reached := map[*reachFunc]bool{}
	var work []*reachFunc
	// mark reaches every method called name and every function called
	// name in package directory dir, except self.
	mark := func(name, dir string, self *reachFunc) {
		for _, f := range byName[name] {
			if f != self && !reached[f] && (f.method || f.file.dir == dir) {
				reached[f] = true
				work = append(work, f)
			}
		}
	}
	// reach marks what the identifiers under n name, resolving them in
	// file; self is the function whose declaration n is, which its own
	// body does not reach.
	reach := func(n ast.Node, file *reachFile, self *reachFunc) {
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if dir, ok := file.imports[id.Name]; ok {
						mark(x.Sel.Name, dir, self)
						return false
					}
				}
				mark(x.Sel.Name, "", self) // a field or method
				ast.Inspect(x.X, visit)
				return false
			case *ast.Ident:
				mark(x.Name, file.dir, self)
			}
			return true
		}
		ast.Inspect(n, visit)
	}
	for _, r := range roots {
		if fd, ok := r.node.(*ast.FuncDecl); ok {
			reach(fd.Type, r.file, nil)
			reach(fd.Body, r.file, nil)
			continue
		}
		reach(r.node, r.file, nil)
	}
	fixpoint := func() {
		for len(work) > 0 {
			f := work[len(work)-1]
			work = work[:len(work)-1]
			reach(f.decl.Type, f.file, f)
			if f.decl.Body != nil {
				reach(f.decl.Body, f.file, f)
			}
		}
	}
	fixpoint()

	// An allow-listed function stays in production, and so does what it
	// calls: its body reaches like a root's once the entry has been used.
	allowUsed := map[string]bool{}
	for _, f := range funcs {
		if _, ok := reachAllow[f.key]; ok && !reached[f] {
			allowUsed[f.key] = true
			reached[f] = true
			work = append(work, f)
		}
	}
	fixpoint()

	var unreached []string
	for _, f := range funcs {
		if !reached[f] {
			unreached = append(unreached, fmt.Sprintf("%s: %s", f.pos, f.key))
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("unreached from production code: %s", u)
	}
	if len(unreached) > 0 {
		t.Logf("%d unreached functions: move each oracle or checker into its package's _test.go, delete the rest with their tests, or allow-list it with a reason", len(unreached))
	}
	for key, reason := range reachAllow {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allow-list entry %s has no reason", key)
		}
		if !allowUsed[key] {
			t.Errorf("allow-list entry %s names no unreached function (gone or now reached); drop it", key)
		}
	}
	for dir, reason := range reachTestSupport {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("test-support entry %s has no reason", dir)
		}
	}
	if n := len(reachAllow) + len(reachTestSupport); n > maxReachAllow {
		t.Errorf("%d allow-list and test-support entries, at most %d: move or delete code instead of listing it", n, maxReachAllow)
	}
}

// recvName returns a method receiver's base type name: T for T, *T,
// T[K] and *T[K].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}
