package strippack

import (
	"bufio"
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The reachability gate: every function and method in a non-test file
// under the repository root — cmd/, examples/, internal/ and the nested
// benchmark/ module — must be reachable from production code, or carry
// an allow-list entry that says why it stays. Code that only tests call
// belongs in a _test.go file beside them, or nowhere.
//
// Reachability is the linker's. The gate builds every main package of
// both modules with inlining off in this module's packages (so an
// inlined callee still shows) and -ldflags=-dumpdep, which makes the
// linker print each "from -> to" edge of its dead-code pass. A function
// is reached when its symbol is in some binary's edges (a main package's
// functions only in its own binary's); a generic function's
// instantiations, its closures and its method-value wrappers count as
// the function. The linker is type-aware: it keeps a method that no
// call names only when its type is converted to an interface (or sits
// in a type that is) and reached code calls an interface method of the
// same name and signature. So a dead method that merely shares its name
// with a live one shows, and so does a dead String or Len method unless
// its type meets fmt.Stringer or sort.Interface through an interface
// value.
//
// Run it alone with
//
//	go test -run TestEveryFunctionReached .

// reachAllow lists the functions that stay in production although no
// production code reaches them, keyed "dir.Name" or "dir.Recv.Name" with
// dir relative to the repository root. Each entry says why it stays; an
// entry that names no unreached function fails the gate.
var reachAllow = map[string]string{
	"internal/fpga.OnlineScheduler.Complete": "the engine's external-completion entry point; the fault harness and fault_test.go's reference engine drive it, while the served path registers lifetimes at submit",
	"internal/workload.Burst":                "the materialized BurstStream, shared by the fpga, fleet, service and root tests",
	"internal/packing.Registry":              "the list of packers that the packing and exact tests iterate over",
}

// maxReachAllow caps reachAllow and reachTestSupport together, so the
// lists stay short enough that each entry is a decision.
const maxReachAllow = 5

// reachTestSupport names packages that only tests may import. Their
// files are left out of the scan, so they neither reach nor count as
// unreached, and any of their symbols linked into a binary fails the
// gate.
var reachTestSupport = map[string]string{
	"internal/faultinject": "the fault-injection harness that the fpga tests drive",
	"internal/lp/lptest":   "the dense and exact-rational reference LP solvers that lp's and release's tests check lp.Revised against",
}

// reachModule is the root module's path; benchmark/ is the module
// reachModule/benchmark.
const reachModule = "strippack"

func TestEveryFunctionReached(t *testing.T) {
	type declared struct {
		dir, key, pos string
		main          bool
	}
	var funcs []declared
	mainDirs := map[string]bool{}
	fset := token.NewFileSet()
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
		dir := filepath.ToSlash(filepath.Dir(path))
		isMain := f.Name.Name == "main"
		if isMain {
			mainDirs[dir] = true
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil && fd.Name.Name == "init" {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = recvName(fd.Recv.List[0].Type) + "." + name
			}
			p := fset.Position(fd.Pos())
			funcs = append(funcs, declared{
				dir: dir, key: name, main: isMain,
				pos: fmt.Sprintf("%s:%d", p.Filename, p.Line),
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

	// reached holds every reached function of a library package as
	// "importpath.Name" and of a main package as "dir:main.Name".
	reached := map[string]bool{}
	tmp := t.TempDir()
	linkDeps(t, reached, ".", tmp)
	linkDeps(t, reached, "benchmark", tmp)
	for dir := range mainDirs {
		if !reached[dir+":main.main"] {
			t.Errorf("main package %s was not linked by the gate's builds", dir)
		}
	}

	var unreached []string
	allowUsed := map[string]bool{}
	for _, f := range funcs {
		sym := reachModule + "/" + f.dir + "." + f.key
		if f.dir == "." {
			sym = reachModule + "." + f.key
		}
		if f.main {
			sym = f.dir + ":main." + f.key
		}
		if reached[sym] {
			continue
		}
		if key := f.dir + "." + f.key; reachAllow[key] != "" {
			allowUsed[key] = true
			continue
		}
		unreached = append(unreached, fmt.Sprintf("%s: %s.%s", f.pos, f.dir, f.key))
	}
	slices.Sort(unreached)
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

// linkDeps builds every main package of the module rooted at modDir into
// tmp with the linker's dependency dump on and adds each reached
// function of this repository to reached (see TestEveryFunctionReached
// for the key forms). It fails the test when the build fails, when a
// test-support package is linked, and when a binary looks methods up by
// reflection, which makes the linker keep every exported method of every
// reached type and so would hide dead methods.
func linkDeps(t *testing.T, reached map[string]bool, modDir, tmp string) {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the gate needs the go command: %v", err)
	}
	cmd := exec.Command(gobin, "build", "-o", tmp+string(filepath.Separator),
		"-gcflags="+reachModule+"/...=-l", "-ldflags=-dumpdep", "./...")
	cmd.Dir = modDir
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var other []string
	bad := map[string]string{} // each problem found, to a symbol that shows it
	binary := ""               // directory of the main package whose edges follow
	sc := bufio.NewScanner(stderr)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if pkg, ok := strings.CutPrefix(line, "# "); ok {
			binary = strings.TrimPrefix(strings.TrimPrefix(pkg, reachModule), "/")
			if binary == "" {
				binary = "."
			}
			continue
		}
		from, to, ok := strings.Cut(line, " -> ")
		if !ok {
			other = append(other, line)
			continue
		}
		for _, sym := range [2]string{from, to} {
			if strings.Contains(sym, "<ReflectMethod>") || reachReflect[sym] {
				p := binary + " looks methods up by reflection, so the linker keeps every exported method and the gate cannot see dead ones"
				bad[p] = cmp.Or(bad[p], sym)
			}
			for dir := range reachTestSupport {
				if strings.Contains(sym, reachModule+"/"+dir+".") {
					p := binary + " links test-support package " + dir
					bad[p] = cmp.Or(bad[p], sym)
				}
			}
			if key, ok := reachSymbol(sym); ok {
				if strings.HasPrefix(key, "main.") {
					key = binary + ":" + key
				}
				reached[key] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("go build in %s: %v\n%s", modDir, err, strings.Join(other, "\n"))
	}
	for _, p := range slices.Sorted(maps.Keys(bad)) {
		t.Errorf("%s (%s)", p, bad[p])
	}
}

var (
	reachReflect = map[string]bool{"reflect.Value.Method": true, "reflect.Value.MethodByName": true}
	reachFlags   = regexp.MustCompile(`( <[A-Za-z]+>)+$`)
	reachClosure = regexp.MustCompile(`^(func|gowrap|deferwrap)[0-9]+$`)
)

// reachSymbol maps a linker symbol of this repository's code to the
// function it belongs to, "importpath.F" or "importpath.T.M" (main.F for
// a main package): it drops the dump's attribute flags, generic
// instantiation brackets, the (*T) pointer-receiver form, a method
// value's -fm suffix and closure suffixes. Other symbols (types,
// dictionaries, data, and per-function metadata such as arginfo, whose
// contents the linker may share between functions) report false.
func reachSymbol(sym string) (string, bool) {
	sym = reachFlags.ReplaceAllString(sym, "")
	if !strings.HasPrefix(sym, reachModule+".") && !strings.HasPrefix(sym, reachModule+"/") && !strings.HasPrefix(sym, "main.") {
		return "", false
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	sym = b.String()
	dot := strings.LastIndexByte(sym, '/') + 1
	if i := strings.IndexByte(sym[dot:], '.'); i >= 0 {
		dot += i
	} else {
		return "", false
	}
	pkg, parts := sym[:dot], strings.Split(sym[dot+1:], ".")
	parts[len(parts)-1] = strings.TrimSuffix(parts[len(parts)-1], "-fm")
	for len(parts) > 1 && reachClosure.MatchString(parts[len(parts)-1]) {
		parts = parts[:len(parts)-1]
	}
	if len(parts) > 2 || parts[0] == "" {
		return "", false
	}
	return pkg + "." + strings.Join(parts, "."), true
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
