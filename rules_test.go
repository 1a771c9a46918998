package repro

// The repository's structural rules, in one table. Each row keeps a deleted
// design deleted or a pairing whole; it names the rule, says why it holds,
// and checks the parsed tree. Checks read identifiers, selectors, call
// sites, struct fields, imports, string literals and, for the request
// rule, the types go/types gives them, never raw text, so a comment can
// neither trip a rule nor hide a violation.

import (
	"errors"
	"go/ast"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// ruleRoots are the directories the rules read, relative to the repo root.
var ruleRoots = []string{"internal", "cmd", "examples", "benchmark"}

// goFile is one parsed Go file of the tree.
type goFile struct {
	path    string // slash-separated, relative to the repo root
	dir     string // its package directory
	test    bool   // a _test.go file
	build   string // its //go:build expression; "" when it has none
	ast     *ast.File
	imports map[string]string // import path → the name the file refers to it by
}

// repoTree is every Go file under ruleRoots, parsed once.
type repoTree struct {
	fset  *token.FileSet
	files []*goFile
}

// finding is one violation: where it is and what it is.
type finding struct{ at, what string }

type repoRule struct {
	name, why string
	check     func(*repoTree) []finding
}

var repoRules = []repoRule{
	{
		name:  "one-publish-path",
		why:   "a course is published one way, as its package; a manifest whose chunks were deposited first is a second way in",
		check: identRule(idents("AddManifest", "AddCourseFromManifest", "ManifestOf"), "Course", "PublishTo", "internal/", "cmd/", "examples/"),
	},
	{
		name: "playsvc-holds-no-chunk-store",
		why:  "the play service opens packages, so it needs no chunk store",
		check: func(t *repoTree) []finding {
			return t.each(t.src("internal/playsvc/"), func(f *goFile, n ast.Node) string {
				if s := f.pkgSel(n, "repro/internal/blobstore", "Store", "New"); s != "" {
					return s
				}
				return ""
			})
		},
	},
	{
		name: "deploy-mounts-the-routes",
		why:  "a deployment is assembled one way, by internal/deploy; only a cluster node's own mux (cluster.go) mounts the play routes beside it",
		check: func(t *repoTree) []finding {
			var files []*goFile
			for _, f := range t.src("internal/", "cmd/", "examples/") {
				if !under(f.path, "internal/deploy/", "internal/playsvc/cluster.go") {
					files = append(files, f)
				}
			}
			return t.each(files, func(f *goFile, n ast.Node) string {
				if s, ok := stringLit(n); ok && (s == "/play/" || s == "/room/" || s == "/telemetry/") {
					return strconv.Quote(s) + " is mounted by hand"
				}
				return ""
			})
		},
	},
	{
		name:  "one-http-do",
		why:   "every request that leaves a process is one faultnet.Exchange, the only (*http.Client).Do; every other .Do takes a func literal (sync.Once, RetryPolicy)",
		check: oneHTTPDo,
	},
	{
		name:  "no-request-outside-exchange",
		why:   "a request that leaves a process goes through faultnet.Exchange, never http.Get/Post/Head/PostForm, http.DefaultClient or a client's own Get/Post/Head/PostForm",
		check: noDirectRequests,
	},
	{
		name: "sessions-open-nothing",
		why:  "everything a session derives from a package's bytes (parsed container, compiled events, decoded frames) belongs to the opened gamepack.Package",
		check: func(t *repoTree) []finding {
			return t.each(t.src("internal/runtime/", "internal/playsvc/"), func(f *goFile, n ast.Node) string {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return ""
				}
				if s := f.pkgSel(call.Fun, "repro/internal/media/container", "Open"); s != "" {
					return s + " call"
				}
				if s := f.pkgSel(call.Fun, "repro/internal/media/playback", "OpenVideo"); s != "" {
					return s + " call"
				}
				if calleeName(call) == "CompileEvents" {
					return "CompileEvents call"
				}
				return ""
			})
		},
	},
	{
		name: "no-frame-cache-field",
		why:  "the frame cache belongs to the opened package; no option sizes or switches it",
		check: func(t *repoTree) []finding {
			banned := idents("FrameCache", "MirrorFrameCache", "FrameCacheBytes", "MirrorFrameCacheBytes")
			var out []finding
			for _, f := range t.src("internal/", "cmd/") {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					if st, ok := n.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, name := range fieldNames(field) {
								if banned[name] {
									out = append(out, finding{t.at(field.Pos()), "struct field " + name})
								}
							}
						}
					}
					return true
				})
			}
			return out
		},
	},
	{
		name:  "no-state-only-save",
		why:   "a session resumes from its snapshot and vgbl-play from its command log; a state-only save/restore lost the video cursor, tick clock, dialogue, transcript, armed item and pending quizzes",
		check: identRule(idents("SaveState", "RestoreState"), "", "", "internal/", "cmd/"),
	},
	{
		name: "one-state-codec",
		why:  "a game state has one binary form, runtime's StateEncoder and DecodeState: a snapshot stores the bytes an act reply carries, and no JSON state path sits beside them",
		check: func(t *repoTree) []finding {
			out := identRule(idents("LoadState"), "State", "Save", "internal/", "cmd/", "examples/")(t)
			for _, f := range t.src("internal/runtime/") {
				if _, ok := f.imports["encoding/json"]; ok {
					out = append(out, finding{t.at(f.ast.Package), "imports encoding/json"})
				}
			}
			return out
		},
	},
	{
		name: "one-session-lifecycle",
		why:  "every manager is durable, a create is an act, and the nodes count sessions: no non-durable manager, no create API beside the act, no session set in the gateway",
		check: func(t *repoTree) []finding {
			ident := identRule(idents("canSnapshot", "CreateRequest", "SessionCount"), "Manager", "Create", "internal/", "cmd/", "examples/")(t)
			lits := t.each(t.src("internal/", "cmd/", "examples/"), func(f *goFile, n ast.Node) string {
				if s, ok := stringLit(n); ok && strings.Contains(s, "gateway_sessions") {
					return "string literal " + strconv.Quote(s)
				}
				return ""
			})
			return append(ident, lits...)
		},
	},
	{
		name:  "kernel-twins-tested",
		why:   "each amd64 function portable code calls has a !amd64 twin, and a test that names it runs the kernel on amd64 and the twin everywhere else",
		check: kernelTwinsTested,
	},
	{
		name: "one-amd64-path",
		why:  "amd64 runs the SSE2 baseline with no CPU-feature dispatch, and every other target runs the Go twins, so each target has exactly one path",
		check: func(t *repoTree) []finding {
			var out []finding
			for _, f := range t.src("internal/", "cmd/", "examples/") {
				if _, ok := f.imports["golang.org/x/sys/cpu"]; ok {
					out = append(out, finding{t.at(f.ast.Package), "imports golang.org/x/sys/cpu"})
				}
				if f.build != "" && f.build != "!amd64" {
					out = append(out, finding{t.at(f.ast.Package), "//go:build " + f.build})
				}
			}
			return out
		},
	},
	{
		name: "benchmark-boundary",
		why:  "the benchmark reaches the program only through benchmark/sut.go, so what it measures is named in one file",
		check: func(t *repoTree) []finding {
			var out []finding
			for _, f := range t.files {
				if !under(f.path, "benchmark/") || f.path == "benchmark/sut.go" {
					continue
				}
				for p := range f.imports {
					if strings.HasPrefix(p, "repro/internal/") {
						out = append(out, finding{t.at(f.ast.Package), "imports " + p})
					}
				}
			}
			return out
		},
	},
}

// TestRepoRules parses the tree once and runs every rule as its own
// subtest, so a violation fails exactly its row.
func TestRepoRules(t *testing.T) {
	tree, err := parseRepoTree(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range repoRules {
		t.Run(r.name, func(t *testing.T) {
			for _, f := range r.check(tree) {
				t.Errorf("%s: %s\n\trule: %s", f.at, f.what, r.why)
			}
		})
	}
}

// TestCIRunPatterns holds every -run pattern in ci.yml to the tests it
// names: each top-level alternative must match a Test or Fuzz function of
// the packages on its line. go test answers a pattern that matches
// nothing with "no tests to run" and passes, so a gate whose test was
// renamed or deleted would go on passing while it checks nothing. The
// patterns that select no test on purpose ('^$', NONE) and the fuzz
// loop's shell-built one are not names and are skipped.
func TestCIRunPatterns(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run[= ](?:'([^']*)'|"([^"]*)"|(\S+))`)
	tests := map[string][]string{} // package pattern → its Test/Fuzz names
	checked := 0
	for i, line := range strings.Split(string(ci), "\n") {
		cmd := strings.TrimSpace(line)
		m := runFlag.FindStringSubmatch(cmd)
		if strings.HasPrefix(cmd, "#") || !strings.Contains(cmd, "go test") || m == nil {
			continue
		}
		pattern := m[1] + m[2] + m[3]
		if pattern == "^$" || pattern == "NONE" || strings.Contains(pattern, "${") {
			continue
		}
		var names []string
		for _, f := range strings.Fields(cmd) {
			if f != "." && !strings.HasPrefix(f, "./") {
				continue
			}
			if _, ok := tests[f]; !ok {
				if tests[f], err = testNames(f); err != nil {
					t.Fatalf("ci.yml:%d: %v", i+1, err)
				}
			}
			names = append(names, tests[f]...)
		}
		if len(names) == 0 {
			t.Errorf("ci.yml:%d: -run %q names no package with tests", i+1, pattern)
			continue
		}
		for _, alt := range topLevelAlternatives(pattern) {
			checked++
			re, err := regexp.Compile(strings.SplitN(alt, "/", 2)[0])
			if err != nil {
				t.Errorf("ci.yml:%d: -run alternative %q: %v", i+1, alt, err)
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("ci.yml:%d: -run alternative %q matches no Test or Fuzz function of its packages", i+1, alt)
			}
		}
	}
	if checked == 0 {
		t.Fatal("ci.yml holds no -run pattern; the check read the wrong file")
	}
	t.Logf("checked %d -run alternatives", checked)
}

// topLevelAlternatives splits a regexp at the | that no group encloses.
func topLevelAlternatives(pattern string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(out, pattern[start:])
}

// testNames lists the Test and Fuzz functions of the test files a package
// pattern (".", "./dir/" or "./dir/...") covers.
func testNames(pkg string) ([]string, error) {
	dir, all := strings.CutSuffix(pkg, "...")
	dir = filepath.Clean(dir)
	var names []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != dir && (!all || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		af, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range af.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil &&
				(strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
				names = append(names, fd.Name.Name)
			}
		}
		return nil
	})
	return names, err
}

func parseRepoTree(root string) (*repoTree, error) {
	t := &repoTree{fset: token.NewFileSet()}
	for _, r := range ruleRoots {
		err := filepath.WalkDir(filepath.Join(root, r), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				return nil
			}
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			if !strings.HasSuffix(name, ".go") {
				return nil
			}
			return t.parse(p, rel)
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *repoTree) parse(p, rel string) error {
	af, err := parser.ParseFile(t.fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	f := &goFile{path: rel, dir: path.Dir(rel), test: strings.HasSuffix(rel, "_test.go"), ast: af, imports: map[string]string{}}
	for _, imp := range af.Imports {
		ip, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(ip)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		f.imports[ip] = name
	}
	for _, g := range af.Comments {
		if g.Pos() > af.Package {
			break
		}
		for _, c := range g.List {
			if constraint.IsGoBuild(c.Text) || constraint.IsPlusBuild(c.Text) {
				expr, err := constraint.Parse(c.Text)
				if err != nil {
					return err
				}
				f.build = expr.String()
			}
		}
	}
	t.files = append(t.files, f)
	return nil
}

func (t *repoTree) at(pos token.Pos) string {
	p := t.fset.Position(pos)
	return p.Filename + ":" + strconv.Itoa(p.Line)
}

// src returns the non-test files under any of the given path prefixes.
func (t *repoTree) src(prefixes ...string) []*goFile {
	var out []*goFile
	for _, f := range t.files {
		if !f.test && under(f.path, prefixes...) {
			out = append(out, f)
		}
	}
	return out
}

// each walks every node of files and reports a finding wherever match
// names one.
func (t *repoTree) each(files []*goFile, match func(*goFile, ast.Node) string) []finding {
	var out []finding
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			if what := match(f, n); what != "" {
				out = append(out, finding{t.at(n.Pos()), what})
			}
			return true
		})
	}
	return out
}

// under reports whether p is one of prefixes or lies below one that ends
// in a slash.
func under(p string, prefixes ...string) bool {
	for _, pre := range prefixes {
		if p == pre || strings.HasSuffix(pre, "/") && strings.HasPrefix(p, pre) {
			return true
		}
	}
	return false
}

func idents(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

// identRule builds a check that refuses any identifier in banned and,
// when recv is set, a method recv.method, in the non-test files under
// prefixes.
func identRule(banned map[string]bool, recv, method string, prefixes ...string) func(*repoTree) []finding {
	return func(t *repoTree) []finding {
		return t.each(t.src(prefixes...), func(f *goFile, n ast.Node) string {
			switch n := n.(type) {
			case *ast.Ident:
				if banned[n.Name] {
					return n.Name
				}
			case *ast.FuncDecl:
				if recv != "" && n.Name.Name == method && receiverType(n) == recv {
					return "method (*" + recv + ")." + method
				}
			}
			return ""
		})
	}
}

// pkgSel returns "pkg.Name" when n is a selector naming one of names in the
// package imported from importPath, and "" otherwise.
func (f *goFile) pkgSel(n ast.Node, importPath string, names ...string) string {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok || !slices.Contains(names, sel.Sel.Name) {
		return ""
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok || x.Name != f.imports[importPath] {
		return ""
	}
	return x.Name + "." + sel.Sel.Name
}

func stringLit(n ast.Node) (string, bool) {
	lit, ok := n.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// calleeName is the called function's or method's own name.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// receiverType is a method's receiver type name ("" for a function).
func receiverType(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	return typeName(fd.Recv.List[0].Type)
}

// typeName is the name a type expression ends in: T for T, *T, pkg.T and
// T[P].
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// fieldNames are a struct field's names; an embedded field's is its type's.
func fieldNames(field *ast.Field) []string {
	if len(field.Names) == 0 {
		return []string{typeName(field.Type)}
	}
	var out []string
	for _, n := range field.Names {
		out = append(out, n.Name)
	}
	return out
}

// oneHTTPDo: outside benchmark/, exactly one file calls a .Do whose
// argument is not a func literal, and it is under internal/faultnet/.
func oneHTTPDo(t *repoTree) []finding {
	files := map[string]bool{}
	calls := t.each(t.src("internal/", "cmd/", "examples/"), func(f *goFile, n ast.Node) string {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return ""
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Do" {
			return ""
		}
		if len(call.Args) > 0 {
			if _, lit := call.Args[0].(*ast.FuncLit); lit {
				return ""
			}
		}
		files[f.path] = true
		return ".Do call without a func literal"
	})
	if len(files) == 1 {
		for p := range files {
			if under(p, "internal/faultnet/") {
				return nil
			}
		}
	}
	if len(calls) == 0 {
		return []finding{{"internal/faultnet/", "no file calls (*http.Client).Do"}}
	}
	return calls
}

// requestStubs are the parts of net/http and net/http/httptest that
// noDirectRequests type-checks against: the client, its request helpers,
// the response they return, and a test server's client.
var requestStubs = map[string]string{
	"net/http": `package http

type Response struct{}
type Client struct{}

var DefaultClient = &Client{}

func (*Client) Get(string) (*Response, error)      { return nil, nil }
func (*Client) Post(string) (*Response, error)     { return nil, nil }
func (*Client) Head(string) (*Response, error)     { return nil, nil }
func (*Client) PostForm(string) (*Response, error) { return nil, nil }
func Get(string) (*Response, error)                { return nil, nil }
func Post(string) (*Response, error)               { return nil, nil }
func Head(string) (*Response, error)               { return nil, nil }
func PostForm(string) (*Response, error)           { return nil, nil }
`,
	"net/http/httptest": `package httptest

import "net/http"

type Server struct{ URL string }

func NewServer(any) *Server          { return nil }
func NewUnstartedServer(any) *Server { return nil }
func (*Server) Client() *http.Client { return nil }
`,
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// noDirectRequests refuses, outside benchmark/, http.DefaultClient and
// any use of a function or method named Get, Post, Head or PostForm whose
// first result is an *http.Response: net/http's helpers, an http.Client's
// own methods, a struct's that embeds one, an interface's that holds one.
// It type-checks each package against requestStubs, importing the tree's own
// packages as it checks them, so a client is known by its type however it
// is reached: a parameter, a field declared in another package, a variable
// assigned from one, a call's result, a range variable. Every other import
// fails to resolve; go/types marks what depends on it invalid and goes on,
// and the errors it reports are not this rule's business.
func noDirectRequests(t *repoTree) []finding {
	verbs := []string{"Get", "Post", "Head", "PostForm"}
	var out []finding
	files := map[string][]*ast.File{} // by import path
	for path, src := range requestStubs {
		af, err := parser.ParseFile(t.fset, path+" (stub)", src, 0)
		if err != nil {
			return []finding{{"requestStubs", err.Error()}}
		}
		files[path] = []*ast.File{af}
	}
	for _, f := range t.src("internal/", "cmd/", "examples/") {
		files["repro/"+f.dir] = append(files["repro/"+f.dir], f.ast)
	}
	pkgs := map[string]*types.Package{}
	var response types.Type // *http.Response, once the stub is checked
	var check func(path string) (*types.Package, error)
	check = func(path string) (*types.Package, error) {
		if pkg, ok := pkgs[path]; ok {
			return pkg, nil
		}
		if files[path] == nil {
			return nil, errors.New("not type-checked by this rule")
		}
		_, stub := requestStubs[path]
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: importerFunc(check), Error: func(err error) {
			if stub {
				out = append(out, finding{path + " (stub)", err.Error()})
			}
		}}
		pkgs[path], _ = conf.Check(path, t.fset, files[path], info)
		for id, obj := range info.Uses {
			if obj.Pkg() == pkgs["net/http"] && obj.Name() == "DefaultClient" {
				out = append(out, finding{t.at(id.Pos()), "http.DefaultClient"})
			}
			if fn, ok := obj.(*types.Func); ok && slices.Contains(verbs, fn.Name()) {
				if r := fn.Signature().Results(); r.Len() > 0 && types.Identical(r.At(0).Type(), response) {
					out = append(out, finding{t.at(id.Pos()), fn.FullName()})
				}
			}
		}
		return pkgs[path], nil
	}
	http, _ := check("net/http")
	response = types.NewPointer(http.Scope().Lookup("Response").Type())
	for _, path := range slices.Sorted(maps.Keys(files)) {
		check(path)
	}
	slices.SortFunc(out, func(a, b finding) int { return strings.Compare(a.at, b.at) })
	return out
}

// kernelTwinsTested: a _test.go of the package references every function
// with a body in an _amd64.go file that an unconstrained non-test file of
// the package refers to, so the same test exercises the amd64 kernel's
// wrapper there and its !amd64 twin on every other target. That each TEXT
// symbol has its Go declaration is go vet's asmdecl pass, and that each
// twin exists is the arm64 cross-compile; CI runs both.
func kernelTwinsTested(t *repoTree) []finding {
	var out []finding
	for _, f := range t.files {
		if f.test || !strings.HasSuffix(f.path, "_amd64.go") {
			continue
		}
		plain, sel, tested := map[string]bool{}, map[string]bool{}, map[string]bool{}
		for _, g := range t.files {
			switch {
			case g.dir != f.dir:
			case g.test:
				p, s := references(g.ast)
				maps.Copy(tested, p)
				maps.Copy(tested, s)
			case g.build == "" && !strings.HasSuffix(g.path, "_amd64.go"):
				p, s := references(g.ast)
				maps.Copy(plain, p)
				maps.Copy(sel, s)
			}
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			called := fd.Recv == nil && plain[name] || fd.Recv != nil && sel[name]
			if called && !tested[name] {
				out = append(out, finding{t.at(fd.Pos()), "no _test.go file references " + name + ", which portable code calls and a !amd64 file twins"})
			}
		}
	}
	return out
}

// references returns the names a file refers to: plain identifiers, and
// the selected names of selector expressions. Declared function names are
// not references.
func references(f *ast.File) (plain, sel map[string]bool) {
	plain, sel = map[string]bool{}, map[string]bool{}
	skip := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel[n.Sel.Name] = true
			skip[n.Sel] = true
		case *ast.FuncDecl:
			skip[n.Name] = true
		case *ast.Ident:
			if !skip[n] {
				plain[n.Name] = true
			}
		}
		return true
	})
	return plain, sel
}
