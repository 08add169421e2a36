package spi_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDeadSurfaceCensus holds every exported identifier under internal/ to a
// non-test use. A function, method, type, constant or variable that no
// non-test file references, or an exported struct field that no non-test
// code sets, fails the test unless testdata/census_allowlist.txt names it
// with one of four reasons (allowKinds). An allowlist line that names no
// finding fails it too, so the list can only shrink. `make census` prints
// every finding.
func TestDeadSurfaceCensus(t *testing.T) {
	findings, err := deadSurfaceCensus(".")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readCensusAllowlist("testdata/census_allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	api, err := os.ReadFile("docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range allow {
		if line.kind != "embedder API" {
			continue
		}
		m := apiSection.FindStringSubmatch(line.reason)
		if m == nil || !bytes.Contains(api, []byte("# "+m[1]+"\n")) {
			t.Errorf("census_allowlist.txt:%d: an embedder API line names a docs/API.md section that exists: %s", line.line, line.key)
		}
	}
	for _, f := range findings {
		status := "NOT ALLOWLISTED"
		if l, ok := allow[f.key]; ok {
			status = l.kind
		}
		t.Logf("%-45s %-9s %-26s %s", f.key, f.what, status, f.pos)
	}
	for _, msg := range censusVerdict(findings, allow) {
		t.Error(msg)
	}
}

// TestDeadSurfaceCensusFixture runs the census over the module under
// testdata/census, which holds one case of each finding and two exports the
// census must not flag: a method that implements an interface and a counter
// field set only by calling a method on it. The census leaves build.Default
// as it found it.
func TestDeadSurfaceCensusFixture(t *testing.T) {
	cgo := build.Default.CgoEnabled
	findings, err := deadSurfaceCensus("testdata/census")
	if err != nil {
		t.Fatal(err)
	}
	if build.Default.CgoEnabled != cgo {
		t.Errorf("build.Default.CgoEnabled is %v after the census, was %v", build.Default.CgoEnabled, cgo)
	}
	allow, err := readCensusAllowlist("testdata/census/allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.key+" "+f.what)
	}
	want := []string{
		"lib.Config.Limit never set", // a config field only a test sets
		"lib.Thing.Helper unused",    // a method only its own package's tests call
		"lib.Unused unused",          // an unused exported function
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	verdict := censusVerdict(findings, allow)
	wantVerdict := []string{
		"lib.Config.Limit: exported field never set by non-test code",
		"lib.Thing.Helper: exported identifier unused by non-test code",
		"lib.Stale: allowlist line 3 names no finding",
	}
	if strings.Join(verdict, "\n") != strings.Join(wantVerdict, "\n") {
		t.Errorf("verdict:\n%s\nwant:\n%s", strings.Join(verdict, "\n"), strings.Join(wantVerdict, "\n"))
	}
}

var apiSection = regexp.MustCompile(`docs/API\.md "([^"]+)"`)

// allowKinds are the only reasons an export may live without a non-test use.
var allowKinds = map[string]bool{
	"embedder API":               true, // promised by a docs/API.md section
	"test seam":                  true, // a fake clock, RNG, injected fault or latency
	"resource limit":             true, // a bound an operator sets
	"cross-package test support": true, // used by the tests of two packages or more
}

type censusFinding struct {
	key  string // pkg.Name, pkg.Type.Method or pkg.Type.Field
	what string // "unused" or "never set"
	pos  string
}

type censusAllowLine struct {
	key, kind, reason string
	line              int
}

// censusVerdict lists what fails the census: a finding the allowlist does not
// name, and an allowlist line that names no finding.
func censusVerdict(findings []censusFinding, allow map[string]censusAllowLine) []string {
	var out []string
	found := map[string]bool{}
	for _, f := range findings {
		found[f.key] = true
		if _, ok := allow[f.key]; ok {
			continue
		}
		if f.what == "unused" {
			out = append(out, f.key+": exported identifier unused by non-test code")
		} else {
			out = append(out, f.key+": exported field never set by non-test code")
		}
	}
	var stale []censusAllowLine
	for _, l := range allow {
		if !found[l.key] {
			stale = append(stale, l)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].line < stale[j].line })
	for _, l := range stale {
		out = append(out, fmt.Sprintf("%s: allowlist line %d names no finding", l.key, l.line))
	}
	return out
}

// readCensusAllowlist reads lines of the form `pkg.Name  kind: reason`;
// blank lines and lines starting with # are skipped.
func readCensusAllowlist(path string) (map[string]censusAllowLine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]censusAllowLine{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, rest, _ := strings.Cut(text, " ")
		kind, reason, ok := strings.Cut(strings.TrimSpace(rest), ":")
		reason = strings.TrimSpace(reason)
		if !ok || !allowKinds[kind] || reason == "" {
			return nil, fmt.Errorf("%s:%d: want `pkg.Name  kind: reason` with kind one of embedder API, test seam, resource limit, cross-package test support", path, n)
		}
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, key)
		}
		allow[key] = censusAllowLine{key: key, kind: kind, reason: reason, line: n}
	}
	return allow, sc.Err()
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	ImportMap  map[string]string
	Module     *struct{ Path string }
}

// deadSurfaceCensus type-checks every package of the module rooted at dir
// from its non-test files and reports each exported identifier declared under
// the module's internal/ directory that none of those files uses, and each
// exported struct field there that none of them sets. A method counts as used
// when it implements an interface the module declares or imports (error
// included), and Unwrap, Is and As always do.
func deadSurfaceCensus(dir string) ([]censusFinding, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "CGO_ENABLED=0")
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		if !p.Standard {
			pkgs = append(pkgs, p)
		}
	}
	if len(pkgs) == 0 || pkgs[0].Module == nil {
		return nil, fmt.Errorf("go list found no module packages in %s", dir)
	}
	internal := pkgs[0].Module.Path + "/internal/"

	fset := token.NewFileSet()
	// The source importer reads build.Default; without cgo it type-checks
	// the pure-Go files of net and os/user, as go list above listed them,
	// instead of running the cgo tool. Every import happens before this
	// function returns, so the setting is put back then.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.ImportFrom(path, dir, 0)
	})

	c := &census{used: map[types.Object]bool{}, set: map[types.Object]bool{}, seen: map[*types.Interface]bool{}}
	for _, lp := range pkgs { // dependencies come before their importers
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: mappedImporter{imp, lp.ImportMap}}
		pkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		c.record(info, files)
		if strings.HasPrefix(lp.ImportPath, internal) {
			c.declared = append(c.declared, pkg)
		}
	}
	visited := map[*types.Package]bool{}
	for _, p := range checked {
		c.addInterfaces(p, visited)
	}
	c.addInterface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	var findings []censusFinding
	report := func(key, what string, obj types.Object) {
		findings = append(findings, censusFinding{key, what, fset.Position(obj.Pos()).String()})
	}
	for _, pkg := range c.declared {
		prefix := strings.TrimPrefix(pkg.Path(), internal) + "."
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !c.used[obj] {
				report(prefix+name, "unused", obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !c.used[m] && !c.implements(named, m) {
					report(prefix+name+"."+m.Name(), "unused", m)
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok || !obj.Exported() {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				switch {
				case !f.Exported() || f.Embedded():
				case !c.used[f]:
					report(prefix+name+"."+f.Name(), "unused", f)
				case !c.set[f]:
					report(prefix+name+"."+f.Name(), "never set", f)
				}
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].key < findings[j].key })
	return findings, nil
}

type census struct {
	declared   []*types.Package
	used, set  map[types.Object]bool
	interfaces []*types.Interface
	seen       map[*types.Interface]bool
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// record notes every object the files use and every field they set: by a
// composite-literal element, an assignment, ++ or --, taking its address, or
// calling a method on it.
func (c *census) record(info *types.Info, files []*ast.File) {
	for _, obj := range info.Uses {
		c.used[origin(obj)] = true
	}
	for _, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok {
			c.addInterface(it)
		}
	}
	var setExpr func(e ast.Expr)
	setExpr = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			setExpr(e.X)
		case *ast.StarExpr:
			setExpr(e.X)
		case *ast.IndexExpr:
			setExpr(e.X)
		case *ast.SliceExpr:
			setExpr(e.X)
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				c.set[origin(sel.Obj())] = true
				setExpr(e.X)
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				t := info.Types[n].Type // *T for an element of []*T{{...}}
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && info.Uses[id] != nil {
							c.set[origin(info.Uses[id])] = true
						}
					} else {
						c.set[origin(st.Field(i))] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					setExpr(lhs)
				}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					setExpr(n.Key)
					setExpr(n.Value)
				}
			case *ast.IncDecStmt:
				setExpr(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					setExpr(n.X)
				}
			case *ast.CallExpr:
				if fun, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if sel := info.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal {
						setExpr(fun.X)
					}
				}
			}
			return true
		})
	}
}

// addInterfaces collects the package-level interfaces of p and of every
// package it imports that is not yet visited.
func (c *census) addInterfaces(p *types.Package, visited map[*types.Package]bool) {
	if visited[p] {
		return
	}
	visited[p] = true
	for _, name := range p.Scope().Names() {
		if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				c.addInterface(it)
			}
		}
	}
	for _, q := range p.Imports() {
		c.addInterfaces(q, visited)
	}
}

func (c *census) addInterface(it *types.Interface) {
	if !c.seen[it] && it.NumMethods() > 0 {
		c.seen[it] = true
		c.interfaces = append(c.interfaces, it)
	}
}

// implements reports whether m is Unwrap, Is or As, or T or *T implements an
// interface that has a method named m.
func (c *census) implements(named *types.Named, m *types.Func) bool {
	switch m.Name() {
	case "Unwrap", "Is", "As":
		return true
	}
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range c.interfaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			has = has || it.Method(i).Name() == m.Name()
		}
		if has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// mappedImporter resolves an import path through a package's ImportMap
// (vendored standard-library paths such as golang.org/x/net/...).
type mappedImporter struct {
	imp importerFunc
	m   map[string]string
}

func (m mappedImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.m[path]; ok {
		path = p
	}
	return m.imp(path)
}
