package memfss

// The reachability census: a tier-1 check that the tree holds no code only
// tests reach and no Config knob that nothing sets. DESIGN.md §3 describes
// it and the allowlist format; scripts/census_allow.txt holds the
// deliberate exceptions.

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

// TestReachabilityCensus type-checks the non-test files of both modules
// and fails on (a) any identifier declared in the root module that no
// non-test file of either module references, unless it is a method
// satisfying an interface, and (b) any exported field under core.Config
// that no non-test code outside its declaring package sets. benchmark/ is
// read, not checked: what only it calls counts as used.
func TestReachabilityCensus(t *testing.T) {
	res, err := runCensus(censusSpec{
		dirs:   []string{".", "benchmark"},
		module: "memfss",
		config: "memfss/internal/core.Config",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.checked != res.listed || res.checked < 30 {
		t.Fatalf("census type-checked %d packages, go list reported %d", res.checked, res.listed)
	}
	allow, err := readCensusAllow("scripts/census_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	flagged, stale := applyCensusAllow(res.findings, allow)
	for _, f := range flagged {
		t.Errorf("%s: %s (delete it, or add it to scripts/census_allow.txt with a reason)", f.name, f.what)
	}
	for _, a := range stale {
		t.Errorf("scripts/census_allow.txt:%d: %s matches no finding; delete the entry", a.line, a.name)
	}
	t.Logf("%d packages type-checked, %d findings, %d allowlist entries, %d settable values under core.Config",
		res.checked, len(res.findings), len(allow), res.knobs)
}

// TestReachabilityCensusFixture runs the census over testdata/census, which
// holds one of each case: it must flag exactly the test-only exported
// function, the test-only unexported method and the knob only a test
// sets, and neither the fmt.Stringer method nor the allowlisted name.
func TestReachabilityCensusFixture(t *testing.T) {
	spec := censusSpec{
		dirs:   []string{"testdata/census"},
		module: "censusfixture",
		config: "censusfixture/a.Config",
	}
	res, err := runCensus(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.listed != 2 || res.checked != 2 || res.knobs != 2 {
		t.Fatalf("listed %d, checked %d packages, %d knobs; want 2, 2, 2", res.listed, res.checked, res.knobs)
	}
	allow, err := readCensusAllow("testdata/census/census_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	flagged, stale := applyCensusAllow(res.findings, allow)
	var got []string
	for _, f := range flagged {
		got = append(got, f.name)
	}
	want := []string{"a.Config.Debug", "a.T.helper", "a.TestOnly"}
	if strings.Join(got, " ") != strings.Join(want, " ") || len(stale) != 0 {
		t.Fatalf("flagged %v (stale allowlist %v), want %v", got, stale, want)
	}

	// An allowlist entry without a finding is itself a failure.
	_, stale = applyCensusAllow(res.findings, append(allow, censusAllow{name: "a.Gone", reason: "r", line: 9}))
	if len(stale) != 1 || stale[0].name != "a.Gone" {
		t.Fatalf("stale entries %v, want a.Gone", stale)
	}
}

// TestReachabilityCensusFailsClosed: a census that cannot see every
// package must fail, never report fewer findings.
func TestReachabilityCensusFailsClosed(t *testing.T) {
	t.Run("go list error", func(t *testing.T) {
		_, err := runCensus(censusSpec{dirs: []string{"testdata/censusbroken"}, module: "censusbroken"})
		if err == nil || !strings.Contains(err.Error(), "go list") {
			t.Fatalf("census over an unresolvable import: err = %v, want a go list failure", err)
		}
	})
	t.Run("unresolved import", func(t *testing.T) {
		pkgs, err := listCensusPackages([]string{"testdata/census"}, "censusfixture")
		if err != nil {
			t.Fatal(err)
		}
		var main []*censusPackage
		for _, p := range pkgs {
			if p.ImportPath != "censusfixture/a" {
				main = append(main, p)
			}
		}
		_, err = checkCensusPackages(main, "censusfixture")
		if err == nil || !strings.Contains(err.Error(), "censusfixture/a") {
			t.Fatalf("type-checking without a dependency: err = %v, want it to name censusfixture/a", err)
		}
	})
	t.Run("allowlist entry without a reason", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "allow.txt")
		if err := os.WriteFile(path, []byte("# comment\ncore.X\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readCensusAllow(path); err == nil {
			t.Fatal("an entry without a reason was accepted")
		}
	})
}

// censusSpec names what one census run reads and checks.
type censusSpec struct {
	// dirs are module roots. Findings are reported for the first module's
	// packages; the others are only readers, so what they reference counts
	// as used.
	dirs []string
	// module is the import path prefix of the packages to type-check.
	module string
	// config is the "<import path>.<Type>" whose exported fields, and those
	// of the structs reachable from it, are knobs.
	config string
}

type censusFinding struct {
	name string // "<pkg>.<Name>", the allowlist key
	what string
}

type censusResult struct {
	findings []censusFinding // sorted by name
	listed   int             // module packages go list reported
	checked  int             // of those, packages type-checked complete
	knobs    int             // settable leaf values under the config type
}

// censusPackage is the part of a `go list -json` record the census reads.
type censusPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Error      *struct{ Err string }
	reported   bool // from the first module: findings count
}

// censusUnit is one type-checked package.
type censusUnit struct {
	*censusPackage
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func runCensus(spec censusSpec) (*censusResult, error) {
	pkgs, err := listCensusPackages(spec.dirs, spec.module)
	if err != nil {
		return nil, err
	}
	units, err := checkCensusPackages(pkgs, spec.module)
	if err != nil {
		return nil, err
	}
	res := &censusResult{listed: len(pkgs)}
	for _, u := range units {
		if u.pkg.Complete() {
			res.checked++
		}
	}
	knobs, leaves, err := unsetKnobs(units, spec.module, spec.config)
	if err != nil {
		return nil, err
	}
	res.findings = append(unreferencedIdentifiers(units, spec.module), knobs...)
	res.knobs = leaves
	sort.Slice(res.findings, func(i, j int) bool { return res.findings[i].name < res.findings[j].name })
	return res, nil
}

// listCensusPackages runs `go list -deps -json ./...` in each module root
// and keeps the packages under module, in dependency order. Any go list
// failure fails the census.
func listCensusPackages(dirs []string, module string) ([]*censusPackage, error) {
	var pkgs []*censusPackage
	seen := map[string]bool{}
	for i, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-json", "./...")
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=readonly", "GOPROXY=off")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("census: go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			p := new(censusPackage)
			if err := dec.Decode(p); err == io.EOF {
				break
			} else if err != nil {
				return nil, fmt.Errorf("census: go list in %s: %v", dir, err)
			}
			if p.Error != nil {
				return nil, fmt.Errorf("census: go list in %s: %s: %s", dir, p.ImportPath, p.Error.Err)
			}
			if !inModule(p.ImportPath, module) || seen[p.ImportPath] {
				continue
			}
			seen[p.ImportPath] = true
			p.reported = i == 0
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

func inModule(path, module string) bool {
	return path == module || strings.HasPrefix(path, module+"/")
}

// checkCensusPackages type-checks the non-test files of pkgs, which must be
// in dependency order. Module imports resolve only to packages checked
// here; the standard library loads through importer.Default(). Any type
// error, an unresolved import included, fails the census: a package whose
// uses do not resolve would hide every reference it makes.
func checkCensusPackages(pkgs []*censusPackage, module string) ([]*censusUnit, error) {
	fset := token.NewFileSet()
	std := importer.Default()
	checked := map[string]*types.Package{}
	var typeErrs []error
	conf := types.Config{
		Importer: censusImporter(func(path string) (*types.Package, error) {
			if p := checked[path]; p != nil {
				return p, nil
			}
			if inModule(path, module) {
				return nil, fmt.Errorf("%s is not among the packages checked before its importer", path)
			}
			return std.Import(path)
		}),
		Error: func(err error) { typeErrs = append(typeErrs, err) },
	}
	var units []*censusUnit
	for _, p := range pkgs {
		u := &censusUnit{censusPackage: p, info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("census: %v", err)
			}
			u.files = append(u.files, f)
		}
		u.pkg, _ = conf.Check(p.ImportPath, fset, u.files, u.info)
		if len(typeErrs) > 0 {
			return nil, fmt.Errorf("census: type-checking %s: %w", p.ImportPath, errors.Join(typeErrs...))
		}
		checked[p.ImportPath] = u.pkg
		units = append(units, u)
	}
	return units, nil
}

type censusImporter func(path string) (*types.Package, error)

func (f censusImporter) Import(path string) (*types.Package, error) { return f(path) }

// censusName is the allowlist spelling of a package: its path inside the
// module, without the internal/ prefix.
func censusName(pkg *types.Package, module string) string {
	p := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), module), "/")
	if p == "" {
		return module
	}
	return strings.TrimPrefix(p, "internal/")
}

func censusOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// unreferencedIdentifiers reports every package-level identifier and
// method of the reported packages that no checked file references from
// outside its own declaration. A method's receiver does not reference its
// type, and a method that satisfies an interface declared in a checked
// package or the standard library is exempt: it is called through it.
func unreferencedIdentifiers(units []*censusUnit, module string) []censusFinding {
	used := map[types.Object]bool{}
	mark := func(info *types.Info, n ast.Node, self types.Object, recv *ast.FieldList) {
		ast.Inspect(n, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FieldList); ok && recv != nil && fl == recv {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj := censusOrigin(info.Uses[id]); obj != nil && obj != self {
					used[obj] = true
				}
			}
			return true
		})
	}
	for _, u := range units {
		for _, f := range u.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					mark(u.info, d, u.info.Defs[d.Name], d.Recv)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var self types.Object
						if ts, ok := s.(*ast.TypeSpec); ok {
							self = u.info.Defs[ts.Name]
						}
						mark(u.info, s, self, nil)
					}
				}
			}
		}
	}

	ifaces := censusInterfaces(units, module)
	satisfies := func(named *types.Named, m *types.Func) bool {
		for _, it := range ifaces[m.Name()] {
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	var out []censusFinding
	for _, u := range units {
		if !u.reported {
			continue
		}
		pkgName := censusName(u.pkg, module)
		scope := u.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name == "_" || (name == "main" && u.pkg.Name() == "main") {
				continue
			}
			if !used[obj] {
				out = append(out, censusFinding{pkgName + "." + name, "referenced only by tests, or not at all"})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !used[m] && !satisfies(named, m) {
					out = append(out, censusFinding{pkgName + "." + name + "." + m.Name(), "method referenced only by tests, or not at all, and satisfying no interface"})
				}
			}
		}
	}
	return out
}

// censusInterfaces indexes by method name every method-set interface the
// checked packages declare or use, every exported one of the standard
// library packages they load, and error.
func censusInterfaces(units []*censusUnit, module string) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if t == nil {
			return
		}
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	stdSeen := map[*types.Package]bool{}
	var addStd func(p *types.Package)
	addStd = func(p *types.Package) {
		if stdSeen[p] {
			return
		}
		stdSeen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			addStd(imp)
		}
	}
	for _, u := range units {
		for _, tv := range u.info.Types {
			add(tv.Type)
		}
		for _, obj := range u.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range u.pkg.Imports() {
			if !inModule(imp.Path(), module) {
				addStd(imp)
			}
		}
	}
	return byName
}

// unsetKnobs reports every exported field of the config type, and of the
// module structs reachable from it by value or slice, that no composite
// literal, assignment or address-of outside the field's declaring package
// sets. It also counts the settable leaf values: fields that are not
// themselves such structs.
func unsetKnobs(units []*censusUnit, module, config string) ([]censusFinding, int, error) {
	dot := strings.LastIndex(config, ".")
	if dot < 0 {
		return nil, 0, fmt.Errorf("census: config %q is not <import path>.<Type>", config)
	}
	var root *types.Named
	for _, u := range units {
		if u.ImportPath == config[:dot] {
			if tn, ok := u.pkg.Scope().Lookup(config[dot+1:]).(*types.TypeName); ok {
				root, _ = tn.Type().(*types.Named)
			}
		}
	}
	if root == nil {
		return nil, 0, fmt.Errorf("census: config type %s not found", config)
	}

	type knob struct {
		name string
		v    *types.Var
	}
	var knobs []knob
	leaves := 0
	walked := map[*types.Named]bool{}
	var walk func(n *types.Named)
	walk = func(n *types.Named) {
		if walked[n] {
			return
		}
		walked[n] = true
		st := n.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			knobs = append(knobs, knob{censusName(n.Obj().Pkg(), module) + "." + n.Obj().Name() + "." + f.Name(), f})
			if inner := moduleStruct(f.Type(), module); inner != nil {
				walk(inner)
			} else {
				leaves++
			}
		}
	}
	if moduleStruct(root, module) == nil {
		return nil, 0, fmt.Errorf("census: config type %s is not a struct", config)
	}
	walk(root)

	set := map[types.Object]bool{}
	for _, u := range units {
		mark := func(f types.Object) {
			if f != nil && f.Pkg() != u.pkg {
				set[censusOrigin(f)] = true
			}
		}
		markTarget := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					if s := u.info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
						mark(s.Obj())
					}
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				default:
					return
				}
			}
		}
		for _, f := range u.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					t := u.info.TypeOf(n)
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								mark(u.info.Uses[id])
							}
						} else {
							mark(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						markTarget(l)
					}
				case *ast.IncDecStmt:
					markTarget(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markTarget(n.X)
					}
				}
				return true
			})
		}
	}

	var out []censusFinding
	for _, k := range knobs {
		if !set[k.v] {
			out = append(out, censusFinding{k.name, "knob no non-test code outside package " + k.v.Pkg().Name() + " sets"})
		}
	}
	return out, leaves, nil
}

// moduleStruct returns the named struct type of the module that t holds by
// value, directly or as a slice or array element. A pointer is a handle,
// not a group of knobs.
func moduleStruct(t types.Type, module string) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Slice:
			t = x.Elem()
			continue
		case *types.Array:
			t = x.Elem()
			continue
		}
		break
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || !inModule(n.Obj().Pkg().Path(), module) {
		return nil
	}
	if _, ok := n.Underlying().(*types.Struct); !ok {
		return nil
	}
	return n
}

// censusAllow is one allowlist line: "<pkg>.<Name>  <reason>". A name
// ending in ".*" covers every finding under that prefix, such as a whole
// package.
type censusAllow struct {
	name, reason string
	line         int
}

func (a censusAllow) covers(name string) bool {
	if prefix, ok := strings.CutSuffix(a.name, "*"); ok {
		return strings.HasPrefix(name, prefix)
	}
	return name == a.name
}

func readCensusAllow(path string) ([]censusAllow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []censusAllow
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason := text, ""
		if i := strings.IndexAny(text, " \t"); i >= 0 {
			name, reason = text[:i], strings.TrimSpace(text[i:])
		}
		if reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, line, name)
		}
		out = append(out, censusAllow{name: name, reason: reason, line: line})
	}
	return out, sc.Err()
}

// applyCensusAllow splits the findings no entry covers from the entries
// that cover no finding.
func applyCensusAllow(findings []censusFinding, allow []censusAllow) (flagged []censusFinding, stale []censusAllow) {
	hit := make([]bool, len(allow))
	for _, f := range findings {
		covered := false
		for i, a := range allow {
			if a.covers(f.name) {
				hit[i], covered = true, true
			}
		}
		if !covered {
			flagged = append(flagged, f)
		}
	}
	for i, a := range allow {
		if !hit[i] {
			stale = append(stale, a)
		}
	}
	return flagged, stale
}
