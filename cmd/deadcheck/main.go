// deadcheck reports production code that only tests use, the dead-path
// gate behind `make vet`. It type-checks the module rooted at the given
// directory (stdlib from source, offline) and reports every
// package-level func, method, struct field, const, var and type of a
// non-test file that no non-test file uses. Not uses: those inside the
// name's own declaration (recursion, a type's own methods),
// compile-time assertions (var _ I = (*T)(nil)), and writes to a field.
// A nested module (bench/) is a caller: its uses count, its names are
// not reported. Never reported: methods that implement an interface
// method production code calls; String, Error and sort/heap methods,
// which the standard library calls; json-tagged fields and fields of
// structs used as map keys or built by unkeyed literals; root-package
// names that README.md mentions.
//
// The allowlist holds one name per line, as deadcheck prints it, then
// the reason; # starts a comment line. An entry that names no hit is
// reported too, so the list cannot go stale.
//
// Usage: deadcheck [-allow file] [module-dir]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
)

func main() {
	allowFile := flag.String("allow", "", "allowlist: one name and its reason per line")
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	hits, err := check(root)
	var allow map[string]bool
	if err == nil && *allowFile != "" {
		allow, err = readAllow(*allowFile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcheck:", err)
		os.Exit(2)
	}
	if lines := report(hits, allow); len(lines) > 0 {
		fmt.Println(strings.Join(lines, "\n"))
		os.Exit(1)
	}
}

// report returns one line per hit the allowlist does not name and one
// per allowlist entry that names no hit.
func report(hits []hit, allow map[string]bool) []string {
	var lines, stale []string
	for _, h := range hits {
		if !allow[h.name] {
			lines = append(lines, h.pos+": "+h.name+": "+h.what)
		}
	}
	for name := range allow {
		if !slices.ContainsFunc(hits, func(h hit) bool { return h.name == name }) {
			stale = append(stale, name+": allowlisted, but not a hit")
		}
	}
	sort.Strings(stale)
	return append(lines, stale...)
}

// readAllow returns the set of names the allowlist holds.
func readAllow(path string) (map[string]bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]bool{}
	for n, line := range strings.Split(string(b), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n+1, name)
		}
		allow[name] = true
	}
	return allow, nil
}

// A hit is a definition no production code uses.
type hit struct {
	pos  string // file:line:col, relative to the module directory
	name string // import path, then the dotted name
	what string // "only tests use it" or "nothing uses it"
}

// sortMethods are called by sort and container/heap on a type with
// Less and Swap, as String and Error are by fmt on any type.
var sortMethods = map[string]bool{"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true}

type pkg struct {
	path          string
	caller        bool        // in a nested module
	files         []*ast.File // non-test files
	tests, xtests []*ast.File // in-package and external _test.go files
	types         *types.Package
	info          *types.Info
	loading       bool
}

// A cand is a definition that may be dead.
type cand struct {
	name       string
	obj        types.Object
	self       []span // its own declaration: uses in here do not count
	used, test bool
}

type span struct{ from, to token.Pos }

func inside(pos token.Pos, spans []span) bool {
	return slices.ContainsFunc(spans, func(s span) bool { return s.from <= pos && pos < s.to })
}

// A checker is the importer of the module's packages, so every package
// sees the same objects.
type checker struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	root  string // the root package's import path
	pkgs  map[string]*pkg
	cands map[token.Pos]*cand
}

func (c *checker) Import(path string) (*types.Package, error) { return c.ImportFrom(path, "", 0) }

func (c *checker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	p, ok := c.pkgs[path]
	switch {
	case !ok:
		return c.std.ImportFrom(path, dir, mode)
	case p.loading:
		return nil, fmt.Errorf("import cycle through %s", path)
	case p.types == nil:
		p.loading = true
		var err error
		// With its in-package tests, which Go forbids to import
		// anything that imports the package: no cycle can arise.
		p.types, p.info, err = c.typeCheck(path, append(slices.Clip(p.files), p.tests...))
		p.loading = false
		if err != nil {
			return nil, err
		}
	}
	return p.types, nil
}

func (c *checker) typeCheck(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	tp, err := (&types.Config{Importer: c}).Check(path, c.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return tp, info, nil
}

// check returns the hits of the module rooted at dir, in file order.
func check(dir string) ([]hit, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	c := &checker{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:  map[string]*pkg{},
		cands: map[token.Pos]*cand{},
	}
	if err := c.scan(root, false); err != nil {
		return nil, err
	}
	var paths []string
	for path := range c.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := c.Import(path); err != nil {
			return nil, err
		}
	}
	for _, path := range paths {
		if p := c.pkgs[path]; !p.caller {
			var readme []byte
			if path == c.root {
				readme, _ = os.ReadFile(filepath.Join(root, "README.md"))
			}
			c.collect(p, string(readme))
		}
	}

	ifaceCalls := map[string][]*types.Interface{}
	for _, path := range paths {
		p := c.pkgs[path]
		c.markUses(p.info, notUses(p.info, p.files), ifaceCalls)
		c.markStructural(p.info, p.files)
		if len(p.xtests) > 0 {
			_, info, err := c.typeCheck(path+"_test", p.xtests)
			if err != nil {
				return nil, err
			}
			c.markUses(info, nil, ifaceCalls)
		}
	}
	for _, cd := range c.cands {
		cd.used = cd.used || implementsCalled(cd.obj, ifaceCalls)
	}

	var dead []token.Pos
	for pos, cd := range c.cands {
		if !cd.used {
			dead = append(dead, pos)
		}
	}
	slices.Sort(dead)
	var hits []hit
	for _, pos := range dead {
		at := fset.Position(pos)
		rel, _ := filepath.Rel(root, at.Filename)
		h := hit{pos: fmt.Sprintf("%s:%d:%d", filepath.ToSlash(rel), at.Line, at.Column), name: c.cands[pos].name, what: "nothing uses it"}
		if c.cands[pos].test {
			h.what = "only tests use it"
		}
		hits = append(hits, h)
	}
	return hits, nil
}

// scan parses the packages of the module in dir, and those of nested
// modules as callers.
func (c *checker) scan(dir string, caller bool) error {
	gomod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return err
	}
	modPath := ""
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = strings.Trim(f[1], `"`)
		}
	}
	if !caller {
		c.root = modPath
	}
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != dir && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != dir {
			if err := c.scan(path, true); err != nil {
				return err
			}
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		p := &pkg{path: strings.TrimSuffix(modPath+"/"+filepath.ToSlash(rel), "/."), caller: caller}
		for _, list := range []struct {
			names []string
			dst   *[]*ast.File
		}{{bp.GoFiles, &p.files}, {bp.TestGoFiles, &p.tests}, {bp.XTestGoFiles, &p.xtests}} {
			for _, name := range list.names {
				f, err := parser.ParseFile(c.fset, filepath.Join(path, name), nil, 0)
				if err != nil {
					return err
				}
				*list.dst = append(*list.dst, f)
			}
		}
		if len(p.files) > 0 {
			c.pkgs[p.path] = p
		}
		return nil
	})
}

// collect adds p's package-level definitions to the candidates. readme
// is the root package's README.md, or empty for any other package.
func (c *checker) collect(p *pkg, readme string) {
	add := func(id *ast.Ident, name string, self ...span) {
		obj := p.info.Defs[id]
		if id.Name == "_" || obj == nil {
			return
		}
		cd := &cand{name: p.path + "." + name, obj: obj, self: self}
		cd.used = readme != "" && obj.Exported() && regexp.MustCompile(`\b`+id.Name+`\b`).MatchString(readme)
		c.cands[id.Pos()] = cd
	}
	// A type's own methods are part of its declaration.
	methods, has := map[string][]span{}, map[string]bool{}
	recv := func(fd *ast.FuncDecl) string {
		if n := recvNamed(p.info.Defs[fd.Name]); n != nil {
			return n.Obj().Name()
		}
		return ""
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				methods[recv(fd)] = append(methods[recv(fd)], span{fd.Pos(), fd.End()})
				has[recv(fd)+"."+fd.Name.Name] = true
			}
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				t, name := recv(d), d.Name.Name
				switch {
				case t != "" && (name == "String" || name == "Error"):
				case sortMethods[name] && has[t+".Less"] && has[t+".Swap"]:
				case t != "":
					add(d.Name, t+"."+name, span{d.Pos(), d.End()})
				case name != "init" && (name != "main" || p.types.Name() != "main"):
					add(d.Name, name, span{d.Pos(), d.End()})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Name.Name, append(slices.Clip(methods[s.Name.Name]), span{s.Pos(), s.End()})...)
						fields(s.Type, s.Name.Name, add)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, id.Name, span{s.Pos(), s.End()})
							if s.Type != nil {
								fields(s.Type, id.Name, add)
							}
						}
					}
				}
			}
		}
	}
}

// fields adds the named fields of every struct type in e, but those
// with a json tag, which encoding/json reads.
func fields(e ast.Expr, prefix string, add func(*ast.Ident, string, ...span)) {
	ast.Inspect(e, func(n ast.Node) bool {
		if st, ok := n.(*ast.StructType); ok {
			for _, f := range st.Fields.List {
				if f.Tag == nil || reflect.StructTag(strings.Trim(f.Tag.Value, "`")).Get("json") == "" {
					for _, id := range f.Names {
						add(id, prefix+"."+id.Name)
					}
				}
			}
		}
		return true
	})
}

// markUses marks the candidates info's uses reach: as test uses from a
// _test.go file, else as production uses unless inside skip. It adds
// the interface methods production code calls to ifaceCalls, by name.
func (c *checker) markUses(info *types.Info, skip []span, ifaceCalls map[string][]*types.Interface) {
	for id, obj := range info.Uses {
		test := strings.HasSuffix(c.fset.File(id.Pos()).Name(), "_test.go")
		if fn, ok := obj.(*types.Func); ok && !test {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					ifaceCalls[fn.Name()] = append(ifaceCalls[fn.Name()], it)
				}
			}
		}
		cd := c.cands[obj.Pos()]
		switch {
		case cd == nil || inside(id.Pos(), cd.self):
		case test:
			cd.test = true
		case !inside(id.Pos(), skip):
			cd.used = true
		}
	}
}

// notUses returns the spans in files that name a definition without
// using it: compile-time assertions (var _ I = (*T)(nil)), which check
// a type, and writes to a field (assigned, incremented, set by a keyed
// literal, or its map or slice elements assigned).
func notUses(info *types.Info, files []*ast.File) []span {
	var spans []span
	var write func(ast.Expr)
	write = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.IndexExpr:
			write(x.X)
		case *ast.SelectorExpr:
			spans = append(spans, span{x.Sel.Pos(), x.Sel.End()})
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				if len(n.Names) == 1 && n.Names[0].Name == "_" {
					spans = append(spans, span{n.Pos(), n.End()})
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					write(l)
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
						spans = append(spans, span{id.Pos(), id.End()})
					}
				}
			}
			return true
		})
	}
	return spans
}

// markStructural marks the fields no identifier names: those of struct
// types used as map keys (compared by ==) and those set by unkeyed
// composite literals.
func (c *checker) markStructural(info *types.Info, files []*ast.File) {
	for _, tv := range info.Types {
		if m, ok := tv.Type.(*types.Map); ok {
			c.markFields(m.Key())
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok && len(lit.Elts) > 0 {
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
					c.markFields(info.Types[lit].Type)
				}
			}
			return true
		})
	}
}

// markFields marks every field of t, if t is a struct, recursively.
func (c *checker) markFields(t types.Type) {
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if cd := c.cands[st.Field(i).Pos()]; cd != nil {
				cd.used = true
			}
			c.markFields(st.Field(i).Type())
		}
	}
}

// recvNamed returns the named type obj is a method of, or nil.
func recvNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// implementsCalled reports whether obj is a method of a type that
// implements an interface whose method of the same name production
// code calls.
func implementsCalled(obj types.Object, ifaceCalls map[string][]*types.Interface) bool {
	named := recvNamed(obj)
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	return slices.ContainsFunc(ifaceCalls[obj.Name()], func(it *types.Interface) bool {
		return types.Implements(named, it) || types.Implements(types.NewPointer(named), it)
	})
}
