//go:build ignore

// exports reports every exported package-level func, type or method
// declared in internal/ that no non-test file of the module uses outside
// its own declaration, and every exported field of an exported struct
// there that no non-test file sets: by key or position in a composite
// literal, by assignment or ++/--, or by taking its address. A default
// does not count: an assignment to x.F, of a value made of constants and
// x's own fields, inside an if whose condition reads x.F
// (if o.F <= 0 { o.F = 8 * o.Parts }) only fills in what no caller set.
// bench/, cmd/ and examples/ count as callers; files named *_test.go do
// not. A method that implements an interface method is skipped: dynamic
// dispatch calls it without naming it. A JSON-tagged field is skipped:
// the decoder sets it.
//
// Run from the repository root:
//
//	go run scripts/exports.go
//
// It exits 1 and lists the names when it finds any.
package main

import (
	"fmt"
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
)

// seams are exported names that only tests call, and fields that only
// tests set, kept on purpose.
var seams = map[string]string{
	"massf/internal/pdes.Engine.InjectLookaheadViolation": "fault injection for the lookahead invariant checker",
	"massf/internal/graph.Graph.Validate":                 "the structural checker the graph and core tests use",
	"massf/internal/pdes.Invariants.KernelPerWindow":      "the fuzz target and invariant tests switch on the per-window kernel check",
	"massf/internal/des.KernelInvariants.EveryStep":       "the kernel fuzz and oracle tests run the structural checker after every event",
	"massf/internal/netsim.Config.QueueBytes":             "tests shrink the link buffers to force tail drops",
	"massf/internal/partition.Options.Imbalance":          "tests check the balance bound at other tolerances than the 5% default",
}

// stdIfaces are standard-library interfaces the module satisfies without
// naming them (fmt's %v, encoding/json, net/http, ...).
var stdIfaces = [][2]string{
	{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"}, {"io", "Reader"},
	{"io", "Writer"}, {"io", "Closer"}, {"net/http", "Handler"}, {"sort", "Interface"},
	{"container/heap", "Interface"}, {"flag", "Value"},
}

type loader struct {
	fset   *token.FileSet
	module string
	std    types.Importer
	pkgs   map[string]*pkg
}

type pkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the non-test files of one module package.
func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	if dir == "" {
		dir = "."
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// key names a package-level func or type, or a method, across packages.
func key(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func main() {
	unused, err := scan()
	if err != nil {
		fmt.Fprintln(os.Stderr, "exports:", err)
		os.Exit(2)
	}
	if len(unused) > 0 {
		fmt.Fprintln(os.Stderr, "exported names in internal/ with no caller, and fields with no setter, outside tests (move them into the tests or delete them):")
		for _, u := range unused {
			fmt.Fprintln(os.Stderr, "  "+u)
		}
		os.Exit(1)
	}
}

// scan loads the module and returns one line per exported name in
// internal/ that nothing outside tests uses, sorted.
func scan() ([]string, error) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		return nil, err
	}
	module := strings.Fields(strings.SplitN(string(mod), "\n", 2)[0])[1]
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{fset: fset, module: module, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*pkg{}}

	var paths []string
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if bp, err := build.Default.ImportDir(path, 0); err == nil && len(bp.GoFiles) > 0 {
			paths = append(paths, filepath.ToSlash(filepath.Join(module, path)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			return nil, err
		}
	}

	// Every interface the module mentions, plus the standard ones it
	// satisfies implicitly.
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, si := range stdIfaces {
		sp, err := l.std.Import(si[0])
		if err != nil {
			return nil, err
		}
		addIface(sp.Scope().Lookup(si[1]).Type())
	}
	errType := types.Universe.Lookup("error").Type()
	addIface(errType)
	// errors.Is and errors.As call Unwrap through an unnamed interface.
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil,
		nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	addIface(types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	for _, p := range l.pkgs {
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		for _, m := range []map[*ast.Ident]types.Object{p.info.Defs, p.info.Uses} {
			for _, obj := range m {
				if tn, ok := obj.(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
	}
	implementsIface := func(named *types.Named, method string) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() != method {
					continue
				}
				if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
					return true
				}
			}
		}
		return false
	}

	// The declarations under scan, each with the source ranges that do not
	// count as a use: its own declaration and, for a type, the receivers
	// of its methods. Fields are keyed by their declaring *types.Var.
	type span struct{ from, to token.Pos }
	decls := map[string][]span{}
	where := map[string]token.Pos{}
	fields := map[*types.Var]string{}
	for path, p := range l.pkgs {
		if !strings.HasPrefix(path, module+"/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					if !d.Name.IsExported() || obj == nil {
						continue
					}
					k := key(obj)
					if d.Recv != nil {
						named := recvNamed(obj)
						if named == nil || !named.Obj().Exported() {
							continue
						}
						tk := key(named.Obj())
						decls[tk] = append(decls[tk], span{d.Recv.Pos(), d.Recv.End()})
						if implementsIface(named, d.Name.Name) {
							continue
						}
					}
					decls[k] = append(decls[k], span{d.Pos(), d.End()})
					where[k] = d.Name.Pos()
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok || !ts.Name.IsExported() {
							continue
						}
						k := key(p.info.Defs[ts.Name])
						decls[k] = append(decls[k], span{ts.Pos(), ts.End()})
						where[k] = ts.Name.Pos()
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, fl := range st.Fields.List {
							if fl.Tag != nil && strings.Contains(fl.Tag.Value, `json:"`) {
								continue
							}
							for _, name := range fl.Names {
								if name.IsExported() {
									fk := k + "." + name.Name
									fields[p.info.Defs[name].(*types.Var)] = fk
									where[fk] = name.Pos()
								}
							}
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	for _, p := range l.pkgs {
		for id, obj := range p.info.Uses {
			k := key(obj)
			spans, ok := decls[k]
			if !ok || used[k] {
				continue
			}
			inside := false
			for _, s := range spans {
				if id.Pos() >= s.from && id.Pos() < s.to {
					inside = true
					break
				}
			}
			if !inside {
				used[k] = true
			}
		}
	}

	// A field is used once a non-test file sets it.
	for _, p := range l.pkgs {
		set := func(obj types.Object) {
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				if k, ok := fields[v.Origin()]; ok {
					used[k] = true
				}
			}
		}
		// defaults holds the assigned selectors that fill in a default:
		// x.F in the body of an if whose condition reads x.F, given a value
		// that reads nothing but constants and x.
		defaults := map[ast.Expr]bool{}
		isDefault := func(x *ast.SelectorExpr, v ast.Expr) bool {
			root, ok := x.X.(*ast.Ident)
			if !ok {
				return false
			}
			ok = true
			ast.Inspect(v, func(c ast.Node) bool {
				if id, isID := c.(*ast.Ident); isID {
					switch obj := p.info.Uses[id].(type) {
					case *types.Const, *types.Builtin, *types.Nil, *types.TypeName, *types.PkgName:
					case *types.Var:
						ok = ok && (obj.IsField() || obj == p.info.Uses[root])
					default:
						ok = false
					}
				}
				return ok
			})
			return ok
		}
		// target marks the field an assigned or address-taken selector
		// names: x.F.G = v sets G.
		target := func(e ast.Expr) {
			if x, ok := e.(*ast.SelectorExpr); ok && !defaults[x] {
				set(p.info.Uses[x.Sel])
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					t := p.info.Types[n].Type
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok || len(n.Elts) == 0 {
						break
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < st.NumFields(); i++ {
							set(st.Field(i))
						}
					}
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								set(p.info.Uses[id])
							}
						}
					}
				case *ast.IfStmt:
					read := map[string]bool{}
					ast.Inspect(n.Cond, func(c ast.Node) bool {
						if x, ok := c.(*ast.SelectorExpr); ok {
							read[types.ExprString(x)] = true
						}
						return true
					})
					ast.Inspect(n.Body, func(c ast.Node) bool {
						if a, ok := c.(*ast.AssignStmt); ok && len(a.Lhs) == len(a.Rhs) {
							for i, e := range a.Lhs {
								if x, ok := e.(*ast.SelectorExpr); ok && read[types.ExprString(x)] && isDefault(x, a.Rhs[i]) {
									defaults[x] = true
								}
							}
						}
						return true
					})
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						target(e)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(n.X)
					}
				}
				return true
			})
		}
	}

	var unused []string
	for k, why := range seams {
		if _, ok := where[k]; !ok || used[k] {
			unused = append(unused, fmt.Sprintf("%s: listed as a test seam (%s) but no longer one", strings.TrimPrefix(k, module+"/"), why))
		}
	}
	for k := range where {
		if used[k] {
			continue
		}
		if _, ok := seams[k]; ok {
			continue
		}
		unused = append(unused, fmt.Sprintf("%s: %s", fset.Position(where[k]), strings.TrimPrefix(k, module+"/")))
	}
	sort.Strings(unused)
	return unused, nil
}

// recvNamed returns the named type a method is declared on.
func recvNamed(obj types.Object) *types.Named {
	t := obj.(*types.Func).Signature().Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
