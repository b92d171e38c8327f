package dsb_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// unreached is every declaration under internal/ that no non-test package
// reaches, and every exported Config/Options field that no non-test code
// writes, each with the reason it stays. The list may only shrink: a name
// that becomes reachable, or is deleted, must leave it, and a new unreached
// name fails TestReachCensus until it is deleted, moved into its package's
// tests, or listed here with its reason.
var unreached = map[string]string{
	// The generator's vocabulary: cmd/codecgen emits a call to each for a
	// field of its kind, and no registered wire type has one today.
	"codec.AppendFloat32": "cmd/codecgen emits it for a float32 field",
	"codec.DecInt8":       "cmd/codecgen emits it for an int8 field",
	"codec.DecInt16":      "cmd/codecgen emits it for an int16 field",
	"codec.DecInt32":      "cmd/codecgen emits it for an int32 field",
	"codec.DecUint16":     "cmd/codecgen emits it for a uint16 field",
	"codec.DecUint32":     "cmd/codecgen emits it for a uint32 field",
	"codec.JSONBool":      "cmd/codecgen emits it for a bool field of a JSON type",
	"codec.JSONUint":      "cmd/codecgen emits it for an unsigned field of a JSON type",

	// Seams other packages' tests need, so they cannot move into a _test.go.
	"loadgen.ConstantRate": "deterministic arrivals for loadgen's and fault's open-loop tests",
	"rpc.IsCode":           "the coded-error predicate tests in thirteen packages assert with",
	"rpc.Server.Resume":    "restarts a hung replica in core's Revive seam and ecommerce's hung-catalogue test",

	// State only a test reads.
	"experiments.chaosResult.schedule": "the reproducibility witness TestChaosRecoveryShape compares across two same-seed live runs",
}

// TestReachCensus holds the module to "nothing unreached": it type-checks
// every non-test package, lists what under internal/ none of them uses (or,
// for a Config field, writes), and requires that list to equal unreached
// exactly. Names kept alive only by benchmark/ are logged, not failed: that
// package is frozen, and they are the worklist for its next change. The
// settable-values count fails above settablePin.
func TestReachCensus(t *testing.T) {
	c, err := reachCensus(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range slices.Sorted(maps.Keys(c.dead)) {
		if reason, ok := unreached[name]; !ok {
			t.Errorf("%s: %s is reached by no non-test package: delete it, move it into its package's tests, or list it in unreached with its reason", c.dead[name], name)
		} else if reason == "" {
			t.Errorf("unreached[%q] has no reason", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(unreached)) {
		if _, ok := c.dead[name]; !ok {
			t.Errorf("unreached[%q] is stale: the census no longer finds it; delete the entry", name)
		} else {
			t.Logf("allowed %s: %s", name, unreached[name])
		}
	}
	for _, name := range slices.Sorted(maps.Keys(c.benchOnly)) {
		t.Logf("reached only from benchmark/: %s (%s)", name, c.benchOnly[name])
	}
	t.Logf("settable values: %d exported Config/Options fields that non-test code writes", c.knobs)
	if c.knobs > settablePin {
		t.Errorf("settable values: %d, above settablePin %d: a new knob raises the pin in its own diff", c.knobs, settablePin)
	}
}

// settablePin ratchets the settable-values count TestReachCensus logs: it
// may fall freely, and a change that adds a knob must raise the pin where a
// reviewer sees it.
const settablePin = 82

// TestReachCensusFixture pins the census's rules on a module built to probe
// them: a method kept alive only by satisfying an interface, a generic
// type's method used through an instantiation, a Config field written only
// through its address, a positionally initialised Config, a Config field
// only clamped, an atomic whose Add result is used and a field both written
// and read all count as reached; an exported func nothing calls but itself,
// one only a test calls, a Config field only ever given its default, a
// counter only ever updated, a field only a test reads and one only a
// composite literal sets do not.
func TestReachCensusFixture(t *testing.T) {
	c, err := reachCensus(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	got := slices.Sorted(maps.Keys(c.dead))
	want := []string{
		"lib.Config.Depth", "lib.Config.Name", "lib.Counter.hits", "lib.Counter.label", "lib.Counter.last",
		"lib.Dead", "lib.TestOnly",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("census of the fixture = %q, want %q", got, want)
	}
	if len(c.benchOnly) != 0 {
		t.Fatalf("fixture has no benchmark/, yet census reports %v", c.benchOnly)
	}
}

type census struct {
	dead      map[string]string // name → position: no non-test package reaches it
	benchOnly map[string]string // name → position: only benchmark/ reaches it
	knobs     int               // exported Config/Options fields non-test code writes
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
}

type checkedPackage struct {
	path  string
	files []*ast.File
	info  *types.Info
	bench bool
}

// program is a module's non-test packages, type-checked once from source in
// dependency order, so one object stands for each declaration wherever it
// is used. Both censuses read it.
type program struct {
	fset   *token.FileSet
	root   string // the module's directory
	module string // the module path
	pkgs   []*checkedPackage
}

var (
	programsMu sync.Mutex
	programs   = map[string]*program{}
)

// loadProgram type-checks the module rooted at dir, once per test binary:
// TestReachCensus and TestCallGraphCensus share the load.
func loadProgram(dir string) (*program, error) {
	programsMu.Lock()
	defer programsMu.Unlock()
	if p, ok := programs[dir]; ok {
		return p, nil
	}
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard,Module", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}

	// go list -deps orders dependencies first, so module packages are checked
	// from source in that order and one object stands for each declaration
	// wherever it is used; the standard library comes from the export data go
	// list just built.
	fset := token.NewFileSet()
	exports := map[string]string{}
	checked := map[string]*types.Package{}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	p := &program{fset: fset, root: root}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp listedPackage
		if err := dec.Decode(&lp); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, err
		}
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		p.module = lp.Module.Path
		cp := &checkedPackage{
			path:  lp.ImportPath,
			bench: lp.ImportPath == p.module+"/benchmark" || strings.HasPrefix(lp.ImportPath, p.module+"/benchmark/"),
			info: &types.Info{
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
				Types:      map[ast.Expr]types.TypeAndValue{},
			},
		}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			cp.files = append(cp.files, f)
		}
		tp, err := conf.Check(lp.ImportPath, fset, cp.files, cp.info)
		if err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = tp
		p.pkgs = append(p.pkgs, cp)
	}
	programs[dir] = p
	return p, nil
}

// reachCensus runs the census over the module rooted at dir. Names are the
// import path below <module>/internal/, then the declaration, with a
// method or field qualified by its type: "docstore.Collection.Put".
func reachCensus(dir string) (*census, error) {
	p, err := loadProgram(dir)
	if err != nil {
		return nil, err
	}
	fset, root, module, pkgs := p.fset, p.root, p.module, p.pkgs

	ifaces := interfacesByMethod(pkgs)
	r := &reachability{
		names: map[types.Object]string{}, own: map[types.Object][]ast.Node{},
		config: map[types.Object]bool{}, metrics: module + "/internal/metrics",
	}
	for _, cp := range pkgs {
		// internal/vtime is test support by design: only tests call it.
		if pkg, ok := strings.CutPrefix(cp.path, module+"/internal/"); ok && pkg != "vtime" {
			r.declare(pkg, cp, ifaces)
		}
	}
	bench, other := map[types.Object]bool{}, map[types.Object]bool{}
	for _, cp := range pkgs {
		reached := other
		if cp.bench {
			reached = bench
		}
		r.uses(cp, reached)
		r.writes(cp, reached)
	}
	c := &census{dead: map[string]string{}, benchOnly: map[string]string{}}
	for obj := range r.config {
		if other[obj] || bench[obj] {
			c.knobs++
		}
	}
	for obj, name := range r.names {
		pos := fset.Position(obj.Pos())
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		switch {
		case other[obj]:
		case bench[obj]:
			c.benchOnly[name] = pos.String()
		default:
			c.dead[name] = pos.String()
		}
	}
	return c, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// reachability holds the declarations under census: their names, the
// syntax a use from inside does not count in (a declaration's own body, and
// a type's methods), and which of them are Config fields, reached by a write
// rather than a use. An unexported struct field is reached only by a read.
type reachability struct {
	names   map[types.Object]string
	own     map[types.Object][]ast.Node
	config  map[types.Object]bool
	metrics string // import path of internal/metrics, whose updates count as writes
}

func (r *reachability) declare(pkg string, cp *checkedPackage, ifaces map[string][]*types.Interface) {
	for _, f := range cp.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn := cp.info.Defs[d.Name].(*types.Func)
				if d.Recv == nil {
					if d.Name.Name != "init" && d.Name.Name != "_" {
						r.add(fn, pkg+"."+fn.Name(), d)
					}
					continue
				}
				recv := fn.Type().(*types.Signature).Recv().Type()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				named := recv.(*types.Named)
				r.own[named.Obj()] = append(r.own[named.Obj()], d)
				if !implementsAny(named, fn.Name(), ifaces) {
					r.add(fn, pkg+"."+named.Obj().Name()+"."+fn.Name(), d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						obj := cp.info.Defs[s.Name]
						r.add(obj, pkg+"."+s.Name.Name, s)
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							continue
						}
						config := strings.HasSuffix(s.Name.Name, "Config") || s.Name.Name == "Options"
						for _, field := range st.Fields.List {
							for _, id := range field.Names {
								fobj := cp.info.Defs[id]
								switch {
								case id.Name == "_":
								case !id.IsExported():
									r.names[fobj] = pkg + "." + s.Name.Name + "." + id.Name
								case config:
									r.names[fobj] = pkg + "." + s.Name.Name + "." + id.Name
									r.config[fobj] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.Name != "_" {
								r.add(cp.info.Defs[id], pkg+"."+id.Name, s)
							}
						}
					}
				}
			}
		}
	}
}

func (r *reachability) add(obj types.Object, name string, decl ast.Node) {
	r.names[obj] = name
	r.own[obj] = append(r.own[obj], decl)
}

// uses marks every declaration cp refers to from outside its own syntax,
// and every unexported field it reads.
func (r *reachability) uses(cp *checkedPackage, reached map[types.Object]bool) {
	written := r.stateWrites(cp)
	for id, obj := range cp.info.Uses {
		obj = origin(obj)
		if _, ok := r.names[obj]; ok && !r.config[obj] && !written[id] && !r.inside(obj, id.Pos()) {
			reached[obj] = true
		}
	}
}

// updates are the methods of a sync/atomic or internal/metrics value that
// store into it; called as a statement, their result unused, they are a
// write to the field they are called on. Record* is matched by prefix.
var updates = []string{"Add", "Store", "Swap", "CompareAndSwap", "Inc", "Mark", "Set", "Record"}

// stateWrites returns the identifiers in cp that only write an unexported
// field: the selector of an assignment target or ++/-- (through an index or
// parens), a composite literal's key, and the selector an update is called
// on as a statement. Every other use of a field reads it, &x.f included.
func (r *reachability) stateWrites(cp *checkedPackage) map[*ast.Ident]bool {
	written := map[*ast.Ident]bool{}
	var target func(e ast.Expr)
	target = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			written[x.Sel] = true
		case *ast.IndexExpr:
			target(x.X)
		case *ast.ParenExpr:
			target(x.X)
		}
	}
	for _, f := range cp.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					written[id] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(x.X)
			case *ast.ExprStmt:
				if call, ok := x.X.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && r.isUpdate(cp, sel) {
						target(sel.X)
					}
				}
			}
			return true
		})
	}
	return written
}

// isUpdate reports whether sel names an update method of a sync/atomic or
// internal/metrics type.
func (r *reachability) isUpdate(cp *checkedPackage, sel *ast.SelectorExpr) bool {
	s := cp.info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if path := named.Obj().Pkg().Path(); path != "sync/atomic" && path != r.metrics {
		return false
	}
	return slices.ContainsFunc(updates, func(u string) bool {
		return sel.Sel.Name == u || u == "Record" && strings.HasPrefix(sel.Sel.Name, u)
	})
}

// inside reports whether pos lies in obj's own syntax.
func (r *reachability) inside(obj types.Object, pos token.Pos) bool {
	for _, n := range r.own[obj] {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

// writes marks every Config field cp sets: by key or position in a
// composite literal, as the target of an assignment or ++/--, or by taking
// its address. Filling in a default is not setting: an assignment to a
// field inside an if that tests that same field against its zero value
// (`if cfg.X <= 0 { cfg.X = d }`) does not count.
func (r *reachability) writes(cp *checkedPackage, reached map[types.Object]bool) {
	defaults := defaultFills(cp)
	write := func(field types.Object) {
		if field = origin(field); r.config[field] {
			reached[field] = true
		}
	}
	var target func(e ast.Expr)
	target = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if sel := cp.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				write(sel.Obj())
			}
			target(x.X)
		case *ast.IndexExpr:
			target(x.X)
		case *ast.ParenExpr:
			target(x.X)
		case *ast.StarExpr:
			target(x.X)
		}
	}
	for _, f := range cp.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				t := cp.info.TypeOf(x) // *T for an element elided from []*T{{...}}
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range x.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						write(cp.info.Uses[kv.Key.(*ast.Ident)])
					} else {
						write(st.Field(i))
					}
				}
			case *ast.AssignStmt:
				if defaults[x] {
					break
				}
				for _, lhs := range x.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					target(x.X)
				}
			}
			return true
		})
	}
}

// defaultFills returns the assignments in cp that fill in a default: a
// statement directly in the body of an if whose condition compares a field
// (==, <= or <) with a zero constant or nil, assigning that same field and
// nothing else.
func defaultFills(cp *checkedPackage) map[*ast.AssignStmt]bool {
	fills := map[*ast.AssignStmt]bool{}
	for _, f := range cp.files {
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			cond, ok := ifs.Cond.(*ast.BinaryExpr)
			if !ok || cond.Op != token.EQL && cond.Op != token.LEQ && cond.Op != token.LSS {
				return true
			}
			field, ok := cond.X.(*ast.SelectorExpr)
			if !ok || !isZero(cp.info.Types[cond.Y]) {
				return true
			}
			for _, stmt := range ifs.Body.List {
				if as, ok := stmt.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN && len(as.Lhs) == 1 &&
					types.ExprString(as.Lhs[0]) == types.ExprString(field) {
					fills[as] = true
				}
			}
			return true
		})
	}
	return fills
}

// isZero reports whether tv is the constant zero value of its type, or nil.
func isZero(tv types.TypeAndValue) bool {
	if tv.IsNil() {
		return true
	}
	if tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.String:
		return constant.StringVal(tv.Value) == ""
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
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

// interfacesByMethod indexes, by method name, every interface a method
// could be kept alive by satisfying: each interface type that occurs in a
// type the module's non-test code handles (an expression's, a declaration's,
// and through them their parameters, results, fields and elements), plus
// the three the standard library looks for without naming them in a
// signature: error, fmt's String() and errors' Unwrap() error.
func interfacesByMethod(pkgs []*checkedPackage) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if t.TypeParams().Len() == 0 || t.TypeArgs().Len() > 0 {
				walk(t.Underlying())
			}
			for i := range t.TypeArgs().Len() {
				walk(t.TypeArgs().At(i))
			}
		case *types.Interface:
			for i := range t.NumMethods() {
				m := t.Method(i)
				byName[m.Name()] = append(byName[m.Name()], t)
				walk(m.Type())
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := range t.Len() {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := range t.NumFields() {
				walk(t.Field(i).Type())
			}
		}
	}
	for _, cp := range pkgs {
		for _, tv := range cp.info.Types {
			walk(tv.Type)
		}
		for _, obj := range cp.info.Uses {
			walk(obj.Type())
		}
		for _, obj := range cp.info.Defs {
			if obj != nil {
				walk(obj.Type())
			}
		}
	}
	errType := types.Universe.Lookup("error").Type()
	implicit := func(name string, params, results []types.Type) {
		vars := func(ts []types.Type) *types.Tuple {
			var vs []*types.Var
			for _, t := range ts {
				vs = append(vs, types.NewParam(token.NoPos, nil, "", t))
			}
			return types.NewTuple(vs...)
		}
		sig := types.NewSignatureType(nil, nil, nil, vars(params), vars(results), false)
		walk(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete())
	}
	walk(errType)
	implicit("String", nil, []types.Type{types.Typ[types.String]})
	implicit("Unwrap", nil, []types.Type{errType})
	return byName
}

// implementsAny reports whether named or *named satisfies an interface
// that has a method called method. A generic type is matched by the method
// name alone.
func implementsAny(named *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return len(ifaces[method]) > 0
	}
	for _, it := range ifaces[method] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}
