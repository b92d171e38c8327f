package dsb_test

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// uncalled is every RPC handler under internal/services, and every store or
// broker handler the apps' tiers serve, that no non-test call reaches, each
// with the reason it stays. A handler that only tests call is deleted
// instead, unless it is the only read of state its tier keeps: deleting it
// would leave a write-only sink. The list may only shrink, as unreached does.
// unread is every piece of state an app's code under internal/services
// writes that no non-test code reads, each with the reason it stays: a
// stored field, number or body, a cache key or a broker topic. State nothing
// reads is deleted instead, unless deleting it would change what the paper's
// app does or what a benchmark workload measures. The list may only shrink.
var unread = map[string]string{
	"bank.db-credentials/credentials Nums[balance]": "accounts.Register writes it only for a request that carries a balance, which no bank client sends",
	"social.db-users/users Nums[balance]":           "accounts.Register writes it only for a request that carries a balance, which no social client sends",
	"ecom.db-invoices/invoices Body":                "the paper's invoicing record, one db write per checkout that ecommerce_checkout measures; its fate belongs with that workload",
	"swarm.db-telemetry/location Body":              "the archived sample itself: ArchivedSamples counts these documents by drone, and a sensor database of empty documents archives nothing",
	"swarm.db-telemetry/images Body":                "the archived frame itself: ArchivedSamples counts these documents by drone, and an image database of empty documents archives nothing",
}

var uncalled = map[string]string{
	"bank.transactionPosting.Ledger": "only read of transactionPosting's ledger entries",
	"bank.userPreferences.Access":    "only read of userPreferences' stored preferences",
	"media.reviewSearch.Search":      "only read of reviewSearch's review text index",
	"social.media.Get":               "only read of media's stored uploads",
	"social.urlShorten.Resolve":      "only read of urlShorten's short-URL mappings",
	"swarm.log.Tail":                 "only read of log's per-drone line buffers",
}

// TestCallGraphCensus holds the apps' topology to one statement of it. The
// wiring names the tiers (svcutil.Stack.Start and friends, core.App.StartRPC/
// StartREST), the handlers name the methods each tier serves, and the client
// calls name the methods each tier is asked for; the census fails when a
// handler has no non-test caller and is not in uncalled, when a call asks a
// tier for a method it does not serve, when a call site under
// internal/services has a target or method the pass cannot resolve to a
// constant, and when an uncalled entry is stale. It holds state to the same
// rule: per store, cache and broker tier it fails on a field, number, body,
// cache key or topic code under internal/services writes and no non-test
// code reads, unless unread lists it, on a store write with no constant
// collection, and on a stale unread entry. -v prints the per-app tier/edge
// and state table, the call sites outside internal/services that count on
// every tier, and the handler wire types with no generated codec.
func TestCallGraphCensus(t *testing.T) {
	p, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	c := callGraphCensus(p)
	for _, d := range append(c.defects(uncalled), c.stateDefects(unread)...) {
		t.Error(d)
	}
	for _, key := range slices.Sorted(maps.Keys(uncalled)) {
		t.Logf("allowed %s: %s", key, uncalled[key])
	}
	for _, key := range slices.Sorted(maps.Keys(unread)) {
		t.Logf("allowed unread %s: %s", key, unread[key])
	}
	c.log(t)
}

// TestCallGraphCensusFixture pins the census's rules on a module built to
// probe them: a handler reached only through a Relay's downstream method on
// a tier core.App.Define registers under a Stack.Name, one only through a
// rest.Forward route, one only through a dependency kept in a struct field,
// one only through a parameter, and a store handler only through a typed
// client's method over a shard router all count as called; a handler only its
// test calls, a call of a method its tier does not serve and a call under
// internal/services whose method is not a constant are the three call
// defects. A stored field read after a Get, one a Find reads, a map read
// whole, a field only a Find by a name no constant gives reads, a number
// only AddNum's sum reads, a cache key read back and a topic consumed all
// count as read; a field and a cache key prefix nothing reads are the two
// state defects.
func TestCallGraphCensusFixture(t *testing.T) {
	p, err := loadProgram(filepath.Join("testdata", "callgraph"))
	if err != nil {
		t.Fatal(err)
	}
	c := callGraphCensus(p)
	got := append(c.defects(nil), c.stateDefects(nil)...)
	slices.Sort(got)
	want := []string{
		"internal/services/notes/notes.go:42:12: notes.db/notes Fields[color]: state no non-test code reads",
		"internal/services/notes/notes.go:51:12: notes.mc key seen:*: state no non-test code reads",
		"internal/services/shop/shop.go:70:13: calls shop.stock.Hold, which shop.stock does not serve",
		"internal/services/shop/shop.go:73:15: call site under internal/services with no constant method",
		"internal/services/shop/shop.go:91:2: shop.stock.Restock: handler no non-test call reaches",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("census of the fixture:\n\t%s\nwant:\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// callGraph is a flow-insensitive, demand-driven value analysis over the
// module's non-test code, just deep enough to name tiers: the values it
// follows are tier names, string constants, Stacks (by prefix) and
// functions, through locals, struct fields, parameters, results and
// closures. A parameter is read from the call that binds it when the
// evaluation runs under that call's frame, and from every caller otherwise.
type callGraph struct {
	p       *program
	info    *types.Info
	funcs   map[*types.Func]*cgFunc
	lits    map[*ast.FuncLit]*cgFunc
	byKey   map[string]*cgFunc
	params  map[*types.Var]paramRef
	assigns map[types.Object][]assignment
	bind    map[*cgFunc]vals // a registration function's server: the tiers it is started as

	memo    map[memoKey]vals
	busy    map[memoKey]bool
	pending map[memoKey]bool // busy keys a cycle was cut at
	frames  map[frame]*frame

	clients  map[*types.TypeName]bool // typed clients: svcutil.KV, svcutil.DB, mq.Bus implementations
	bus      *types.TypeName
	internal map[*cgFunc]bool // typed-client bodies: their calls count at the typed call
	issued   map[*cgFunc]vals

	docSets map[types.Object][]docSet // writes into a local Doc's Fields, Nums or Body
	keyed   map[types.Object][]ast.Expr
	elems   map[ast.Expr]bool // right-hand sides of m[k] = v: what assigns records for m is no map
	settled map[ast.Node]bool // Doc selectors written to, or read under an index
	unused  map[*ast.CallExpr]bool
}

// docSet is a write into a Doc-typed variable's field: d.Body = rhs,
// d.Nums = rhs, or d.Fields[key] = rhs.
type docSet struct {
	field    string
	key, rhs ast.Expr
}

// docRead is a read of a Doc's field: x.Body, the whole x.Fields or x.Nums
// map (key nil), or one key of it, x.Fields[key].
type docRead struct {
	sel   *ast.SelectorExpr
	field string
	key   ast.Expr
}

// cgFunc is one function body: a declaration or a literal.
type cgFunc struct {
	obj     *types.Func // nil for a literal
	lit     *ast.FuncLit
	outer   *cgFunc // the function a literal is written in
	nested  []*cgFunc
	pkg     *checkedPackage
	sig     *types.Signature
	hasBody bool
	returns []*ast.ReturnStmt
	calls   []*ast.CallExpr // written directly in this body, not in a nested literal
	callers []callSite
	reads   []docRead
}

type callSite struct {
	call  *ast.CallExpr
	in    *cgFunc
	recv  ast.Expr // a method call's receiver
	rctx  *frame   // where recv is evaluated, for a call through a method value
	bound bool     // recv came with a method value
	// direct is a call that names its callee (a function, a method, or a
	// local the function is assigned to): a calling context. A call through
	// a parameter or field reaches every function that flows there, so it
	// binds parameters but is no context.
	direct bool
}

// frame is a calling context: fn's parameters are the arguments of call,
// evaluated in parent, and its receiver is recv, evaluated in rctx.
type frame struct {
	fn     *cgFunc
	call   *ast.CallExpr
	recv   ast.Expr
	rctx   *frame
	parent *frame
	depth  int
}

type paramRef struct {
	fn    *cgFunc
	index int // -1: the receiver
}

type assignment struct {
	rhs   ast.Expr
	index int // result index of a multi-value right-hand side
}

type memoKey struct {
	e   ast.Expr
	idx int
	ctx *frame
}

type valKind uint8

const (
	vTier   valKind = iota // a service name
	vStr                   // a string constant
	vStack                 // a svcutil.Stack, by its prefix
	vFunc                  // a function, with its receiver if a method value
	vPrefix                // a string built on a constant: s is the constant
	vDyn                   // a string no constant names
	vDoc                   // a document a store read returns: s is "tier\x00collection"
	vItem                  // what a Doc built here holds: s is "Fields\x00name", "Body\x00", …, or "" for the Doc itself
)

type val struct {
	kind valKind
	s    string
	fn   *cgFunc
	recv ast.Expr
	rctx *frame
}

type vals map[val]bool

func (v vals) add(w vals) vals {
	if v == nil {
		v = vals{}
	}
	for x := range w {
		v[x] = true
	}
	return v
}

func (v vals) strs(kind valKind) []string {
	var out []string
	for x := range v {
		if x.kind == kind {
			out = append(out, x.s)
		}
	}
	slices.Sort(out)
	return out
}

const (
	maxContextDepth = 4 // callers a site's context reaches up through
	maxFrameDepth   = 8 // nested result evaluations before the outer context is dropped
)

// plumbing are the packages that implement the RPC surface rather than
// use it: a Call written in them forwards a caller's method, so it is no
// call site, and a Handle written in them registers a caller's handler.
var plumbing = map[string]bool{"rpc": true, "rest": true, "core": true, "transport": true, "lb": true, "shard": true, "registry": true}

// stores are the packages that implement the store, cache and broker tiers
// and their typed clients: what they read and write is their callers'.
var stores = map[string]bool{"svcutil": true, "docstore": true, "kv": true, "mq": true}

func newCallGraph(p *program) *callGraph {
	g := &callGraph{
		p: p,
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{}, Types: map[ast.Expr]types.TypeAndValue{},
		},
		funcs: map[*types.Func]*cgFunc{}, lits: map[*ast.FuncLit]*cgFunc{}, byKey: map[string]*cgFunc{},
		params: map[*types.Var]paramRef{}, assigns: map[types.Object][]assignment{}, bind: map[*cgFunc]vals{},
		frames:  map[frame]*frame{},
		clients: map[*types.TypeName]bool{}, internal: map[*cgFunc]bool{}, issued: map[*cgFunc]vals{},
		docSets: map[types.Object][]docSet{}, keyed: map[types.Object][]ast.Expr{}, elems: map[ast.Expr]bool{},
		settled: map[ast.Node]bool{}, unused: map[*ast.CallExpr]bool{},
	}
	for _, cp := range p.pkgs {
		maps.Copy(g.info.Defs, cp.info.Defs)
		maps.Copy(g.info.Uses, cp.info.Uses)
		maps.Copy(g.info.Selections, cp.info.Selections)
		maps.Copy(g.info.Types, cp.info.Types)
	}
	for _, cp := range p.pkgs {
		for _, f := range cp.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := g.info.Defs[d.Name].(*types.Func)
					fn := &cgFunc{obj: obj, pkg: cp, sig: obj.Type().(*types.Signature), hasBody: d.Body != nil}
					g.funcs[obj] = fn
					g.byKey[g.key(obj)] = fn
					g.declare(fn)
					if d.Body != nil {
						g.walk(d.Body, fn)
					}
				case *ast.GenDecl:
					g.walk(d, &cgFunc{pkg: cp})
				}
			}
		}
	}
	g.findClients()
	g.linkCallers()
	return g
}

// key names a module declaration by its import path below internal/ and,
// for a method, its receiver type: "svcutil.Stack.Caller". Other packages'
// names keep their import path: "fmt.Sprintf".
func (g *callGraph) key(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok && fn == nil { // a literal's callee
		return ""
	}
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path, ok := strings.CutPrefix(obj.Pkg().Path(), g.p.module+"/internal/")
	if !ok {
		path = obj.Pkg().Path()
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if named := namedOf(recv.Type()); named != nil {
				return path + "." + named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return path + "." + obj.Name()
}

// pkgOf is fn's import path below internal/, or "" outside it.
func (g *callGraph) pkgOf(fn *cgFunc) string {
	if path, ok := strings.CutPrefix(fn.pkg.path, g.p.module+"/internal/"); ok {
		return path
	}
	return ""
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func (g *callGraph) declare(fn *cgFunc) {
	if r := fn.sig.Recv(); r != nil {
		g.params[r] = paramRef{fn, -1}
	}
	for i := range fn.sig.Params().Len() {
		g.params[fn.sig.Params().At(i)] = paramRef{fn, i}
	}
}

// walk indexes a body: its calls, returns and nested literals, and every
// assignment in it — to a variable, a field (by assignment or composite
// literal) or a collection element (as the collection).
func (g *callGraph) walk(n ast.Node, cur *cgFunc) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			lit := &cgFunc{lit: x, outer: cur, pkg: cur.pkg, sig: g.info.Types[x].Type.(*types.Signature), hasBody: true}
			g.lits[x] = lit
			cur.nested = append(cur.nested, lit)
			g.declare(lit)
			g.walk(x.Body, lit)
			return false
		case *ast.CallExpr:
			cur.calls = append(cur.calls, x)
		case *ast.ReturnStmt:
			cur.returns = append(cur.returns, x)
		case *ast.ExprStmt:
			g.discard(x.X)
		case *ast.GoStmt:
			g.discard(x.Call)
		case *ast.DeferStmt:
			g.discard(x.Call)
		case *ast.IndexExpr:
			if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok && !g.settled[sel] {
				if f := g.docField(sel); f != "" {
					g.settled[sel] = true
					cur.reads = append(cur.reads, docRead{sel, f, x.Index})
				}
			}
		case *ast.SelectorExpr:
			if f := g.docField(x); f != "" && !g.settled[x] {
				cur.reads = append(cur.reads, docRead{sel: x, field: f})
			}
		case *ast.AssignStmt:
			if len(x.Rhs) == 1 && isBlank(x.Lhs[0]) {
				g.discard(x.Rhs[0])
			}
			for _, lhs := range x.Lhs {
				g.setInto(lhs, len(x.Lhs) == len(x.Rhs), x)
			}
			if x.Tok != token.ASSIGN && x.Tok != token.DEFINE {
				break
			}
			for i, lhs := range x.Lhs {
				if len(x.Rhs) == len(x.Lhs) {
					g.assign(lhs, x.Rhs[i], 0)
				} else if len(x.Rhs) == 1 {
					g.assign(lhs, x.Rhs[0], i)
				}
			}
		case *ast.ValueSpec:
			if len(x.Values) == 1 && x.Names[0].Name == "_" {
				g.discard(x.Values[0])
			}
			for i, id := range x.Names {
				if len(x.Values) == len(x.Names) {
					g.assign(id, x.Values[i], 0)
				} else if len(x.Values) == 1 {
					g.assign(id, x.Values[0], i)
				}
			}
		case *ast.RangeStmt:
			if x.Value != nil {
				g.assign(x.Value, x.X, 0)
			}
		case *ast.CompositeLit:
			st, ok := deref(g.info.TypeOf(x)).Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if f := g.info.Uses[kv.Key.(*ast.Ident)]; f != nil {
						g.assigns[origin(f)] = append(g.assigns[origin(f)], assignment{kv.Value, 0})
					}
				} else {
					f := st.Field(i).Origin()
					g.assigns[f] = append(g.assigns[f], assignment{elt, 0})
				}
			}
		}
		return true
	})
}

// discard marks a call whose first result nothing reads.
func (g *callGraph) discard(e ast.Expr) {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		g.unused[call] = true
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// docField names the Doc field sel selects: "Fields", "Nums" or "Body".
func (g *callGraph) docField(sel *ast.SelectorExpr) string {
	s := g.info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal || !g.isDoc(s.Recv()) {
		return ""
	}
	switch name := s.Obj().Name(); name {
	case "Fields", "Nums", "Body":
		return name
	}
	return ""
}

func (g *callGraph) isDoc(t types.Type) bool {
	named := namedOf(t)
	return named != nil && g.key(named.Obj()) == "docstore.Doc"
}

// setInto records what an assignment's left side writes that a Doc's
// contents are read from: a field of a Doc variable (d.Nums = …,
// d.Fields[k] = …) or a key of a map variable (m[k] = …). The selectors it
// writes through are no reads.
func (g *callGraph) setInto(lhs ast.Expr, paired bool, as *ast.AssignStmt) {
	var key, rhs ast.Expr
	if paired {
		rhs = as.Rhs[slices.Index(as.Lhs, lhs)]
	}
	if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		lhs, key = ast.Unparen(ix.X), ix.Index
		if rhs != nil {
			g.elems[rhs] = true
		}
	}
	switch x := lhs.(type) {
	case *ast.SelectorExpr:
		f := g.docField(x)
		if f == "" {
			return
		}
		g.settled[x] = true
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if obj := g.info.Uses[id]; obj != nil {
				g.docSets[obj] = append(g.docSets[obj], docSet{f, key, rhs})
			}
		}
	case *ast.Ident:
		if obj := g.info.Uses[x]; obj != nil && key != nil {
			g.keyed[obj] = append(g.keyed[obj], key)
		}
	}
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func (g *callGraph) assign(lhs, rhs ast.Expr, index int) {
	var obj types.Object
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		if obj = g.info.Defs[x]; obj == nil {
			obj = g.info.Uses[x]
		}
	case *ast.SelectorExpr:
		if sel := g.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			obj = sel.Obj()
		}
	case *ast.IndexExpr:
		g.assign(x.X, rhs, index)
		return
	case *ast.StarExpr:
		g.assign(x.X, rhs, index)
		return
	}
	if obj != nil {
		obj = origin(obj)
		g.assigns[obj] = append(g.assigns[obj], assignment{rhs, index})
	}
}

// findClients collects the typed clients: svcutil.KV and svcutil.DB, and
// every type in mq that implements mq.Bus.
func (g *callGraph) findClients() {
	for _, cp := range g.p.pkgs {
		for _, obj := range cp.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.Parent() != tn.Pkg().Scope() {
				continue
			}
			switch g.key(tn) {
			case "svcutil.KV", "svcutil.DB":
				g.clients[tn] = true
			case "mq.Bus":
				g.bus = tn
			}
		}
	}
	if g.bus == nil {
		return
	}
	iface := g.bus.Type().Underlying().(*types.Interface)
	for _, obj := range g.bus.Pkg().Scope().Names() {
		tn, ok := g.bus.Pkg().Scope().Lookup(obj).(*types.TypeName)
		if ok && tn != g.bus && !types.IsInterface(tn.Type()) &&
			(types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface)) {
			g.clients[tn] = true
		}
	}
}

// linkCallers records each function's callers: first the calls that name
// their callee, then the calls through a value, which the first set lets
// the evaluation resolve.
func (g *callGraph) linkCallers() {
	all := g.all()
	for _, fn := range all {
		for _, call := range fn.calls {
			for _, c := range g.staticCallees(call) {
				if c.fn != nil {
					c.fn.callers = append(c.fn.callers, callSite{call: call, in: fn, recv: c.recv, direct: true})
				}
			}
		}
	}
	g.reset()
	for _, fn := range all {
		for _, call := range fn.calls {
			if g.staticCallees(call) != nil || g.isConversionOrBuiltin(call) {
				continue
			}
			fun := ast.Unparen(call.Fun)
			direct := false
			if id, ok := fun.(*ast.Ident); ok {
				v, _ := g.info.Uses[id].(*types.Var)
				_, isParam := g.params[v]
				direct = v != nil && !isParam
			}
			for v := range g.eval(fun, nil) {
				if v.kind == vFunc {
					v.fn.callers = append(v.fn.callers, callSite{call: call, in: fn, recv: v.recv, rctx: v.rctx, bound: v.recv != nil, direct: direct})
				}
			}
		}
	}
	g.reset()
}

func (g *callGraph) reset() {
	g.memo, g.busy, g.pending = map[memoKey]vals{}, map[memoKey]bool{}, map[memoKey]bool{}
}

// all is every function body, literals included, in source order.
func (g *callGraph) all() []*cgFunc {
	var out []*cgFunc
	var add func(fn *cgFunc)
	add = func(fn *cgFunc) {
		out = append(out, fn)
		for _, n := range fn.nested {
			add(n)
		}
	}
	for _, cp := range g.p.pkgs {
		for _, f := range cp.files {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok {
					add(g.funcs[g.info.Defs[d.Name].(*types.Func)])
				}
			}
		}
	}
	return out
}

type callee struct {
	obj  *types.Func
	fn   *cgFunc
	recv ast.Expr
	rctx *frame
}

// staticCallees resolves a call that names its callee: a function, a
// method (an interface method has no body), or a literal called in place.
func (g *callGraph) staticCallees(call *ast.CallExpr) []callee {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr: // an explicit instantiation
		if _, ok := g.objOf(f.X).(*types.Func); ok {
			fun = f.X
		}
	case *ast.IndexListExpr:
		fun = f.X
	}
	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := g.info.Uses[f].(*types.Func); ok {
			return []callee{{obj: fn.Origin(), fn: g.funcs[fn.Origin()]}}
		}
	case *ast.SelectorExpr:
		if sel := g.info.Selections[f]; sel != nil {
			if sel.Kind() == types.MethodVal {
				m := sel.Obj().(*types.Func).Origin()
				return []callee{{obj: m, fn: g.funcs[m], recv: f.X}}
			}
		} else if fn, ok := g.info.Uses[f.Sel].(*types.Func); ok {
			return []callee{{obj: fn.Origin(), fn: g.funcs[fn.Origin()]}}
		}
	case *ast.FuncLit:
		return []callee{{fn: g.lits[f]}}
	}
	return nil
}

func (g *callGraph) objOf(e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return g.info.Uses[x]
	case *ast.SelectorExpr:
		return g.info.Uses[x.Sel]
	}
	return nil
}

func (g *callGraph) isConversionOrBuiltin(call *ast.CallExpr) bool {
	if g.info.Types[call.Fun].IsType() {
		return true
	}
	_, ok := g.objOf(call.Fun).(*types.Builtin)
	return ok
}

// callees resolves any call under ctx: by name, or through the functions
// its callee expression evaluates to.
func (g *callGraph) callees(call *ast.CallExpr, ctx *frame) []callee {
	if cs := g.staticCallees(call); cs != nil {
		for i := range cs {
			cs[i].rctx = ctx
		}
		return cs
	}
	var out []callee
	for v := range g.eval(call.Fun, ctx) {
		if v.kind == vFunc {
			out = append(out, callee{obj: v.fn.obj, fn: v.fn, recv: v.recv, rctx: v.rctx})
		}
	}
	return out
}

func (g *callGraph) frame(fn *cgFunc, call *ast.CallExpr, recv ast.Expr, rctx, parent *frame) *frame {
	depth := 0
	if parent != nil {
		if depth = parent.depth + 1; depth > maxFrameDepth {
			parent, depth = nil, 0
		}
	}
	k := frame{fn: fn, call: call, recv: recv, rctx: rctx, parent: parent, depth: depth}
	if f, ok := g.frames[k]; ok {
		return f
	}
	f := &k
	g.frames[k] = f
	return f
}

// eachContext evaluates a site written in fn under its calling contexts:
// try runs under a frame for each direct call of the innermost function
// that has direct callers (a handler literal has none: its parameters are
// the request, and what it calls comes from the registration function
// around it), and again one caller further up wherever try reports the
// site unresolved there, up to maxContextDepth callers. try records what it
// resolves, and at the last attempt on a chain records whatever it finds.
func (g *callGraph) eachContext(fn *cgFunc, try func(ctx *frame, last bool) bool) {
	type link struct {
		fn *cgFunc
		cs callSite
	}
	within := func(chain []link) *frame {
		var ctx *frame
		for i := len(chain) - 1; i >= 0; i-- {
			rctx := ctx
			if chain[i].cs.bound {
				rctx = chain[i].cs.rctx
			}
			ctx = g.frame(chain[i].fn, chain[i].cs.call, chain[i].cs.recv, rctx, ctx)
		}
		return ctx
	}
	var up func(fn *cgFunc, chain []link)
	up = func(fn *cgFunc, chain []link) {
		for fn != nil && fn.lit != nil && !hasDirect(fn) {
			fn = fn.outer
		}
		if fn == nil || len(chain) == maxContextDepth || !hasDirect(fn) {
			try(within(chain), true)
			return
		}
		tried := false
		for _, cs := range fn.callers {
			if !cs.direct || slices.ContainsFunc(chain, func(l link) bool { return l.cs.call == cs.call }) {
				continue // a recursive call adds no context
			}
			tried = true
			next := append(slices.Clone(chain), link{fn, cs})
			if !try(within(next), false) {
				up(cs.in, next)
			}
		}
		if !tried {
			try(within(chain), true)
		}
	}
	up(fn, nil)
}

func hasDirect(fn *cgFunc) bool {
	return slices.ContainsFunc(fn.callers, func(cs callSite) bool { return cs.direct })
}

func (g *callGraph) eval(e ast.Expr, ctx *frame) vals { return g.evalN(e, 0, ctx) }

// evalN evaluates e — result idx of a multi-value expression — under ctx.
// A cycle is cut where it closes; what was computed inside it is not
// memoized, as it may miss the cycle's other values.
func (g *callGraph) evalN(e ast.Expr, idx int, ctx *frame) vals {
	if tv, ok := g.info.Types[e]; ok && tv.Value != nil {
		if tv.Value.Kind() == constant.String {
			return vals{{kind: vStr, s: constant.StringVal(tv.Value)}: true}
		}
		return nil
	}
	k := memoKey{e, idx, ctx}
	if v, ok := g.memo[k]; ok {
		return v
	}
	if g.busy[k] {
		g.pending[k] = true
		return nil
	}
	g.busy[k] = true
	v := g.evalExpr(e, idx, ctx)
	if len(v) == 0 && idx == 0 && isString(g.info.TypeOf(e)) {
		v = vals{{kind: vDyn}: true}
	}
	delete(g.busy, k)
	delete(g.pending, k)
	if len(g.pending) == 0 {
		g.memo[k] = v
	}
	return v
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic) // a named string type is a kind of value, not a name
	return ok && b.Info()&types.IsString != 0
}

func (g *callGraph) evalExpr(e ast.Expr, idx int, ctx *frame) vals {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return g.evalN(x.X, idx, ctx)
	case *ast.BinaryExpr:
		// A string built on a constant is named by that constant.
		var out vals
		if x.Op == token.ADD && isString(g.info.TypeOf(x)) {
			for v := range g.eval(x.X, ctx) {
				if v.kind == vStr || v.kind == vPrefix {
					out = out.add(vals{{kind: vPrefix, s: v.s}: true})
				}
			}
		}
		return out
	case *ast.StarExpr:
		return g.eval(x.X, ctx)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return g.eval(x.X, ctx)
		}
	case *ast.TypeAssertExpr:
		if idx == 0 {
			return g.eval(x.X, ctx)
		}
	case *ast.IndexExpr:
		if idx == 0 {
			return g.eval(x.X, ctx)
		}
	case *ast.IndexListExpr:
		return g.eval(x.X, ctx)
	case *ast.SliceExpr:
		return g.eval(x.X, ctx)
	case *ast.FuncLit:
		return vals{{kind: vFunc, fn: g.lits[x]}: true}
	case *ast.CompositeLit:
		if named := namedOf(g.info.TypeOf(x)); named != nil && g.key(named.Obj()) == "svcutil.Stack" {
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok && kv.Key.(*ast.Ident).Name == "Prefix" {
					var out vals
					for _, s := range g.eval(kv.Value, ctx).strs(vStr) {
						out = out.add(vals{{kind: vStack, s: s}: true})
					}
					return out
				}
			}
			return vals{{kind: vStack}: true}
		}
		if _, ok := deref(g.info.TypeOf(x)).Underlying().(*types.Struct); ok {
			// A struct's values live in its fields, but a typed client is the
			// tier its caller or router reaches, a ReadPath the tier of its
			// cache, and a Doc what it holds.
			named := namedOf(g.info.TypeOf(x))
			switch {
			case named != nil && g.key(named.Obj()) == "svcutil.ReadPath":
				for _, elt := range x.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok && kv.Key.(*ast.Ident).Name == "MC" {
						return g.eval(kv.Value, ctx)
					}
				}
				return nil
			case named != nil && g.isDoc(named):
				out := vals{{kind: vItem}: true}
				for _, elt := range x.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						out = out.add(g.docItems(kv.Key.(*ast.Ident).Name, nil, kv.Value, ctx))
					}
				}
				return out
			case named == nil || !g.clients[named.Obj()]:
				return nil
			}
			var out vals
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				out = out.add(g.eval(elt, ctx))
			}
			return out
		}
		var out vals
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			out = out.add(g.eval(elt, ctx))
		}
		return out
	case *ast.Ident:
		obj := g.info.Uses[x]
		if obj == nil {
			obj = g.info.Defs[x]
		}
		return g.evalObj(obj, ctx)
	case *ast.SelectorExpr:
		sel := g.info.Selections[x]
		if sel == nil {
			return g.evalObj(g.info.Uses[x.Sel], ctx)
		}
		switch sel.Kind() {
		case types.FieldVal:
			return g.evalField(origin(sel.Obj()))
		case types.MethodVal:
			if fn := g.funcs[sel.Obj().(*types.Func).Origin()]; fn != nil {
				return vals{{kind: vFunc, fn: fn, recv: x.X, rctx: ctx}: true}
			}
		}
	case *ast.CallExpr:
		return g.evalCall(x, idx, ctx)
	}
	return nil
}

func (g *callGraph) evalObj(obj types.Object, ctx *frame) vals {
	switch o := obj.(type) {
	case *types.Func:
		if fn := g.funcs[o.Origin()]; fn != nil {
			return vals{{kind: vFunc, fn: fn}: true}
		}
	case *types.Var:
		o = o.Origin()
		if o.IsField() {
			return g.evalField(o)
		}
		var out vals
		if p, ok := g.params[o]; ok {
			out = g.evalParam(p, ctx)
		}
		for _, a := range g.assigns[o] {
			out = out.add(g.evalN(a.rhs, a.index, ctx))
		}
		for _, d := range g.docSets[o] {
			out = out.add(g.docItems(d.field, d.key, d.rhs, ctx))
		}
		return out
	}
	return nil
}

// evalField is every value any code stores in the field.
func (g *callGraph) evalField(f types.Object) vals {
	var out vals
	for _, a := range g.assigns[f] {
		out = out.add(g.evalN(a.rhs, a.index, nil))
	}
	return out
}

// evalParam reads a parameter from the nearest frame that binds it, or else
// from every caller, and a registration function's server from the tiers it
// is started as.
func (g *callGraph) evalParam(p paramRef, ctx *frame) vals {
	var out vals
	if p.index == 0 {
		out = out.add(g.bind[p.fn])
	}
	if plumbing[g.pkgOf(p.fn)] { // the RPC surface forwards whatever its callers name
		return out
	}
	for f := ctx; f != nil; f = f.parent {
		if f.fn == p.fn {
			return out.add(g.evalArg(p, f.call, f.recv, f.rctx, f.parent))
		}
	}
	for _, cs := range p.fn.callers {
		out = out.add(g.evalArg(p, cs.call, cs.recv, cs.rctx, nil))
	}
	return out
}

func (g *callGraph) evalArg(p paramRef, call *ast.CallExpr, recv ast.Expr, rctx, argctx *frame) vals {
	if p.index < 0 {
		if recv == nil {
			return nil
		}
		return g.eval(recv, rctx)
	}
	sig, args := p.fn.sig, call.Args
	if sig.Variadic() && p.index == sig.Params().Len()-1 && !call.Ellipsis.IsValid() {
		var out vals
		for _, a := range args[min(p.index, len(args)):] {
			out = out.add(g.eval(a, argctx))
		}
		return out
	}
	if p.index < len(args) {
		return g.eval(args[p.index], argctx)
	}
	return nil
}

// evalCall is result idx of a call: a client a Stack or an App builds is the
// tier it names; a module function's result is what its returns evaluate
// to, under a frame for this call.
func (g *callGraph) evalCall(call *ast.CallExpr, idx int, ctx *frame) vals {
	if g.info.Types[call.Fun].IsType() {
		return g.eval(call.Args[0], ctx)
	}
	if b, ok := g.objOf(call.Fun).(*types.Builtin); ok {
		var out vals
		if b.Name() == "append" {
			for _, a := range call.Args {
				out = out.add(g.eval(a, ctx))
			}
		}
		return out
	}
	var out vals
	for _, c := range g.callees(call, ctx) {
		switch g.key(c.obj) {
		case "fmt.Sprintf": // a name built from a constant format stands for all of them
			if tv := g.info.Types[call.Args[0]]; tv.Value != nil && idx == 0 {
				out = out.add(vals{{kind: vStr, s: constant.StringVal(tv.Value)}: true})
			}
		case "svcutil.Stack.Caller", "svcutil.Stack.DB", "svcutil.Stack.KV", "svcutil.Stack.MQ", "svcutil.Stack.Router":
			if idx == 0 {
				for _, pre := range g.eval(c.recv, c.rctx).strs(vStack) {
					for _, name := range g.eval(call.Args[1], ctx).strs(vStr) {
						out = out.add(vals{{kind: vTier, s: pre + name}: true})
					}
				}
			}
		case "svcutil.Stack.Name": // a tier's service name: the Stack's prefix and the constant
			if idx == 0 {
				for _, pre := range g.eval(c.recv, c.rctx).strs(vStack) {
					for _, name := range g.eval(call.Args[0], ctx).strs(vStr) {
						out = out.add(vals{{kind: vStr, s: pre + name}: true})
					}
				}
			}
		case "rpc.NewServer":
			if idx == 0 {
				out = out.add(g.tiersNamed(call.Args[0], ctx))
			}
		case "rpc.NewClient", "rest.NewClient":
			if idx == 0 {
				out = out.add(g.tiersNamed(call.Args[1], ctx))
			}
		case "shard.Router.Route", "shard.Router.Scatter": // replica sets of the router's tier
			out = out.add(g.eval(c.recv, c.rctx))
		case "svcutil.DB.Get", "svcutil.DB.Find": // the documents a store read returns
			if idx == 0 {
				for _, t := range orAny(g.eval(c.recv, c.rctx).strs(vTier)) {
					for _, coll := range patterns(g.eval(call.Args[1], ctx)) {
						out = out.add(vals{{kind: vDoc, s: t + "\x00" + coll}: true})
					}
				}
			}
		case "core.App.RPC", "core.App.ShardedRPC", "core.App.REST":
			if idx == 0 {
				for _, name := range g.eval(call.Args[1], ctx).strs(vStr) {
					out = out.add(vals{{kind: vTier, s: name}: true})
				}
			}
		default:
			if c.fn == nil || !c.fn.hasBody {
				continue
			}
			if g.pkgOf(c.fn) == "codec" { // a value decoded off the wire is no constant
				out = out.add(vals{{kind: vDyn}: true})
				continue
			}
			fr := g.frame(c.fn, call, c.recv, c.rctx, ctx)
			results := c.fn.sig.Results()
			for _, ret := range c.fn.returns {
				switch {
				case len(ret.Results) == 0 && idx < results.Len():
					out = out.add(g.evalObj(results.At(idx), fr))
				case len(ret.Results) == 1 && results.Len() > 1:
					out = out.add(g.evalN(ret.Results[0], idx, fr))
				case idx < len(ret.Results):
					out = out.add(g.eval(ret.Results[idx], fr))
				}
			}
		}
	}
	return out
}

// tiersNamed is the tiers e names.
func (g *callGraph) tiersNamed(e ast.Expr, ctx *frame) vals {
	var out vals
	for _, name := range g.eval(e, ctx).strs(vStr) {
		out = out.add(vals{{kind: vTier, s: name}: true})
	}
	return out
}

// funcsOf are the functions v holds; returned, the functions they return.
func (g *callGraph) funcsOf(v vals, returned bool) []*cgFunc {
	var out []*cgFunc
	for x := range v {
		if x.kind != vFunc {
			continue
		}
		if !returned {
			out = append(out, x.fn)
			continue
		}
		for _, ret := range x.fn.returns {
			if len(ret.Results) > 0 {
				out = append(out, g.funcsOf(g.eval(ret.Results[0], nil), false)...)
			}
		}
	}
	return out
}

// startTiers reads the wiring: every call that starts a tier under a
// constant name binds the server parameter of the function that registers
// its handlers to that name. The store, cache and broker tiers a Stack
// starts register docstore's, kv's and mq's RegisterService.
func (g *callGraph) startTiers(c *cgCensus) {
	for _, fn := range g.all() {
		if pkg := g.pkgOf(fn); plumbing[pkg] || pkg == "svcutil" { // their starts are their callers'
			continue
		}
		for _, call := range fn.calls {
			for _, ce := range g.callees(call, nil) {
				args := call.Args
				names := func(i int) []string { return g.eval(args[i], nil).strs(vStr) }
				prefixed := func(names []string) []string {
					var out []string
					for _, pre := range g.eval(ce.recv, ce.rctx).strs(vStack) {
						for _, n := range names {
							out = append(out, pre+n)
						}
					}
					return out
				}
				var tiers []string
				var regs []*cgFunc
				service := func(key string) []*cgFunc {
					if r := g.byKey[key]; r != nil {
						return []*cgFunc{r}
					}
					return nil
				}
				switch g.key(ce.obj) {
				case "svcutil.Stack.Start":
					tiers, regs = prefixed(names(0)), g.funcsOf(g.eval(args[1], nil), false)
				case "svcutil.Stack.StartStores":
					for i := range args {
						tiers = append(tiers, prefixed(names(i))...)
					}
					regs = service("docstore.RegisterService")
				case "svcutil.Stack.StartCaches":
					for i := range args {
						tiers = append(tiers, prefixed(names(i))...)
					}
					regs = service("kv.RegisterService")
				case "svcutil.Stack.StartBroker":
					tiers, regs = prefixed(names(0)), service("mq.RegisterService")
				case "core.App.StartRPC", "core.App.StartREST", "core.App.Define":
					tiers, regs = names(0), g.funcsOf(g.eval(args[1], nil), false)
				case "core.App.StartRPCShard":
					tiers, regs = names(0), g.funcsOf(g.eval(args[2], nil), false)
				case "svcutil.StartShardReplicas":
					tiers, regs = names(1), g.funcsOf(g.eval(args[4], nil), true)
				case "rpc.NewServer":
					tiers = names(0)
				case "svcutil.Stack.Caller", "svcutil.Stack.DB", "svcutil.Stack.KV", "svcutil.Stack.MQ", "svcutil.Stack.Router":
					for _, from := range prefixed(names(0)) {
						for _, to := range prefixed(names(1)) {
							c.edges[from+" → "+to] = true
						}
					}
				}
				for _, t := range tiers {
					if _, ok := c.tiers[t]; !ok {
						c.tiers[t] = g.pos(call)
					}
					for _, r := range regs {
						g.bind[r] = g.bind[r].add(vals{{kind: vTier, s: t}: true})
					}
				}
			}
		}
	}
	g.reset()
}

func (g *callGraph) pos(n ast.Node) string {
	pos := g.p.fset.Position(n.Pos())
	if rel, err := filepath.Rel(g.p.root, pos.Filename); err == nil {
		pos.Filename = rel
	}
	return pos.String()
}

// rawMethod is the method expression of a raw client call — Call,
// CallOneWay and Stream name it, Invoke takes it from the AcquireCall its
// call descriptor came from — or nil.
func (g *callGraph) rawMethod(call *ast.CallExpr, m *types.Func) ast.Expr {
	switch m.Name() {
	case "Call", "CallOneWay", "Stream":
		if len(call.Args) > 1 {
			return call.Args[1]
		}
	case "Invoke":
		id, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
		if !ok {
			return nil
		}
		for _, a := range g.assigns[origin(g.info.Uses[id])] {
			if ac, ok := a.rhs.(*ast.CallExpr); ok && g.key(g.objOf(ac.Fun)) == "transport.AcquireCall" {
				return ac.Args[1]
			}
		}
	}
	return nil
}

// isRaw reports whether m is a raw client method: Call, CallOneWay, Stream
// or Invoke on a Caller, a client or a router.
func (g *callGraph) isRaw(m *types.Func) bool {
	switch m.Name() {
	case "Call", "CallOneWay", "Stream", "Invoke":
	default:
		return false
	}
	pkg, _ := strings.CutPrefix(m.Pkg().Path(), g.p.module+"/internal/")
	return plumbing[pkg] || pkg == "svcutil"
}

// clientOf reports the typed client a method call goes through.
func (g *callGraph) clientOf(m *types.Func) *types.TypeName {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	named := namedOf(recv.Type())
	if named == nil || !g.clients[named.Obj()] && named.Obj() != g.bus {
		return nil
	}
	return named.Obj()
}

// issuedBy is every method a typed-client method's body asks its tier for,
// through the helpers it calls in its own package: its parameters are bound
// as it binds them, so a helper handed the method name issues that name
// only. The bodies walked are the client's own; their calls count at the
// typed call, not as sites of their own. A call through mq.Bus issues what
// every implementation's method of that name issues.
func (g *callGraph) issuedBy(tn *types.TypeName, name string) vals {
	if tn == g.bus {
		var out vals
		for impl := range g.clients {
			if impl.Pkg() == g.bus.Pkg() {
				out = out.add(g.issuedBy(impl, name))
			}
		}
		return out
	}
	obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), name)
	m, ok := obj.(*types.Func)
	if !ok || g.funcs[m] == nil {
		return nil
	}
	root := g.funcs[m]
	if v, ok := g.issued[root]; ok {
		return v
	}
	var out vals
	onStack := map[*cgFunc]bool{}
	var walk func(fn *cgFunc, ctx *frame)
	walk = func(fn *cgFunc, ctx *frame) {
		onStack[fn] = true
		g.internal[fn] = true
		for _, call := range fn.calls {
			for _, c := range g.staticCallees(call) {
				if c.obj != nil && g.isRaw(c.obj) && g.clientOf(c.obj) == nil {
					if me := g.rawMethod(call, c.obj); me != nil {
						out = out.add(g.eval(me, ctx))
					}
				}
				if c.fn != nil && c.fn.hasBody && c.fn.pkg == root.pkg && !onStack[c.fn] {
					walk(c.fn, g.frame(c.fn, call, c.recv, ctx, ctx))
				}
			}
		}
		for _, n := range fn.nested {
			walk(n, ctx)
		}
		delete(onStack, fn)
	}
	walk(root, nil)
	g.issued[root] = out
	return out
}

// cgHandler is one handler registration: the method it serves on each tier
// its server is started as.
type cgHandler struct {
	pos, pkg, method string
	tiers            map[string]bool
	req, resp        types.Type // nil for a raw or stream handler
	reached          bool
}

// key names a handler in uncalled: tier.method when an app's own code
// registers it on one tier, else its package and method.
func (h *cgHandler) key() string {
	if strings.HasPrefix(h.pkg, "services/") && h.pkg != "services/accounts" && len(h.tiers) == 1 {
		for t := range h.tiers {
			return t + "." + h.method
		}
	}
	return h.pkg[strings.LastIndex(h.pkg, "/")+1:] + "." + h.method
}

// cgSite is one client call: the (tier, method) pairs it asks for, over
// every calling context, and what it asks where a context leaves its
// target or its method unresolved.
type cgSite struct {
	pos      string
	services bool
	calls    map[[2]string]bool
	noTier   bool            // some context resolves no target
	noMethod bool            // some context resolves no method
	methods  map[string]bool // asked of an unresolved target
	tiers    map[string]bool // asked an unresolved method
}

type cgCensus struct {
	g        *callGraph
	tiers    map[string]string // tier → where it is started
	edges    map[string]bool   // "from → to" from the wiring's constant client names
	handlers []*cgHandler
	sites    []*cgSite

	written    map[stateItem]string // state code under internal/services writes → where first
	read       map[stateItem]bool   // what non-test code reads, as patterns
	stateBad   []string             // writes the pass cannot place
	unfollowed []string             // Doc reads from no store read the pass can follow
}

func callGraphCensus(p *program) *cgCensus {
	g := newCallGraph(p)
	c := &cgCensus{g: g, tiers: map[string]string{}, edges: map[string]bool{}, written: map[stateItem]string{}, read: map[stateItem]bool{}}
	g.startTiers(c)
	for tn := range g.clients {
		for i := range tn.Type().(*types.Named).NumMethods() {
			g.issuedBy(tn, tn.Type().(*types.Named).Method(i).Name())
		}
	}
	handlers := map[string]*cgHandler{}
	for _, fn := range g.all() {
		pkg := g.pkgOf(fn)
		if plumbing[pkg] || g.internal[fn] {
			continue
		}
		for _, call := range fn.calls {
			for _, ce := range g.staticCallees(call) {
				g.register(c, handlers, fn, pkg, call, ce)
				g.site(c, fn, pkg, call, ce)
				if !stores[pkg] {
					g.state(c, fn, pkg, call, ce)
				}
			}
		}
		if !stores[pkg] {
			for _, r := range fn.reads {
				g.docRead(c, fn, r)
			}
		}
	}
	for _, k := range slices.Sorted(maps.Keys(handlers)) {
		c.handlers = append(c.handlers, handlers[k])
	}
	c.reach()
	return c
}

// register records a handler registration written in fn, if call is one.
func (g *callGraph) register(c *cgCensus, handlers map[string]*cgHandler, fn *cgFunc, pkg string, call *ast.CallExpr, ce callee) {
	if ce.obj == nil || pkg == "svcutil" { // svcutil's own Handle/Relay bodies register their callers' handlers
		return
	}
	var srv, method ast.Expr
	var req, resp types.Type
	signature := func(e ast.Expr) *types.Signature {
		sig, _ := g.info.TypeOf(e).Underlying().(*types.Signature)
		return sig
	}
	switch g.key(ce.obj) {
	case "svcutil.Handle":
		srv, method = call.Args[0], call.Args[1]
		if sig := signature(call.Args[2]); sig != nil {
			req, resp = deref(sig.Params().At(1).Type()), deref(sig.Results().At(0).Type())
		}
	case "rpc.HandleTyped":
		srv, method = call.Args[0], call.Args[1]
		if sig := signature(call.Args[2]); sig != nil {
			req = deref(sig.Params().At(1).Type())
		}
		if lit, ok := call.Args[2].(*ast.FuncLit); ok {
			for _, inner := range g.lits[lit].calls {
				if sel, ok := ast.Unparen(inner.Fun).(*ast.SelectorExpr); ok && g.key(g.info.Uses[sel.Sel]) == "rpc.Ctx.Reply" {
					resp = deref(g.info.TypeOf(inner.Args[0]))
				}
			}
		}
	case "rpc.Server.Handle", "rpc.Server.HandleStream":
		srv, method = ce.recv, call.Args[0]
	case "svcutil.Relay":
		srv, method = call.Args[0], call.Args[1]
	default:
		return
	}
	g.eachContext(fn, func(ctx *frame, last bool) bool {
		methods, tiers := g.eval(method, ctx).strs(vStr), g.eval(srv, ctx).strs(vTier)
		if !last && (len(methods) == 0 || len(tiers) == 0) {
			return false
		}
		for _, m := range methods {
			k := g.pos(call) + " " + m
			h := handlers[k]
			if h == nil {
				h = &cgHandler{pos: g.pos(call), pkg: pkg, method: m, tiers: map[string]bool{}, req: req, resp: resp}
				handlers[k] = h
			}
			for _, t := range tiers {
				h.tiers[t] = true
			}
		}
		return true
	})
}

// site records a client call written in fn, if call is one.
func (g *callGraph) site(c *cgCensus, fn *cgFunc, pkg string, call *ast.CallExpr, ce callee) {
	if ce.obj == nil {
		return
	}
	var target, method ast.Expr
	var issued vals
	switch k := g.key(ce.obj); {
	case k == "svcutil.CallBounded":
		target, method = call.Args[1], call.Args[2]
	case k == "rest.Forward":
		target, method = call.Args[0], call.Args[1]
	case k == "svcutil.Relay":
		target, method = call.Args[2], call.Args[3]
	case g.clientOf(ce.obj) != nil:
		target, issued = ce.recv, g.issuedBy(g.clientOf(ce.obj), ce.obj.Name())
	case g.isRaw(ce.obj) && pkg != "svcutil": // svcutil's raw calls are Relay's and CallBounded's, counted where they are called
		target, method = ce.recv, g.rawMethod(call, ce.obj)
	default:
		return
	}
	s := &cgSite{pos: g.pos(call), services: strings.HasPrefix(pkg, "services/"),
		calls: map[[2]string]bool{}, tiers: map[string]bool{}, methods: map[string]bool{}}
	g.eachContext(fn, func(ctx *frame, last bool) bool {
		tiers := g.eval(target, ctx).strs(vTier)
		methods := issued.strs(vStr)
		if method != nil {
			methods = g.eval(method, ctx).strs(vStr)
		}
		if !last && (len(tiers) == 0 || len(methods) == 0) {
			return false
		}
		switch {
		case len(tiers) == 0 && len(methods) == 0:
			s.noTier, s.noMethod = true, true
		case len(tiers) == 0:
			s.noTier = true
			for _, m := range methods {
				s.methods[m] = true
			}
		case len(methods) == 0:
			s.noMethod = true
			for _, t := range tiers {
				s.tiers[t] = true
			}
		}
		for _, t := range tiers {
			for _, m := range methods {
				s.calls[[2]string{t, m}] = true
			}
		}
		return true
	})
	c.sites = append(c.sites, s)
}

// reach marks every handler some non-test call reaches. A site outside
// internal/services whose target is unresolved counts as a call of its
// methods on every tier, and one whose method is unresolved as a call of
// every method on its tiers: an unresolved site can only keep a handler.
func (c *cgCensus) reach() {
	called := map[string]bool{}
	anyTier, anyMethod, all := map[string]bool{}, map[string]bool{}, false
	for _, s := range c.sites {
		if s.services && (s.noTier || s.noMethod) {
			continue
		}
		all = all || s.noTier && s.noMethod && len(s.methods)+len(s.tiers) == 0
		maps.Copy(anyTier, s.methods)
		maps.Copy(anyMethod, s.tiers)
		for tm := range s.calls {
			called[tm[0]+" "+tm[1]] = true
		}
	}
	for _, h := range c.handlers {
		h.reached = all || anyTier[h.method]
		for t := range h.tiers {
			h.reached = h.reached || anyMethod[t] || called[t+" "+h.method]
		}
	}
}

// defects are the census's failures, given the allowlist of handlers no
// call reaches.
func (c *cgCensus) defects(allowed map[string]string) []string {
	var out []string
	// A handler registered on a server the pass cannot name (a server hook
	// installs controlplane's load report on every replica) may serve its
	// method on any tier.
	served, anywhere, found := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, h := range c.handlers {
		for t := range h.tiers {
			served[t+" "+h.method] = true
		}
		anywhere[h.method] = anywhere[h.method] || len(h.tiers) == 0
		inScope := strings.HasPrefix(h.pkg, "services/") || h.pkg == "docstore" || h.pkg == "kv" || h.pkg == "mq"
		if h.reached || !inScope {
			continue
		}
		found[h.key()] = true
		if reason, ok := allowed[h.key()]; !ok {
			out = append(out, fmt.Sprintf("%s: %s: handler no non-test call reaches", h.pos, h.key()))
		} else if reason == "" {
			out = append(out, fmt.Sprintf("uncalled[%q] has no reason", h.key()))
		}
	}
	for key := range allowed {
		if !found[key] {
			out = append(out, fmt.Sprintf("uncalled[%q] is stale: the census finds it called or gone; delete the entry", key))
		}
	}
	for _, s := range c.sites {
		if s.noTier || s.noMethod {
			if s.services {
				what := "target"
				if !s.noTier {
					what = "method"
				} else if s.noMethod {
					what = "target or method"
				}
				out = append(out, fmt.Sprintf("%s: call site under internal/services with no constant %s", s.pos, what))
			}
			continue
		}
		for _, tm := range slices.SortedFunc(maps.Keys(s.calls), func(a, b [2]string) int { return strings.Compare(a[0]+" "+a[1], b[0]+" "+b[1]) }) {
			t, m := tm[0], tm[1]
			if _, started := c.tiers[t]; !started {
				if s.services {
					out = append(out, fmt.Sprintf("%s: calls tier %s, which nothing starts", s.pos, t))
				}
			} else if !served[t+" "+m] && !anywhere[m] {
				out = append(out, fmt.Sprintf("%s: calls %s.%s, which %s does not serve", s.pos, t, m, t))
			}
		}
	}
	slices.Sort(out)
	return out
}

// log prints, per app, the tiers, the edges the wiring names and the
// handler wire types with no generated codec; then the call sites outside
// internal/services that count on every tier.
func (c *cgCensus) log(t *testing.T) {
	app := func(tier string) string { return tier[:strings.IndexByte(tier+".", '.')] }
	var message *types.Interface
	for _, obj := range c.g.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && c.g.key(tn) == "codec.Message" {
			message = tn.Type().Underlying().(*types.Interface)
		}
	}
	apps, total := map[string]bool{}, map[string]bool{}
	for tier := range c.tiers {
		apps[app(tier)] = true
	}
	for _, a := range slices.Sorted(maps.Keys(apps)) {
		var tiers, edges []string
		for tier := range c.tiers {
			if app(tier) == a {
				tiers = append(tiers, tier)
			}
		}
		for e := range c.edges {
			if app(e) == a {
				edges = append(edges, e)
			}
		}
		slices.Sort(tiers)
		slices.Sort(edges)
		handlers, uncodec := 0, map[string]bool{}
		for _, h := range c.handlers {
			mine := false
			for tier := range h.tiers {
				mine = mine || app(tier) == a
			}
			if !mine || !strings.HasPrefix(h.pkg, "services/") {
				continue
			}
			handlers++
			for _, typ := range []types.Type{h.req, h.resp} {
				if typ != nil && message != nil && !types.Implements(types.NewPointer(typ), message) {
					uncodec[types.TypeString(typ, func(p *types.Package) string { return p.Name() })] = true
				}
			}
		}
		if handlers == 0 { // a benchmark's or an experiment's own tiers
			continue
		}
		for typ := range uncodec {
			total[typ] = true
		}
		t.Logf("app %s: %d tiers, %d edges, %d handlers", a, len(tiers), len(edges), handlers)
		t.Logf("  tiers: %s", strings.Join(tiers, " "))
		for _, e := range edges {
			t.Logf("  edge %s", e)
		}
		var state []stateItem
		for w := range c.written {
			if app(w.tier) == a {
				state = append(state, w)
			}
		}
		slices.SortFunc(state, func(x, y stateItem) int { return strings.Compare(x.String(), y.String()) })
		for _, w := range state {
			status := "read"
			if !c.readBy(w) {
				status = "UNREAD"
			}
			t.Logf("  state %s: %s", w, status)
		}
		t.Logf("  %d handler wire types with no generated codec: %s", len(uncodec), strings.Join(slices.Sorted(maps.Keys(uncodec)), " "))
	}
	t.Logf("handler wire types with no generated codec, all apps: %d", len(total))
	for _, pos := range slices.Sorted(slices.Values(c.unfollowed)) {
		t.Logf("%s: a Doc read from no store read the census follows, counted on every tier", pos)
	}
	for _, s := range c.sites {
		if !s.services && (s.noTier || s.noMethod) {
			t.Logf("%s: unresolved outside internal/services, counted on every tier: tiers %v methods %v", s.pos, slices.Sorted(maps.Keys(s.tiers)), slices.Sorted(maps.Keys(s.methods)))
		}
	}
}

// patterns turns the values of a name — a collection, a field, a cache key,
// a topic — into the names it can be: a constant, a constant prefix
// ("tag-*": a string built on "tag-", or a constant format up to its first
// verb), or "*" where some value is no constant.
func patterns(v vals) []string {
	var out []string
	dyn := len(v) == 0
	for x := range v {
		switch x.kind {
		case vStr:
			if i := strings.IndexByte(x.s, '%'); i >= 0 {
				out = append(out, x.s[:i]+"*")
			} else {
				out = append(out, x.s)
			}
		case vPrefix:
			out = append(out, x.s+"*")
		default:
			dyn = true
		}
	}
	if dyn {
		out = append(out, "*")
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// orAny is names, or "*" — any — when there are none.
func orAny(names []string) []string {
	if len(names) == 0 {
		return []string{"*"}
	}
	return names
}

// overlap reports whether two name patterns can name the same thing.
func overlap(a, b string) bool {
	pa, wa := strings.CutSuffix(a, "*")
	pb, wb := strings.CutSuffix(b, "*")
	switch {
	case wa && wb:
		return strings.HasPrefix(pa, pb) || strings.HasPrefix(pb, pa)
	case wa:
		return strings.HasPrefix(b, pa)
	case wb:
		return strings.HasPrefix(a, pb)
	}
	return a == b
}

// docItems is what setting a Doc's field writes: "Body", or each key its
// Fields or Nums map can hold — key names it when one key is set, else the
// map's keys are read off value.
func (g *callGraph) docItems(field string, key, value ast.Expr, ctx *frame) vals {
	var names []string
	switch {
	case field == "Body":
		names = []string{""}
	case field != "Fields" && field != "Nums":
		return nil
	case key != nil:
		names = patterns(g.eval(key, ctx))
	default:
		names = g.mapKeys(value, ctx, 0)
	}
	var out vals
	for _, n := range names {
		out = out.add(vals{{kind: vItem, s: field + "\x00" + n}: true})
	}
	return out
}

// mapKeys is the keys a map expression can hold: a literal's, or a local
// map's over its literals and its m[k] = v writes. A map from anywhere else
// holds any key.
func (g *callGraph) mapKeys(e ast.Expr, ctx *frame, depth int) []string {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		var out []string
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				out = append(out, patterns(g.eval(kv.Key, ctx))...)
			}
		}
		return out
	case *ast.Ident:
		if x.Name == "nil" {
			return nil
		}
		obj := g.info.Uses[x]
		if v, ok := obj.(*types.Var); ok && !v.IsField() && depth < 4 {
			if _, param := g.params[v]; !param {
				var out []string
				for _, a := range g.assigns[v] {
					if !g.elems[a.rhs] {
						out = append(out, g.mapKeys(a.rhs, ctx, depth+1)...)
					}
				}
				for _, k := range g.keyed[v] {
					out = append(out, patterns(g.eval(k, ctx))...)
				}
				return out
			}
		}
	}
	return []string{"*"}
}

// stateItem is one piece of state a tier keeps: a stored document's field,
// number or body in one collection (kind "Fields", "Nums", "Body"), a cache
// key (kind "key") or a broker topic (kind "topic"). A read names its tier,
// collection and name as patterns: "*" is any.
type stateItem struct{ tier, coll, kind, name string }

// String names an item as unread keys it.
func (s stateItem) String() string {
	switch s.kind {
	case "key", "topic":
		return s.tier + " " + s.kind + " " + s.name
	case "Body":
		return s.tier + "/" + s.coll + " Body"
	}
	return fmt.Sprintf("%s/%s %s[%s]", s.tier, s.coll, s.kind, s.name)
}

// state records what a store, cache or broker call written in fn writes and
// reads: Put writes what its Doc holds, AddNum a number, ListPrepend a body,
// Set and Incr a key, Publish a topic; Find reads a field, Get, MGet and a
// ReadPath's Get a key, Consume, Push and Serve a topic, and AddNum, Incr and
// ListPrepend read what they return — the sum, the count, the list's length
// or whether a unique prepend found its value — when something takes it. Only code under
// internal/services counts as a writer; every non-test package reads.
func (g *callGraph) state(c *cgCensus, fn *cgFunc, pkg string, call *ast.CallExpr, ce callee) {
	if ce.obj == nil {
		return
	}
	arg := func(i int) ast.Expr { return call.Args[min(i, len(call.Args)-1)] }
	tier, kind := ce.recv, ""
	var coll, name, doc ast.Expr
	var write, read bool
	switch k := g.key(ce.obj); k {
	case "svcutil.DB.Put":
		coll, doc, write = arg(1), arg(2), true
	case "svcutil.DB.AddNum":
		coll, kind, name, write, read = arg(1), "Nums", arg(3), true, !g.unused[call]
	case "svcutil.DB.ListPrepend", "svcutil.DB.ListPrependUnique":
		coll, kind, write, read = arg(1), "Body", true, !g.unused[call]
	case "svcutil.DB.Find":
		coll, kind, name, read = arg(1), "Fields", arg(2), true
	case "svcutil.KV.Set":
		kind, name, write = "key", arg(1), true
	case "svcutil.KV.Incr":
		kind, name, write, read = "key", arg(1), true, !g.unused[call]
	case "svcutil.KV.Get", "svcutil.KV.MGet", "svcutil.ReadPath.Get":
		kind, name, read = "key", arg(1), true
	case "svcutil.Stack.Serve", "mq.Serve":
		tier, kind, name, read = arg(1), "topic", arg(2), true
	default:
		tn := g.clientOf(ce.obj)
		if tn == nil || g.bus == nil || tn.Pkg() != g.bus.Pkg() {
			return
		}
		switch ce.obj.Name() {
		case "Publish", "PublishKey":
			kind, name, write = "topic", arg(1), true
		case "Consume", "Push":
			kind, name, read = "topic", arg(1), true
		default:
			return
		}
	}
	write = write && strings.HasPrefix(pkg, "services/")
	if !write && !read {
		return
	}
	g.eachContext(fn, func(ctx *frame, last bool) bool {
		tiers, colls := g.eval(tier, ctx).strs(vTier), []string{""}
		if coll != nil {
			colls = patterns(g.eval(coll, ctx))
		}
		constant := len(tiers) > 0 && !slices.ContainsFunc(colls, func(c string) bool { return strings.HasSuffix(c, "*") })
		if !constant && !last {
			return false
		}
		var items []stateItem // tier and collection filled in below
		if doc != nil {
			for v := range g.eval(doc, ctx) {
				if k, n, ok := strings.Cut(v.s, "\x00"); v.kind == vItem && ok {
					items = append(items, stateItem{kind: k, name: n})
				}
			}
		} else if name != nil {
			for _, n := range patterns(g.eval(name, ctx)) {
				items = append(items, stateItem{kind: kind, name: n})
			}
		} else {
			items = []stateItem{{kind: kind}}
		}
		if write && !constant {
			c.stateBad = append(c.stateBad, fmt.Sprintf("%s: store write under internal/services with no constant tier or collection", g.pos(call)))
			write = false
		}
		for _, t := range orAny(tiers) {
			for _, cl := range colls {
				for _, it := range items {
					it.tier, it.coll = t, cl
					if _, seen := c.written[it]; write && !seen {
						c.written[it] = g.pos(call)
					}
					if read {
						c.read[it] = true
					}
				}
			}
		}
		return true
	})
}

// docRead records a read of a stored document's field written in fn: under
// each calling context, the documents r.sel.X holds are the ones the store
// reads it came from returned. A Doc this code built is no store's; one
// from nowhere the pass can follow is read on every tier.
func (g *callGraph) docRead(c *cgCensus, fn *cgFunc, r docRead) {
	g.eachContext(fn, func(ctx *frame, last bool) bool {
		var from []string
		built := false
		for v := range g.eval(r.sel.X, ctx) {
			switch v.kind {
			case vDoc:
				from = append(from, v.s)
			case vItem:
				built = true
			}
		}
		if len(from) == 0 && !last {
			return false
		}
		if len(from) == 0 {
			if built {
				return true
			}
			c.unfollowed = append(c.unfollowed, g.pos(r.sel))
			from = []string{"*\x00*"}
		}
		names := []string{""}
		if r.field != "Body" {
			names = []string{"*"} // the whole map
			if r.key != nil {
				names = patterns(g.eval(r.key, ctx))
			}
		}
		for _, f := range from {
			t, cl, _ := strings.Cut(f, "\x00")
			for _, n := range names {
				c.read[stateItem{t, cl, r.field, n}] = true
			}
		}
		return true
	})
}

// readBy reports whether some read can name w.
func (c *cgCensus) readBy(w stateItem) bool {
	for r := range c.read {
		if r.kind == w.kind && overlap(w.tier, r.tier) && overlap(w.coll, r.coll) && overlap(w.name, r.name) {
			return true
		}
	}
	return false
}

// stateDefects are the state census's failures, given the allowlist of
// state no non-test code reads.
func (c *cgCensus) stateDefects(allowed map[string]string) []string {
	out := slices.Clone(c.stateBad)
	found := map[string]bool{}
	for w, pos := range c.written {
		if c.readBy(w) {
			continue
		}
		found[w.String()] = true
		if reason, ok := allowed[w.String()]; !ok {
			out = append(out, fmt.Sprintf("%s: %s: state no non-test code reads", pos, w))
		} else if reason == "" {
			out = append(out, fmt.Sprintf("unread[%q] has no reason", w.String()))
		}
	}
	for key := range allowed {
		if !found[key] {
			out = append(out, fmt.Sprintf("unread[%q] is stale: the census finds it read or gone; delete the entry", key))
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
