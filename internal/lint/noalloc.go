package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoAlloc enforces allocation-freedom on functions whose doc comment carries
// the directive
//
//	//voyager:noalloc <optional note>
//
// Inside a marked function every Go construct that can allocate is reported:
// &composite literals and new(T), slice/map literals, make of slices, maps,
// and channels, append that may grow its backing array, interface boxing (at
// explicit conversions, call arguments, assignments, returns, and composite
// literal fields), method-value bindings, capturing closures (deferred or
// not), string<->[]byte conversions, and variadic ...interface{} calls.
//
// A call-graph rule keeps the property compositional: a noalloc function may
// only call other functions marked //voyager:noalloc in the same package, or
// entries on the audited cross-package allowlist below. Calls through
// function values (callbacks, prebound method values) are trusted — the
// closure *creation* site is what gets checked.
//
// Audited exceptions are written on the allocating line (or the line above):
//
//	//voyager:alloc-ok(<why this allocation is acceptable>)
//
// The escape hatch is itself checked: an alloc-ok with an empty reason, or
// one attached to a line where the analyzer found nothing to excuse, is
// reported as directive misuse.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc: "forbid allocating constructs in functions marked //voyager:noalloc; " +
		"audited exceptions use //voyager:alloc-ok(reason)",
	Applies: func(string) bool { return true },
	Run:     runNoAlloc,
}

// noallocDirective marks a function whose body must not allocate.
const noallocDirective = "//voyager:noalloc"

// allocOKPrefix is the per-line escape hatch; the parenthesized reason is
// mandatory.
const allocOKPrefix = "//voyager:alloc-ok"

// noallocAllowlist names the audited cross-package entry points a noalloc
// function may call. Every entry is a types.Func FullName. Keep this list
// small: each entry asserts "the callee's steady state is allocation-free
// and its own package pins that" — the engine primitives are marked
// //voyager:noalloc at their definitions, the others carry AllocsPerRun
// regression tests in internal/bench.
var noallocAllowlist = map[string]bool{
	// Engine primitives (marked //voyager:noalloc in internal/sim).
	"(*startvoyager/internal/sim.Engine).Schedule":  true,
	"(*startvoyager/internal/sim.Engine).At":        true,
	"(*startvoyager/internal/sim.Engine).Now":       true,
	"(*startvoyager/internal/sim.Engine).Observed":  true,
	"(*startvoyager/internal/sim.Resource).Acquire": true,
	"(*startvoyager/internal/sim.Resource).Release": true,
	"(*startvoyager/internal/sim.Resource).Use":     true,
	"(*startvoyager/internal/sim.Resource).Busy":    true,
	"(*startvoyager/internal/sim.Proc).Call":        true,
	"(*startvoyager/internal/sim.Proc).Delay":       true,
	"(*startvoyager/internal/sim.Proc).Inline":      true,
	"(*startvoyager/internal/sim.Proc).Now":         true,
	"(*startvoyager/internal/sim.Queue).Push":       true,
	"(*startvoyager/internal/sim.Queue).Pop":        true,
	"(*startvoyager/internal/sim.Cond).Wait":        true,
	"(*startvoyager/internal/sim.Cond).Broadcast":   true,
	// Observability hooks: no-ops without an observer; instrumented runs
	// trade allocation for visibility by design (see DESIGN.md).
	"(*startvoyager/internal/sim.Engine).BeginSpan": true,
	"(*startvoyager/internal/sim.Engine).Sample":    true,
	"(*startvoyager/internal/sim.Engine).Instant":   true,
	"startvoyager/internal/sim.Str":                 true,
	"startvoyager/internal/sim.I64":                 true,
	"startvoyager/internal/sim.Int":                 true,
	"startvoyager/internal/sim.Hex":                 true,
	"(startvoyager/internal/sim.Span).End":          true,
	"(*startvoyager/internal/sim.Engine).NewMsgID":  true,
	"(startvoyager/internal/sim.MsgTag).Traced":     true,
	// Profiler hooks: no-ops without a profiler; the internal/prof
	// implementations are //voyager:noalloc with an AllocsPerRun pin
	// (interface dispatch cannot be checked statically).
	"(*startvoyager/internal/sim.Engine).ProfPush":        true,
	"(*startvoyager/internal/sim.Engine).ProfPop":         true,
	"(startvoyager/internal/sim.ProcProfiler).ProcResume": true,
	"(startvoyager/internal/sim.ProcProfiler).ProcBlock":  true,
	"(startvoyager/internal/sim.ProcProfiler).FramePush":  true,
	"(startvoyager/internal/sim.ProcProfiler).FramePop":   true,
	// Cache/bus fast paths (pinned by TestBasicMsgChainAllocs).
	"(*startvoyager/internal/cache.Cache).Load":          true,
	"(*startvoyager/internal/cache.Cache).Store":         true,
	"(*startvoyager/internal/cache.Cache).LoadUncached":  true,
	"(*startvoyager/internal/cache.Cache).StoreUncached": true,
	"(*startvoyager/internal/cache.Cache).Flush":         true,
	"(*startvoyager/internal/bus.Bus).Engine":            true,
	"(*startvoyager/internal/bus.Bus).Issue":             true,
	"(*startvoyager/internal/bus.Bus).IssueP":            true,
	"(startvoyager/internal/bus.Range).Offset":           true,
	"(startvoyager/internal/bus.Kind).IsRead":            true,
	// Stats sinks: pure counter/bucket increments on preallocated arrays.
	"(*startvoyager/internal/stats.Histogram).Observe":     true,
	"(*startvoyager/internal/stats.Histogram).ObserveTime": true,
	"(*startvoyager/internal/stats.Meter).Start":           true,
	"(*startvoyager/internal/stats.Meter).Stop":            true,
	// Traced-message diagnostics: no-ops unless the message carries a trace
	// tag; traced runs allocate event fields by design (see DESIGN.md).
	"(*startvoyager/internal/sim.Engine).MsgInstant": true,
	// Snoop fan-out: every Device implementation's snoop path is itself
	// marked //voyager:noalloc in its own package.
	"(startvoyager/internal/bus.Device).SnoopBus": true,
	// NIU plumbing crossed by the send/recv chain (same budget tests).
	"(*startvoyager/internal/niu/ctrl.Ctrl).StageTxTag":       true,
	"(*startvoyager/internal/niu/ctrl.Ctrl).TxProducerUpdate": true,
	"(*startvoyager/internal/niu/ctrl.Ctrl).RxConsumerUpdate": true,
	"(*startvoyager/internal/niu/ctrl.Ctrl).TryReceive":       true,
	"(*startvoyager/internal/niu/ctrl.Ctrl).RxTag":            true,
	"(*startvoyager/internal/niu/ctrl.Ctrl).TxProducer":       true,
	"(*startvoyager/internal/niu/ctrl.Ctrl).TxConsumer":       true,
	"(*startvoyager/internal/niu/ctrl.Ctrl).RxProducer":       true,
	"(*startvoyager/internal/niu/ctrl.Ctrl).RxConsumer":       true,
	"(*startvoyager/internal/niu/ctrl.Ctrl).TxShutdown":       true,
	"startvoyager/internal/niu/ctrl.SlotOffset":               true,
	"startvoyager/internal/niu/txrx.EncodeInto":               true,
	"startvoyager/internal/niu/txrx.DecodeInto":               true,
	// Fabric delivery boundary, crossed by the fat tree's hop path: the
	// Endpoint implementations are pinned by TestHopPathAllocs
	// (internal/arctic) and TestBasicMsgChainAllocs, DropOnDelivery by
	// TestDropOnDeliveryAllocs (internal/fault).
	"(startvoyager/internal/arctic.Endpoint).TryDeliver":     true,
	"(*startvoyager/internal/fault.Injector).DropOnDelivery": true,
	// NIU interface ports: implementations are audited by the same budget
	// tests (interface dispatch cannot be checked statically).
	"(startvoyager/internal/niu/ctrl.NetPort).Inject":        true,
	"(startvoyager/internal/niu/ctrl.NetPort).Poke":          true,
	"(startvoyager/internal/niu/ctrl.NetPort).Ready":         true,
	"(startvoyager/internal/niu/ctrl.IntPort).RxInterrupt":   true,
	"(startvoyager/internal/niu/ctrl.IntPort).ProtViolation": true,
	"(startvoyager/internal/niu/ctrl.BusPort).IssueBusOp":    true,
	// Translation-table index arithmetic: pure integer math on the node's
	// fixed stride, marked //voyager:noalloc at the definitions.
	"(*startvoyager/internal/node.Node).TransBasicIdx":   true,
	"(*startvoyager/internal/node.Node).TransExpressIdx": true,
	"(*startvoyager/internal/node.Node).TransSvcIdx":     true,
	"(*startvoyager/internal/node.Node).TransNotifyIdx":  true,
	// Buffer memories and byte-order helpers: pure copies into caller-owned
	// storage.
	"(*startvoyager/internal/niu/sram.SRAM).Read":   true,
	"(*startvoyager/internal/niu/sram.SRAM).Write":  true,
	"(*startvoyager/internal/niu/sram.SRAM).ByteAt": true,
	"(*startvoyager/internal/niu/sram.SRAM).Slice":  true,
	"(encoding/binary.bigEndian).Uint16":            true,
	"(encoding/binary.bigEndian).Uint32":            true,
	"(encoding/binary.bigEndian).Uint64":            true,
	"(encoding/binary.bigEndian).PutUint16":         true,
	"(encoding/binary.bigEndian).PutUint32":         true,
	"(encoding/binary.bigEndian).PutUint64":         true,
	// Compiler intrinsic (a single TZCNT/BSF): the event wheel's occupancy
	// bitmap scan.
	"math/bits.TrailingZeros64": true,
}

// hasNoallocDirective reports whether the function's doc comment carries the
// noalloc directive.
func hasNoallocDirective(d *ast.FuncDecl) bool {
	if d.Doc == nil {
		return false
	}
	for _, c := range d.Doc.List {
		if c.Text == noallocDirective ||
			strings.HasPrefix(c.Text, noallocDirective+" ") {
			return true
		}
	}
	return false
}

// allocOK is one //voyager:alloc-ok directive. It excuses findings on its own
// line and the line below (same placement rule as //lint:allow).
type allocOK struct {
	pos    token.Pos
	reason string
	used   bool
}

type lineKey struct {
	file string
	line int
}

type noallocChecker struct {
	pass    *Pass
	marked  map[*types.Func]bool
	excuses map[lineKey]*allocOK
	all     []*allocOK
}

func runNoAlloc(pass *Pass) error {
	c := &noallocChecker{
		pass:    pass,
		marked:  make(map[*types.Func]bool),
		excuses: make(map[lineKey]*allocOK),
	}
	c.collectExcuses()

	var markedDecls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasNoallocDirective(fd) {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				c.marked[fn] = true
			}
			if fd.Body != nil {
				markedDecls = append(markedDecls, fd)
			}
		}
	}
	for _, fd := range markedDecls {
		c.checkFunc(fd)
	}

	// Directive misuse: an alloc-ok must carry a reason and must excuse at
	// least one finding.
	for _, ok := range c.all {
		switch {
		case ok.reason == "":
			pass.Reportf(ok.pos, "voyager:alloc-ok requires a reason: //voyager:alloc-ok(why this allocation is acceptable)")
		case !ok.used:
			pass.Reportf(ok.pos, "voyager:alloc-ok excuses nothing: no allocation reported on this line or the next")
		}
	}
	return nil
}

// collectExcuses scans file comments for //voyager:alloc-ok directives.
func (c *noallocChecker) collectExcuses() {
	for _, f := range c.pass.Files {
		for _, cg := range f.Comments {
			for _, cmt := range cg.List {
				if !strings.HasPrefix(cmt.Text, allocOKPrefix) {
					continue
				}
				rest := strings.TrimSpace(cmt.Text[len(allocOKPrefix):])
				ok := &allocOK{pos: cmt.Pos()}
				if close := strings.Index(rest, ")"); strings.HasPrefix(rest, "(") && close > 0 {
					ok.reason = strings.TrimSpace(rest[1:close])
				}
				c.all = append(c.all, ok)
				p := c.pass.Fset.Position(cmt.Pos())
				c.excuses[lineKey{p.Filename, p.Line}] = ok
				c.excuses[lineKey{p.Filename, p.Line + 1}] = ok
			}
		}
	}
}

// report files a finding unless a well-formed alloc-ok covers the line.
func (c *noallocChecker) report(pos token.Pos, format string, args ...interface{}) {
	p := c.pass.Fset.Position(pos)
	if ok := c.excuses[lineKey{p.Filename, p.Line}]; ok != nil && ok.reason != "" {
		ok.used = true
		return
	}
	c.pass.Reportf(pos, format, args...)
}

// funcDisplayName renders a FuncDecl name with its receiver type, matching
// how the allowlist and diagnostics spell methods.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	var b strings.Builder
	b.WriteByte('(')
	writeRecvType(&b, recv)
	b.WriteString(").")
	b.WriteString(fd.Name.Name)
	return b.String()
}

func writeRecvType(b *strings.Builder, e ast.Expr) {
	switch e := e.(type) {
	case *ast.StarExpr:
		b.WriteByte('*')
		writeRecvType(b, e.X)
	case *ast.Ident:
		b.WriteString(e.Name)
	case *ast.IndexExpr: // generic receiver T[P]
		writeRecvType(b, e.X)
	case *ast.IndexListExpr:
		writeRecvType(b, e.X)
	default:
		b.WriteString("?")
	}
}

// checkFunc walks one marked function body, reporting every allocating
// construct. The node stack lets checks see their parent (is this selector
// the callee of a call? is this closure deferred?) and the innermost
// function literal (whose signature governs return-statement boxing).
func (c *noallocChecker) checkFunc(fd *ast.FuncDecl) {
	name := funcDisplayName(fd)
	info := c.pass.Info
	var stack []ast.Node
	parent := func() ast.Node {
		if len(stack) < 2 {
			return nil
		}
		return stack[len(stack)-2]
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)

		switch n := n.(type) {
		case *ast.CompositeLit:
			c.checkCompositeLit(n, name, parent())
		case *ast.CallExpr:
			c.checkCall(n, name)
		case *ast.FuncLit:
			c.checkFuncLit(n, name, fd, stack)
		case *ast.SelectorExpr:
			c.checkMethodValue(n, name, parent())
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN {
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break // tuple assignment from a call: boxing happens in the callee
					}
					if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
						continue
					}
					c.checkBox(n.Rhs[i], info.TypeOf(lhs), name, "assignment")
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				t := info.TypeOf(n.Type)
				for _, v := range n.Values {
					c.checkBox(v, t, name, "declaration")
				}
			}
		case *ast.ReturnStmt:
			c.checkReturn(n, name, fd, stack)
		}
		return true
	})
}

func (c *noallocChecker) checkCompositeLit(n *ast.CompositeLit, name string, parent ast.Node) {
	info := c.pass.Info
	t := info.TypeOf(n)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		c.report(n.Pos(), "slice literal allocates in //voyager:noalloc %s", name)
	case *types.Map:
		c.report(n.Pos(), "map literal allocates in //voyager:noalloc %s", name)
	default:
		if u, ok := parent.(*ast.UnaryExpr); ok && u.Op == token.AND && u.X == n {
			c.report(u.Pos(), "&%s{} composite literal escapes to the heap in //voyager:noalloc %s",
				typeShortName(t), name)
		}
	}
	// Boxing into interface-typed fields/elements of the literal.
	c.checkLitElems(n, t, name)
}

// checkLitElems flags concrete values stored into interface-typed struct
// fields or interface-element containers within a composite literal.
func (c *noallocChecker) checkLitElems(n *ast.CompositeLit, t types.Type, name string) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i, el := range n.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				for j := 0; j < u.NumFields(); j++ {
					if u.Field(j).Name() == key.Name {
						c.checkBox(kv.Value, u.Field(j).Type(), name, "field "+key.Name)
						break
					}
				}
			} else if i < u.NumFields() {
				c.checkBox(el, u.Field(i).Type(), name, "field "+u.Field(i).Name())
			}
		}
	case *types.Slice:
		for _, el := range n.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			c.checkBox(el, u.Elem(), name, "element")
		}
	case *types.Array:
		for _, el := range n.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			c.checkBox(el, u.Elem(), name, "element")
		}
	case *types.Map:
		for _, el := range n.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				c.checkBox(kv.Value, u.Elem(), name, "value")
			}
		}
	}
}

func (c *noallocChecker) checkCall(n *ast.CallExpr, name string) {
	info := c.pass.Info
	fun := ast.Unparen(n.Fun)

	// Conversion: T(x).
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		c.checkConversion(n, tv.Type, name)
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			c.checkBuiltin(n, id.Name, name)
			return
		}
	}

	// Named function or method callee: enforce the call-graph rule.
	var callee *types.Func
	switch f := fun.(type) {
	case *ast.Ident:
		callee, _ = info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = info.Uses[f.Sel].(*types.Func)
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := f.X.(*ast.Ident); ok {
			callee, _ = info.Uses[id].(*types.Func)
		}
	}
	if callee != nil {
		c.checkCallee(n, callee, name)
	}
	// Calls through function values (callee == nil) are trusted: the
	// closure's creation site is where the check happens.

	// Argument boxing, including the variadic ...interface{} case.
	sig, _ := info.TypeOf(n.Fun).Underlying().(*types.Signature)
	if sig == nil {
		return
	}
	params := sig.Params()
	fixed := params.Len()
	if sig.Variadic() {
		fixed--
		last := params.At(params.Len() - 1).Type()
		elem := last.(*types.Slice).Elem()
		if types.IsInterface(elem.Underlying()) && len(n.Args) > fixed && !n.Ellipsis.IsValid() {
			c.report(n.Pos(), "variadic ...%s arguments allocate in //voyager:noalloc %s",
				typeShortName(elem), name)
		}
	}
	for i, arg := range n.Args {
		if i >= fixed {
			break // variadic tail reported above as one finding
		}
		c.checkBox(arg, params.At(i).Type(), name, "argument")
	}
}

func (c *noallocChecker) checkConversion(n *ast.CallExpr, target types.Type, name string) {
	if len(n.Args) != 1 {
		return
	}
	src := c.pass.Info.TypeOf(n.Args[0])
	if src == nil {
		return
	}
	if types.IsInterface(target.Underlying()) {
		c.checkBox(n.Args[0], target, name, "conversion")
		return
	}
	tu, su := target.Underlying(), src.Underlying()
	if isString(tu) && isByteOrRuneSlice(su) {
		c.report(n.Pos(), "string(%s) conversion copies in //voyager:noalloc %s", typeShortName(src), name)
	}
	if isByteOrRuneSlice(tu) && isString(su) {
		c.report(n.Pos(), "%s(string) conversion copies in //voyager:noalloc %s", typeShortName(target), name)
	}
}

func (c *noallocChecker) checkBuiltin(n *ast.CallExpr, builtin, name string) {
	switch builtin {
	case "new":
		c.report(n.Pos(), "new(T) allocates in //voyager:noalloc %s", name)
	case "make":
		if len(n.Args) == 0 {
			return
		}
		switch c.pass.Info.TypeOf(n.Args[0]).Underlying().(type) {
		case *types.Chan:
			c.report(n.Pos(), "channel creation in //voyager:noalloc %s", name)
		case *types.Map:
			c.report(n.Pos(), "map creation in //voyager:noalloc %s", name)
		default:
			c.report(n.Pos(), "make allocates a slice in //voyager:noalloc %s; reuse a preallocated buffer", name)
		}
	case "append":
		if len(n.Args) == 0 {
			return
		}
		// append(buf[:0], ...) and friends reuse the sliced buffer's
		// capacity; a bare append is assumed to grow.
		if _, reuse := ast.Unparen(n.Args[0]).(*ast.SliceExpr); !reuse {
			c.report(n.Pos(), "append may grow its backing array in //voyager:noalloc %s; "+
				"append to a re-sliced buffer or justify with //voyager:alloc-ok", name)
		}
		if s, ok := c.pass.Info.TypeOf(n.Args[0]).Underlying().(*types.Slice); ok && !n.Ellipsis.IsValid() {
			for _, arg := range n.Args[1:] {
				c.checkBox(arg, s.Elem(), name, "append element")
			}
		}
	}
}

// checkCallee enforces the call-graph rule on a resolved named callee.
func (c *noallocChecker) checkCallee(n *ast.CallExpr, callee *types.Func, name string) {
	if orig := callee.Origin(); orig != nil {
		callee = orig // generic instantiations map back to their definition
	}
	if noallocAllowlist[callee.FullName()] {
		return
	}
	if callee.Pkg() == c.pass.Pkg {
		if !c.marked[callee] {
			c.report(n.Pos(), "//voyager:noalloc %s calls %s, which is not marked //voyager:noalloc",
				name, callee.Name())
		}
		return
	}
	c.report(n.Pos(), "//voyager:noalloc %s calls %s, which is not on the noalloc allowlist",
		name, callee.FullName())
}

// checkFuncLit reports capturing closures. A literal that captures nothing
// compiles to a static function and is allowed.
func (c *noallocChecker) checkFuncLit(n *ast.FuncLit, name string, fd *ast.FuncDecl, stack []ast.Node) {
	captured := c.capturedVar(n)
	if captured == nil {
		return
	}
	deferred := false
	if len(stack) >= 3 {
		if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == n {
			_, deferred = stack[len(stack)-3].(*ast.DeferStmt)
		}
	}
	if deferred {
		c.report(n.Pos(), "deferred closure captures %q in //voyager:noalloc %s", captured.Name(), name)
		return
	}
	c.report(n.Pos(), "closure captures %q and allocates in //voyager:noalloc %s; "+
		"prebind a method value or thread state through a reused record", captured.Name(), name)
}

// capturedVar returns one variable the literal captures from an enclosing
// function, or nil if it captures nothing.
func (c *noallocChecker) capturedVar(n *ast.FuncLit) *types.Var {
	info := c.pass.Info
	var captured *types.Var
	ast.Inspect(n, func(m ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == types.Universe || (c.pass.Pkg != nil && v.Parent() == c.pass.Pkg.Scope()) {
			return true // package-level state is not a capture
		}
		if v.Pos() >= n.Pos() && v.Pos() < n.End() {
			return true // declared inside the literal
		}
		captured = v
		return false
	})
	return captured
}

// checkMethodValue reports x.M used as a value (not called), which binds a
// closure over x.
func (c *noallocChecker) checkMethodValue(n *ast.SelectorExpr, name string, parent ast.Node) {
	sel, ok := c.pass.Info.Selections[n]
	if !ok || sel.Kind() != types.MethodVal {
		return
	}
	if call, ok := parent.(*ast.CallExpr); ok && call.Fun == n {
		return // ordinary method call
	}
	c.report(n.Pos(), "method value %s.%s binds a closure in //voyager:noalloc %s; "+
		"prebind it once outside the hot path", typeShortName(sel.Recv()), n.Sel.Name, name)
}

// checkReturn flags concrete values returned through interface-typed results
// of the innermost enclosing function.
func (c *noallocChecker) checkReturn(n *ast.ReturnStmt, name string, fd *ast.FuncDecl, stack []ast.Node) {
	var sig *types.Signature
	for i := len(stack) - 1; i >= 0; i-- {
		if lit, ok := stack[i].(*ast.FuncLit); ok {
			sig, _ = c.pass.Info.TypeOf(lit).(*types.Signature)
			break
		}
	}
	if sig == nil {
		if fn, ok := c.pass.Info.Defs[fd.Name].(*types.Func); ok {
			sig, _ = fn.Type().(*types.Signature)
		}
	}
	if sig == nil || sig.Results().Len() != len(n.Results) {
		return
	}
	for i, res := range n.Results {
		c.checkBox(res, sig.Results().At(i).Type(), name, "return value")
	}
}

// checkBox reports expr if storing it into target boxes a concrete value
// into an interface.
func (c *noallocChecker) checkBox(expr ast.Expr, target types.Type, name, what string) {
	if target == nil || !types.IsInterface(target.Underlying()) {
		return
	}
	src := c.pass.Info.TypeOf(expr)
	if src == nil || !boxAllocates(src) {
		return
	}
	c.report(expr.Pos(), "%s boxes %s into %s in //voyager:noalloc %s",
		what, typeShortName(src), typeShortName(target), name)
}

// boxAllocates reports whether converting a value of type t to an interface
// heap-allocates. Pointer-shaped values ride in the interface word directly.
func boxAllocates(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer && u.Kind() != types.UntypedNil
	}
	return true
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// typeShortName renders a type compactly for diagnostics: package-qualified
// by name only, no import paths.
func typeShortName(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
