// The bytecode compiler: lowers a checked AST to Program protos. The
// lowering is conservative — every construct whose exact tree-walker
// semantics (evaluation order, error text, error position) cannot be
// reproduced in bytecode aborts compilation with an error, and the
// driver falls back to the tree engine for that program.
package vm

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/sem"
	"repro/internal/types"
	"repro/internal/vet"
)

// compileError aborts compilation (recovered in Compile).
type compileError struct{ err error }

func bail(format string, args ...any) {
	panic(compileError{fmt.Errorf("vm: "+format, args...)})
}

// Compile lowers a checked program to bytecode. A nil error means the
// compiled Program reproduces the tree walker's observable behavior
// (stdout, traps, exit code, budget accounting) exactly; any construct
// the compiler cannot pin down returns an error instead.
func Compile(prog *ast.Program, info *sem.Info) (p *Program, err error) {
	return CompileWithFacts(prog, info, vet.ComputeFacts(prog, info))
}

// CompileWithFacts is Compile with a precomputed vet.Facts side table
// (the driver caches Facts content-addressed and passes them in so the
// analysis runs once per source, not once per compile). facts may be
// nil: every with-loop then compiles to the closure path.
func CompileWithFacts(prog *ast.Program, info *sem.Info, facts *vet.Facts) (p *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(compileError)
			if !ok {
				panic(r)
			}
			p, err = nil, ce.err
		}
	}()
	c := &compiler{
		prog:     prog,
		info:     info,
		facts:    facts,
		protoIdx: map[string]int{},
		globIdx:  map[string]int{},
		kInt:     map[int64]int32{},
		kFloat:   map[float64]int32{},
		kStr:     map[string]int32{},
	}
	// Pass 1: assign slots so bodies can reference any function or (in
	// function bodies) any global regardless of declaration order.
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if _, dup := c.protoIdx[d.Name]; dup {
				bail("duplicate function %q", d.Name)
			}
			c.protoIdx[d.Name] = len(c.protos)
			c.protos = append(c.protos, &proto{name: d.Name, decl: d})
		case *ast.GlobalVarDecl:
			if _, dup := c.globIdx[d.Name]; dup {
				bail("duplicate global %q", d.Name)
			}
			ty, terr := types.FromAST(d.Type)
			if terr != nil {
				// The tree walker diagnoses this before running anything;
				// keep the exact wrapped error as the first ginit op.
				ty = types.InvalidT
			}
			c.globIdx[d.Name] = len(c.globals)
			c.globals = append(c.globals, globalDef{name: d.Name, ty: ty, cl: classOf(ty)})
		}
	}
	// Pass 2: function bodies.
	for _, d := range prog.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			c.compileFunc(c.protoIdx[fd.Name], fd)
		}
	}
	c.compileGinit()
	main := -1
	if sig, ok := info.Funcs["main"]; ok {
		mi, ok := c.protoIdx[sig.Decl.Name]
		if !ok {
			bail("main signature has no compiled proto")
		}
		main = mi
	}
	return &Program{
		prog:      prog,
		info:      info,
		protos:    c.protos,
		consts:    c.consts,
		globals:   c.globals,
		ginit:     c.ginit,
		main:      main,
		withSites: c.withSites,
	}, nil
}

type compiler struct {
	prog      *ast.Program
	info      *sem.Info
	facts     *vet.Facts
	withSites int
	protos    []*proto
	protoIdx  map[string]int
	globals   []globalDef
	globIdx   map[string]int
	ginit     *proto
	// ginitDeclared limits global visibility while compiling global
	// initializers: the tree walker binds globals one at a time, so an
	// initializer referencing a later global fails "undeclared".
	inGinit       bool
	ginitDeclared int

	consts []value
	kInt   map[int64]int32
	kFloat map[float64]int32
	kStr   map[string]int32
}

func (c *compiler) constVal(v value) int32 {
	c.consts = append(c.consts, v)
	return int32(len(c.consts) - 1)
}

func (c *compiler) constInt(n int64) int32 {
	if k, ok := c.kInt[n]; ok {
		return k
	}
	k := c.constVal(value{i: n})
	c.kInt[n] = k
	return k
}

func (c *compiler) constFloat(f float64) int32 {
	if k, ok := c.kFloat[f]; ok {
		return k
	}
	k := c.constVal(value{f: f})
	c.kFloat[f] = k
	return k
}

func (c *compiler) constBoxed(v any) int32 {
	if s, ok := v.(string); ok {
		if k, ok := c.kStr[s]; ok {
			return k
		}
		k := c.constVal(value{r: v})
		c.kStr[s] = k
		return k
	}
	return c.constVal(value{r: v})
}

// varSlot is one compile-time variable binding.
type varSlot struct {
	reg int32
	ty  *types.Type
	cl  class
}

// cscope is one lexical block's bindings; names keeps declaration
// order so capture lists (and therefore compiled programs) are
// deterministic.
type cscope struct {
	parent *cscope
	names  []string
	vars   map[string]varSlot
}

func (s *cscope) bind(name string, slot varSlot) {
	if _, ok := s.vars[name]; !ok {
		s.names = append(s.names, name)
	}
	s.vars[name] = slot
}

// fnc compiles one proto.
type fnc struct {
	c       *compiler
	code    []instr
	nreg    int
	scope   *cscope
	refRegs []int32
	// endStack tracks enclosing index dimensions for 'end'.
	endStack []*endEntry
	// breaks/continues are per-enclosing-loop patch lists.
	breaks    [][]int
	continues [][]int
	// epilogue collects jumps to the function end (break/continue with
	// no enclosing loop, matching the tree walker's silent unwinding).
	epilogue []int
}

type endEntry struct {
	base     int32 // base matrix R register
	dim      int32
	node     ast.Node // the enclosing IndexExpr (error attribution)
	reg      int32
	computed bool
}

func (f *fnc) emit(i instr) int {
	f.code = append(f.code, i)
	return len(f.code) - 1
}

func (f *fnc) reg() int32 {
	r := f.nreg
	f.nreg++
	if r > 1<<20 {
		bail("function needs more than %d registers", 1<<20)
	}
	return int32(r)
}

func (f *fnc) patch(sites []int) {
	to := int32(len(f.code))
	for _, s := range sites {
		f.code[s].c = to
	}
}

func (f *fnc) pushScope() { f.scope = &cscope{parent: f.scope, vars: map[string]varSlot{}} }
func (f *fnc) popScope()  { f.scope = f.scope.parent }

func (f *fnc) resolve(name string) (varSlot, bool) {
	for s := f.scope; s != nil; s = s.parent {
		if slot, ok := s.vars[name]; ok {
			return slot, true
		}
	}
	return varSlot{}, false
}

// resolveGlobal respects the tree walker's one-at-a-time global
// binding order inside the global initializer.
func (f *fnc) resolveGlobal(name string) (int, *globalDef, bool) {
	gi, ok := f.c.globIdx[name]
	if !ok {
		return 0, nil, false
	}
	if f.c.inGinit && gi >= f.c.ginitDeclared {
		return 0, nil, false
	}
	return gi, &f.c.globals[gi], true
}

func (f *fnc) declare(name string, ty *types.Type) varSlot {
	slot := varSlot{reg: f.reg(), ty: ty, cl: classOf(ty)}
	f.scope.bind(name, slot)
	if slot.cl == clR {
		f.refRegs = append(f.refRegs, slot.reg)
	}
	return slot
}

// compileFunc lowers one function declaration into its pre-assigned
// proto slot.
func (c *compiler) compileFunc(pi int, fd *ast.FuncDecl) {
	sig, ok := c.info.Funcs[fd.Name]
	if !ok || sig.Decl != fd {
		bail("function %q missing from checker info", fd.Name)
	}
	f := &fnc{c: c}
	f.pushScope()
	params := make([]paramDef, len(fd.Params))
	for k, p := range fd.Params {
		ty, err := types.FromAST(p.Type)
		if err != nil {
			// The tree walker re-derives parameter types per call and
			// errors at call time; too exotic to mirror in bytecode.
			bail("parameter %q of %q has an invalid type: %v", p.Name, fd.Name, err)
		}
		slot := f.declare(p.Name, ty)
		params[k] = paramDef{reg: slot.reg, ty: ty, cl: slot.cl}
	}
	f.compileStmt(fd.Body)
	f.patch(f.epilogue)
	pr := c.protos[pi]
	pr.code = f.code
	pr.nregs = f.nreg
	pr.params = params
	pr.refRegs = f.refRegs
	pr.retTy = sig.Type.Ret
}

// compileGinit lowers the global initializers: no step ticks (the tree
// walker's run loop calls evalExpr directly, not execStmt), a pending
// flush after every global, and bind-into-slot semantics identical to
// the tree's global frame.
func (c *compiler) compileGinit() {
	c.inGinit = true
	c.ginitDeclared = 0
	f := &fnc{c: c}
	f.pushScope()
	gi := 0
	for _, d := range c.prog.Decls {
		g, ok := d.(*ast.GlobalVarDecl)
		if !ok {
			continue
		}
		def := &c.globals[gi]
		if _, terr := types.FromAST(g.Type); terr != nil {
			f.emit(instr{op: opFail, nd: g, aux: interp.WrapError(g, terr)})
			break
		}
		var reg int32
		var cl class
		if g.Init != nil {
			r0, c0 := f.compileExpr(g.Init)
			reg, cl = f.coerceTo(g, def.ty, r0, c0)
		} else {
			reg, cl = f.zeroOf(g.Type, def.ty)
		}
		if def.cl == clR {
			if cl != clR {
				bail("global %q: class mismatch %d vs %d", g.Name, def.cl, cl)
			}
			f.emit(instr{op: opGBindR, a: int32(gi), b: reg, nd: g})
		} else {
			f.emit(instr{op: opGStore, a: int32(gi), b: reg, nd: g})
		}
		f.emit(instr{op: opFlush})
		gi++
		c.ginitDeclared = gi
	}
	c.inGinit = false
	c.ginit = &proto{name: "<globals>", code: f.code, nregs: f.nreg}
}

// zeroOf emits the declared type's zero value (tree: zeroValue(te)).
func (f *fnc) zeroOf(te ast.TypeExpr, ty *types.Type) (int32, class) {
	switch classOf(ty) {
	case clI:
		r := f.reg()
		f.emit(instr{op: opConstI, a: r, b: 0})
		return r, clI
	case clF:
		r := f.reg()
		f.emit(instr{op: opLoadK, a: r, b: f.c.constFloat(0)})
		return r, clF
	case clB:
		r := f.reg()
		f.emit(instr{op: opConstI, a: r, b: 0})
		return r, clB
	}
	r := f.reg()
	f.emit(instr{op: opLoadK, a: r, b: f.c.constBoxed(zeroBoxed(te))})
	return r, clR
}

// zeroBoxed mirrors the tree walker's AST-driven zeroValue for boxed
// classes (matrices nil, tuples elementwise, rc pointers null).
func zeroBoxed(te ast.TypeExpr) any {
	switch t := te.(type) {
	case *ast.PrimType:
		switch t.Kind {
		case ast.PrimInt:
			return int64(0)
		case ast.PrimFloat:
			return float64(0)
		case ast.PrimBool:
			return false
		}
		return nil
	case *ast.MatrixType:
		return (*matrix.Matrix)(nil)
	case *ast.TupleType:
		out := make([]any, len(t.Elems))
		for k, e := range t.Elems {
			out[k] = zeroBoxed(e)
		}
		return out
	case *ast.RcPtrType:
		return interp.ZeroValue(types.RcPtrOf(types.IntT))
	}
	return nil
}

// coerceTo emits the binding-time coercion of (reg, cl) to declared
// type ty at node nd (tree: coerceToType), returning a register of
// ty's class.
func (f *fnc) coerceTo(nd ast.Node, ty *types.Type, reg int32, cl class) (int32, class) {
	tcl := classOf(ty)
	switch {
	case tcl == cl && cl != clR:
		return reg, cl
	case tcl == clF && cl == clI:
		r := f.reg()
		f.emit(instr{op: opI2F, a: r, b: reg})
		return r, clF
	case tcl == clR:
		r := f.reg()
		f.emit(instr{op: opCoerce, a: r, nd: nd,
			aux: &typeAux{ty: ty, src: argDesc{reg: reg, cl: cl}}})
		return r, clR
	case cl == clR:
		// Dynamic value into a scalar slot: coerce (validates / promotes)
		// then unbox. Unreachable in checked programs for anything but
		// Invalid statics, where the tree walker would store the boxed
		// value; keep the conservative runtime check.
		r := f.reg()
		f.emit(instr{op: opCoerce, a: r, nd: nd,
			aux: &typeAux{ty: ty, src: argDesc{reg: reg, cl: cl}}})
		out := f.reg()
		switch tcl {
		case clI:
			f.emit(instr{op: opToInt, a: out, b: r, nd: nd})
		case clF:
			f.emit(instr{op: opUnboxF, a: out, b: r, nd: nd})
		default:
			f.emit(instr{op: opToBool, a: out, b: r, nd: nd})
		}
		return out, tcl
	}
	// Statically impossible scalar/scalar mismatch (e.g. bool into int):
	// the checker rejects these programs before execution.
	bail("unassignable scalar classes %d -> %d at %s", cl, tcl, nd.Span())
	return 0, tcl
}

// step emits the statement-entry opcode (flush + cancel poll + step
// budget tick): the one-tick-per-executed-statement contract.
func (f *fnc) step(s ast.Stmt) {
	var nd ast.Node
	if s != nil {
		nd = s
	}
	f.emit(instr{op: opStep, nd: nd})
}

func (f *fnc) compileStmt(s ast.Stmt) {
	f.step(s)
	f.compileStmtInner(s)
}

func (f *fnc) compileStmtInner(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
		return

	case *ast.BlockStmt:
		f.pushScope()
		for _, st := range s.Stmts {
			f.compileStmt(st)
		}
		f.popScope()

	case *ast.DeclStmt:
		ty, err := types.FromAST(s.Type)
		if err != nil {
			f.emit(instr{op: opFail, nd: s, aux: interp.WrapError(s, err)})
			// Keep scopes coherent for the (unreachable) rest.
			ty = types.InvalidT
		}
		var reg int32
		var cl class
		if s.Init != nil {
			r0, c0 := f.compileExpr(s.Init)
			reg, cl = f.coerceTo(s, ty, r0, c0)
		} else {
			reg, cl = f.zeroOf(s.Type, ty)
		}
		slot := f.declare(s.Name, ty)
		f.storeVar(slot, reg, cl)

	case *ast.AssignStmt:
		rr, rc := f.compileExpr(s.RHS)
		if len(s.LHS) == 1 {
			f.compileAssign(s.LHS[0], rr, rc)
			return
		}
		if rc != clR {
			// Statically a non-tuple: the tree walker fails the runtime
			// tuple check with this exact text.
			f.emit(instr{op: opFail, nd: s,
				aux: interp.Errorf(s, "destructuring assignment requires a %d-tuple", len(s.LHS))})
			return
		}
		f.emit(instr{op: opTupCheck, a: rr, b: int32(len(s.LHS)), nd: s})
		for k, l := range s.LHS {
			t := f.reg()
			f.emit(instr{op: opTupGet, a: t, b: rr, c: int32(k)})
			f.compileAssign(l, t, clR)
		}

	case *ast.IfStmt:
		fall := f.condFalse(s.Cond)
		f.compileStmt(s.Then)
		if s.Else != nil {
			out := f.emit(instr{op: opJmp})
			f.patch(fall)
			f.compileStmt(s.Else)
			f.patch([]int{out})
		} else {
			f.patch(fall)
		}

	case *ast.WhileStmt:
		f.breaks = append(f.breaks, nil)
		f.continues = append(f.continues, nil)
		top := len(f.code)
		exit := f.condFalse(s.Cond)
		f.compileStmt(s.Body)
		f.emit(instr{op: opJmp, c: int32(top)})
		n := len(f.breaks) - 1
		for _, site := range f.continues[n] {
			f.code[site].c = int32(top)
		}
		f.patch(f.breaks[n])
		f.patch(exit)
		f.breaks = f.breaks[:n]
		f.continues = f.continues[:n]

	case *ast.ForStmt:
		f.pushScope()
		if s.Init != nil {
			f.compileStmt(s.Init)
		}
		f.breaks = append(f.breaks, nil)
		f.continues = append(f.continues, nil)
		top := len(f.code)
		var exit []int
		if s.Cond != nil {
			exit = f.condFalse(s.Cond)
		}
		f.compileStmt(s.Body)
		post := len(f.code)
		if s.Post != nil {
			f.compileStmt(s.Post)
		}
		f.emit(instr{op: opJmp, c: int32(top)})
		n := len(f.breaks) - 1
		for _, site := range f.continues[n] {
			f.code[site].c = int32(post)
		}
		f.patch(f.breaks[n])
		f.patch(exit)
		f.breaks = f.breaks[:n]
		f.continues = f.continues[:n]
		f.popScope()

	case *ast.ReturnStmt:
		if s.Value == nil {
			f.emit(instr{op: opRet, a: -1, nd: s})
			return
		}
		r, cl := f.compileExpr(s.Value)
		f.emit(instr{op: opRet, a: r, b: int32(cl), nd: s})

	case *ast.ExprStmt:
		f.compileExpr(s.X)

	case *ast.BreakStmt:
		site := f.emit(instr{op: opJmp, nd: s})
		if n := len(f.breaks); n > 0 {
			f.breaks[n-1] = append(f.breaks[n-1], site)
		} else {
			// No enclosing loop: the tree walker unwinds to the function
			// end silently (ctlBreak reaches callFunction as a no-op).
			f.epilogue = append(f.epilogue, site)
		}
	case *ast.ContinueStmt:
		site := f.emit(instr{op: opJmp, nd: s})
		if n := len(f.continues); n > 0 {
			f.continues[n-1] = append(f.continues[n-1], site)
		} else {
			f.epilogue = append(f.epilogue, site)
		}

	case *ast.SpawnStmt:
		f.compileSpawn(s)

	case *ast.SyncStmt:
		f.emit(instr{op: opSync, nd: s})

	default:
		f.emit(instr{op: opFail, nd: s, aux: interp.Errorf(s, "unknown statement %T", s)})
	}
}

// storeVar writes an already-coerced value into a variable slot
// (bind-new-release-old for boxed classes).
func (f *fnc) storeVar(slot varSlot, reg int32, cl class) {
	if slot.cl != cl {
		bail("slot class mismatch %d vs %d", slot.cl, cl)
	}
	if slot.cl == clR {
		f.emit(instr{op: opBindR, a: slot.reg, b: reg})
	} else {
		f.emit(instr{op: opMove, a: slot.reg, b: reg})
	}
}

// compileAssign stores an evaluated RHS into an lvalue, mirroring the
// tree walker's assignTo.
func (f *fnc) compileAssign(lhs ast.Expr, reg int32, cl class) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if slot, ok := f.resolve(l.Name); ok {
			r, c := f.coerceTo(l, slot.ty, reg, cl)
			f.storeVar(slot, r, c)
			return
		}
		if gi, def, ok := f.resolveGlobal(l.Name); ok {
			r, c := f.coerceTo(l, def.ty, reg, cl)
			if def.cl != c {
				bail("global %q assign class mismatch", l.Name)
			}
			if def.cl == clR {
				f.emit(instr{op: opGBindR, a: int32(gi), b: r, nd: l})
			} else {
				f.emit(instr{op: opGStore, a: int32(gi), b: r, nd: l})
			}
			return
		}
		f.emit(instr{op: opFail, nd: l, aux: interp.Errorf(l, "undeclared variable %q", l.Name)})

	case *ast.IndexExpr:
		base, bcl := f.compileExpr(l.X)
		if bcl != clR {
			f.emit(instr{op: opFail, nd: l,
				aux: interp.Errorf(l, "cannot index-assign into a non-matrix or unassigned matrix")})
			return
		}
		f.emit(instr{op: opIdxCheck, a: base, b: int32(len(l.Args)), c: 1, nd: l})
		if f.fusedSet(l, base, reg, cl) {
			return
		}
		plans := f.compilePlans(l, base)
		f.emit(instr{op: opSetIndex, a: base, nd: l,
			aux: &setIndexDesc{e: l, plans: plans, val: argDesc{reg: reg, cl: cl}}})

	default:
		f.emit(instr{op: opFail, nd: lhs,
			aux: interp.Errorf(lhs, "cannot assign to %s", ast.ExprString(lhs))})
	}
}

// compileSpawn lowers spawn f(args) [into target]: the static checks
// come first (before argument evaluation, like the tree walker), then
// the arguments, then the spawn op with a statically resolved target.
func (f *fnc) compileSpawn(s *ast.SpawnStmt) {
	call, ok := s.Call.(*ast.CallExpr)
	if !ok {
		f.emit(instr{op: opFail, nd: s, aux: interp.Errorf(s, "spawn requires a function call")})
		return
	}
	sig, ok := f.c.info.Funcs[call.Fun]
	if !ok {
		f.emit(instr{op: opFail, nd: s,
			aux: interp.Errorf(s, "spawn requires a user-defined function, %q is not one", call.Fun)})
		return
	}
	pi, ok := f.c.protoIdx[sig.Decl.Name]
	if !ok {
		bail("spawned function %q has no proto", call.Fun)
	}
	args := make([]argDesc, len(call.Args))
	for k, a := range call.Args {
		r, cl := f.compileExpr(a)
		args[k] = argDesc{reg: r, cl: cl}
	}
	d := &spawnDesc{s: s, proto: pi, args: args, name: s.Target}
	if s.Target == "" {
		d.target = targetRef{kind: tgNone}
	} else if slot, ok := f.resolve(s.Target); ok {
		d.target = targetRef{kind: tgLocal, reg: slot.reg, cl: slot.cl, ty: slot.ty}
	} else if gi, def, ok := f.resolveGlobal(s.Target); ok {
		d.target = targetRef{kind: tgGlobal, reg: int32(gi), cl: def.cl, ty: def.ty}
	} else {
		d.target = targetRef{kind: tgUndeclared}
	}
	f.emit(instr{op: opSpawn, nd: s, aux: d})
}

// condFalse compiles a statement condition and returns the patch sites
// of the branch taken when it is false. Integer comparisons fuse into
// compare-and-branch forms; everything else evaluates to a bool
// register (with the tree walker's runtime check for non-bool statics).
func (f *fnc) condFalse(cond ast.Expr) []int {
	if be, ok := cond.(*ast.BinaryExpr); ok {
		if neg, ok := fusableIntCmp[be.Op]; ok &&
			f.c.info.TypeOf(be.L).Kind == types.Int &&
			f.c.info.TypeOf(be.R).Kind == types.Int {
			if k, ok := smallIntLit(be.R); ok {
				l := f.operand(be.L, clI)
				return []int{f.emit(instr{op: neg.kform, a: l, b: k, nd: be})}
			}
			if k, ok := smallIntLit(be.L); ok {
				r := f.operand(be.R, clI)
				return []int{f.emit(instr{op: swapCmp[neg.kform], a: r, b: k, nd: be})}
			}
			l := f.operand(be.L, clI)
			r := f.operand(be.R, clI)
			return []int{f.emit(instr{op: neg.rform, a: l, b: r, nd: be})}
		}
	}
	b := f.compileBool(cond)
	return []int{f.emit(instr{op: opBrFalse, a: b, nd: cond})}
}

// compileBool evaluates cond into a bool register, mirroring evalBool.
func (f *fnc) compileBool(cond ast.Expr) int32 {
	r, cl := f.compileExpr(cond)
	switch cl {
	case clB:
		return r
	case clR:
		out := f.reg()
		f.emit(instr{op: opToBool, a: out, b: r, nd: cond})
		return out
	case clI:
		f.emit(instr{op: opFail, nd: cond,
			aux: interp.Errorf(cond, "condition evaluated to %T, not bool", int64(0))})
	case clF:
		f.emit(instr{op: opFail, nd: cond,
			aux: interp.Errorf(cond, "condition evaluated to %T, not bool", float64(0))})
	}
	return f.reg()
}

// compileInt evaluates e into an int register, mirroring evalInt.
func (f *fnc) compileInt(e ast.Expr) int32 {
	r, cl := f.compileExpr(e)
	switch cl {
	case clI:
		return r
	case clR:
		out := f.reg()
		f.emit(instr{op: opToInt, a: out, b: r, nd: e})
		return out
	case clF:
		f.emit(instr{op: opFail, nd: e,
			aux: interp.Errorf(e, "expected an int value, got %T", float64(0))})
	case clB:
		f.emit(instr{op: opFail, nd: e,
			aux: interp.Errorf(e, "expected an int value, got %T", false)})
	}
	return f.reg()
}

// operand evaluates e and asserts its static class.
func (f *fnc) operand(e ast.Expr, want class) int32 {
	r, cl := f.compileExpr(e)
	if cl != want {
		bail("operand %s has class %d, want %d", ast.ExprString(e), cl, want)
	}
	return r
}

type cmpForms struct{ rform, kform opcode }

// fusableIntCmp maps a comparison operator to its branch-if-FALSE
// opcodes (the branch is taken when the comparison does not hold).
var fusableIntCmp = map[ast.BinOp]cmpForms{
	ast.OpLt: {opBrLtI, opBrLtIK},
	ast.OpLe: {opBrLeI, opBrLeIK},
	ast.OpGt: {opBrGtI, opBrGtIK},
	ast.OpGe: {opBrGeI, opBrGeIK},
	ast.OpEq: {opBrEqI, opBrEqIK},
	ast.OpNe: {opBrNeI, opBrNeIK},
}

// swapCmp mirrors a K-form comparison when the literal is on the left:
// K op x  ==  x op' K.
var swapCmp = map[opcode]opcode{
	opBrLtIK: opBrGtIK,
	opBrLeIK: opBrGeIK,
	opBrGtIK: opBrLtIK,
	opBrGeIK: opBrLeIK,
	opBrEqIK: opBrEqIK,
	opBrNeIK: opBrNeIK,
}

// smallIntLit reports e as an int literal fitting an int32 immediate.
func smallIntLit(e ast.Expr) (int32, bool) {
	lit, ok := e.(*ast.IntLit)
	if !ok || lit.Value < -1<<31 || lit.Value >= 1<<31 {
		return 0, false
	}
	return int32(lit.Value), true
}
