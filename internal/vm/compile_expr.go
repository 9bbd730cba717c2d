// Expression lowering. Every case mirrors the tree walker's evalExpr:
// same evaluation order, same error texts, same error nodes. Scalar
// int/float/bool expressions compile to typed-register opcodes; matrix
// and dynamically typed expressions compile to boxed operations that
// delegate to interp's exported evaluators.
package vm

import (
	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/types"
)

func (f *fnc) compileExpr(e ast.Expr) (int32, class) {
	switch e := e.(type) {
	case *ast.IntLit:
		r := f.reg()
		if k, ok := smallIntLit(e); ok {
			f.emit(instr{op: opConstI, a: r, b: k})
		} else {
			f.emit(instr{op: opLoadK, a: r, b: f.c.constInt(e.Value)})
		}
		return r, clI

	case *ast.FloatLit:
		r := f.reg()
		f.emit(instr{op: opLoadK, a: r, b: f.c.constFloat(e.Value)})
		return r, clF

	case *ast.BoolLit:
		r := f.reg()
		b := int32(0)
		if e.Value {
			b = 1
		}
		f.emit(instr{op: opConstI, a: r, b: b})
		return r, clB

	case *ast.StrLit:
		r := f.reg()
		f.emit(instr{op: opLoadK, a: r, b: f.c.constBoxed(e.Value)})
		return r, clR

	case *ast.Ident:
		if slot, ok := f.resolve(e.Name); ok {
			// Locals are stable for the duration of an expression (only
			// statements assign), so the variable register is read
			// directly.
			return slot.reg, slot.cl
		}
		if gi, def, ok := f.resolveGlobal(e.Name); ok {
			// Globals can change mid-expression (a call may assign one),
			// so they are loaded into a temporary at this exact point in
			// the evaluation order.
			r := f.reg()
			f.emit(instr{op: opGLoad, a: r, b: int32(gi)})
			return r, def.cl
		}
		f.emit(instr{op: opFail, nd: e, aux: interp.Errorf(e, "undeclared variable %q", e.Name)})
		return f.reg(), classOf(f.c.info.TypeOf(e))

	case *ast.BinaryExpr:
		if e.Op == ast.OpAnd || e.Op == ast.OpOr {
			return f.compileLogical(e)
		}
		return f.compileBinary(e)

	case *ast.UnaryExpr:
		return f.compileUnary(e)

	case *ast.CastExpr:
		return f.compileCast(e)

	case *ast.CallExpr:
		return f.compileCall(e)

	case *ast.IndexExpr:
		return f.compileIndexR(e)

	case *ast.EndExpr:
		if len(f.endStack) == 0 {
			f.emit(instr{op: opFail, nd: e,
				aux: interp.Errorf(e, "'end' used outside an index expression")})
			return f.reg(), clI
		}
		return f.endStack[len(f.endStack)-1].reg, clI

	case *ast.RangeExpr:
		lo := f.compileInt(e.Lo)
		hi := f.compileInt(e.Hi)
		r := f.reg()
		f.emit(instr{op: opRange, a: r, b: lo, c: hi, nd: e})
		return r, clR

	case *ast.TupleExpr:
		ds := make([]argDesc, len(e.Elems))
		for k, el := range e.Elems {
			r, cl := f.compileExpr(el)
			ds[k] = argDesc{reg: r, cl: cl}
		}
		r := f.reg()
		f.emit(instr{op: opTuple, a: r, aux: ds})
		return r, clR

	case *ast.WithLoop:
		return f.compileWith(e)

	case *ast.MatrixMap:
		return f.compileMatMap(e)

	case *ast.InitExpr:
		dims := make([]int32, len(e.Dims))
		for k, d := range e.Dims {
			dims[k] = f.compileInt(d)
			f.emit(instr{op: opCheckDim, a: dims[k], b: int32(k), nd: e})
		}
		ty, terr := types.FromAST(e.Type)
		if terr != nil {
			bail("init type: %v", terr)
		}
		elem, eerr := vmElemOf(e, ty)
		if eerr != nil {
			f.emit(instr{op: opFail, nd: e, aux: eerr})
			return f.reg(), clR
		}
		r := f.reg()
		f.emit(instr{op: opInit, a: r, nd: e, aux: &initDesc{elem: elem, dims: dims}})
		return r, clR
	}
	f.emit(instr{op: opFail, nd: e, aux: interp.Errorf(e, "unknown expression %T", e)})
	return f.reg(), classOf(f.c.info.TypeOf(e))
}

// compileLogical lowers && / || with the tree walker's short-circuit
// rule: a bool left operand short-circuits; any other left operand
// evaluates both sides into the dynamic binary evaluator.
func (f *fnc) compileLogical(e *ast.BinaryExpr) (int32, class) {
	lk := f.c.info.TypeOf(e.L).Kind
	rk := f.c.info.TypeOf(e.R).Kind
	switch lk {
	case types.Bool:
		if rk == types.Bool {
			l := f.operand(e.L, clB)
			dst := f.reg()
			f.emit(instr{op: opMove, a: dst, b: l})
			br := opBrFalse // && with a false left yields the left value
			if e.Op == ast.OpOr {
				br = opBrTrue
			}
			site := f.emit(instr{op: br, a: dst})
			r := f.operand(e.R, clB)
			f.emit(instr{op: opMove, a: dst, b: r})
			f.patch([]int{site})
			return dst, clB
		}
		// Bool left, non-bool right: a short-circuit yields the boxed
		// bool constant; otherwise the right side must be bool at run
		// time (the tree walker's "requires bool operands" error).
		l := f.operand(e.L, clB)
		dst := f.reg()
		br, shortVal := opBrTrue, any(false) // && short-circuits on false
		if e.Op == ast.OpOr {
			br, shortVal = opBrFalse, any(true)
		}
		toEval := f.emit(instr{op: br, a: l})
		f.emit(instr{op: opLoadK, a: dst, b: f.c.constBoxed(shortVal)})
		out := f.emit(instr{op: opJmp})
		f.patch([]int{toEval})
		r, cl := f.compileExpr(e.R)
		f.emit(instr{op: opSCBool, a: dst, nd: e,
			aux: &typeAux{src: argDesc{reg: r, cl: cl}, op: e.Op}})
		f.patch([]int{out})
		return dst, clR
	case types.Invalid:
		bail("logical operand with unrecorded type at %s", e.Span())
	}
	// Statically non-bool left: both sides evaluate, then the dynamic
	// operator (which also produces the elementwise matrix forms).
	l, lcl := f.compileExpr(e.L)
	r, rcl := f.compileExpr(e.R)
	dst := f.reg()
	cl := classOf(f.c.info.TypeOf(e))
	f.emit(instr{op: opBinM, a: dst, b: int32(cl), nd: e,
		aux: &binDesc{e: e, l: argDesc{reg: l, cl: lcl}, r: argDesc{reg: r, cl: rcl}}})
	return dst, cl
}

var intArith = map[ast.BinOp]opcode{
	ast.OpAdd: opAddI, ast.OpSub: opSubI, ast.OpMul: opMulI,
	ast.OpDiv: opDivI, ast.OpMod: opModI,
}

var intCmp = map[ast.BinOp]opcode{
	ast.OpLt: opLtI, ast.OpLe: opLeI, ast.OpGt: opGtI,
	ast.OpGe: opGeI, ast.OpEq: opEqI, ast.OpNe: opNeI,
}

var floatArith = map[ast.BinOp]opcode{
	ast.OpAdd: opAddF, ast.OpSub: opSubF, ast.OpMul: opMulF, ast.OpDiv: opDivF,
}

var floatCmp = map[ast.BinOp]opcode{
	ast.OpLt: opLtF, ast.OpLe: opLeF, ast.OpGt: opGtF,
	ast.OpGe: opGeF, ast.OpEq: opEqF, ast.OpNe: opNeF,
}

func (f *fnc) compileBinary(e *ast.BinaryExpr) (int32, class) {
	lk := f.c.info.TypeOf(e.L).Kind
	rk := f.c.info.TypeOf(e.R).Kind

	if lk == types.Int && rk == types.Int {
		if op, ok := intArith[e.Op]; ok {
			// Fused add-immediate forms (i + 1, i - 1, 1 + i).
			if e.Op == ast.OpAdd {
				if k, ok := smallIntLit(e.R); ok {
					l := f.operand(e.L, clI)
					dst := f.reg()
					f.emit(instr{op: opAddIK, a: dst, b: l, c: k})
					return dst, clI
				}
				if k, ok := smallIntLit(e.L); ok {
					r := f.operand(e.R, clI)
					dst := f.reg()
					f.emit(instr{op: opAddIK, a: dst, b: r, c: k})
					return dst, clI
				}
			}
			if e.Op == ast.OpSub {
				if k, ok := smallIntLit(e.R); ok && k != -1<<31 {
					l := f.operand(e.L, clI)
					dst := f.reg()
					f.emit(instr{op: opAddIK, a: dst, b: l, c: -k})
					return dst, clI
				}
			}
			l := f.operand(e.L, clI)
			r := f.operand(e.R, clI)
			dst := f.reg()
			f.emit(instr{op: op, a: dst, b: l, c: r, nd: e})
			return dst, clI
		}
		if op, ok := intCmp[e.Op]; ok {
			l := f.operand(e.L, clI)
			r := f.operand(e.R, clI)
			dst := f.reg()
			f.emit(instr{op: op, a: dst, b: l, c: r})
			return dst, clB
		}
	}

	numeric := func(k types.Kind) bool { return k == types.Int || k == types.Float }
	if numeric(lk) && numeric(rk) && (lk == types.Float || rk == types.Float) {
		// Mixed / float scalars promote to float (scalarOp); % has no
		// float form and falls through to the dynamic evaluator for its
		// exact error.
		if op, ok := floatArith[e.Op]; ok {
			l := f.floatOperand(e.L, lk)
			r := f.floatOperand(e.R, rk)
			dst := f.reg()
			f.emit(instr{op: op, a: dst, b: l, c: r})
			return dst, clF
		}
		if op, ok := floatCmp[e.Op]; ok {
			l := f.floatOperand(e.L, lk)
			r := f.floatOperand(e.R, rk)
			dst := f.reg()
			f.emit(instr{op: op, a: dst, b: l, c: r})
			return dst, clB
		}
	}

	if lk == types.Bool && rk == types.Bool && (e.Op == ast.OpEq || e.Op == ast.OpNe) {
		l := f.operand(e.L, clB)
		r := f.operand(e.R, clB)
		dst := f.reg()
		op := opEqB
		if e.Op == ast.OpNe {
			op = opNeB
		}
		f.emit(instr{op: op, a: dst, b: l, c: r})
		return dst, clB
	}

	// Matrix operands, broadcasts, and every remaining combination go
	// through the shared dynamic evaluator (kernel selection, temp
	// recycling, exact scalarOp error texts).
	l, lcl := f.compileExpr(e.L)
	r, rcl := f.compileExpr(e.R)
	dst := f.reg()
	cl := classOf(f.c.info.TypeOf(e))
	f.emit(instr{op: opBinM, a: dst, b: int32(cl), nd: e,
		aux: &binDesc{e: e, l: argDesc{reg: l, cl: lcl}, r: argDesc{reg: r, cl: rcl}}})
	return dst, cl
}

// floatOperand evaluates a statically numeric operand into a float
// register (ints promoted, like scalarOp's toFloat).
func (f *fnc) floatOperand(e ast.Expr, k types.Kind) int32 {
	if k == types.Int {
		r := f.operand(e, clI)
		out := f.reg()
		f.emit(instr{op: opI2F, a: out, b: r})
		return out
	}
	return f.operand(e, clF)
}

func (f *fnc) compileUnary(e *ast.UnaryExpr) (int32, class) {
	x, cl := f.compileExpr(e.X)
	switch {
	case cl == clI && e.Op == ast.OpNeg:
		dst := f.reg()
		f.emit(instr{op: opNegI, a: dst, b: x})
		return dst, clI
	case cl == clF && e.Op == ast.OpNeg:
		dst := f.reg()
		f.emit(instr{op: opNegF, a: dst, b: x})
		return dst, clF
	case cl == clB && e.Op == ast.OpNot:
		dst := f.reg()
		f.emit(instr{op: opNotB, a: dst, b: x})
		return dst, clB
	}
	dst := f.reg()
	rcl := classOf(f.c.info.TypeOf(e))
	f.emit(instr{op: opUnM, a: dst, b: int32(rcl), nd: e,
		aux: &unDesc{e: e, x: argDesc{reg: x, cl: cl}}})
	return dst, rcl
}

// scalar cast conversions: [from class][to PrimKind] -> opcode
// (opNop marks identity).
var castOps = map[class]map[ast.PrimKind]opcode{
	clI: {ast.PrimInt: opNop, ast.PrimFloat: opI2F, ast.PrimBool: opI2B},
	clF: {ast.PrimInt: opF2I, ast.PrimFloat: opNop, ast.PrimBool: opF2B},
	clB: {ast.PrimInt: opB2I, ast.PrimFloat: opB2F, ast.PrimBool: opNop},
}

func (f *fnc) compileCast(e *ast.CastExpr) (int32, class) {
	x, cl := f.compileExpr(e.X)
	if forms, ok := castOps[cl]; ok {
		if op, ok := forms[e.To]; ok {
			if op == opNop {
				return x, cl
			}
			dst := f.reg()
			f.emit(instr{op: op, a: dst, b: x})
			switch e.To {
			case ast.PrimInt:
				return dst, clI
			case ast.PrimFloat:
				return dst, clF
			default:
				return dst, clB
			}
		}
	}
	// Boxed operand or non-scalar target: the dynamic castScalar path
	// carries the tree walker's "cannot cast %T to %s" error.
	dst := f.reg()
	rcl := classOf(f.c.info.TypeOf(e))
	f.emit(instr{op: opCastD, a: dst, b: int32(rcl), nd: e,
		aux: &castAux{to: e.To, x: argDesc{reg: x, cl: cl}}})
	return dst, rcl
}

func (f *fnc) compileCall(e *ast.CallExpr) (int32, class) {
	args := make([]argDesc, len(e.Args))
	for k, a := range e.Args {
		r, cl := f.compileExpr(a)
		args[k] = argDesc{reg: r, cl: cl}
	}
	if sig, ok := f.c.info.Funcs[e.Fun]; ok {
		pi, ok := f.c.protoIdx[sig.Decl.Name]
		if !ok {
			bail("called function %q has no proto", e.Fun)
		}
		ret := sig.Type.Ret
		if ret == nil || ret.Kind == types.Void || ret.Kind == types.Invalid {
			f.emit(instr{op: opCall, a: -1, nd: e,
				aux: &callDesc{proto: pi, args: args, retCl: clR}})
			// The tree walker's void-call value is nil; a never-written
			// boxed register reads as exactly that.
			return f.reg(), clR
		}
		retCl := classOf(ret)
		dst := f.reg()
		f.emit(instr{op: opCall, a: dst, nd: e,
			aux: &callDesc{proto: pi, args: args, retCl: retCl}})
		return dst, retCl
	}
	need := func(n int) {
		if len(args) != n {
			// The tree walker would fault on args[k]; no exact bytecode
			// analogue, so hand such (checker-rejected) programs back.
			bail("builtin %q called with %d args, want %d", e.Fun, len(args), n)
		}
	}
	switch e.Fun {
	case "print":
		need(1)
		f.emit(instr{op: opPrint, nd: e, aux: args[0]})
		return f.reg(), clR
	case "dimSize":
		need(2)
		dst := f.reg()
		f.emit(instr{op: opDimSize, a: dst, nd: e, aux: args})
		return dst, clI
	case "readMatrix":
		need(1)
		dst := f.reg()
		f.emit(instr{op: opReadM, a: dst, nd: e, aux: args[0]})
		return dst, clR
	case "writeMatrix":
		need(2)
		f.emit(instr{op: opWriteM, nd: e, aux: args})
		return f.reg(), clR
	case "rcnew":
		need(1)
		dst := f.reg()
		f.emit(instr{op: opRcNew, a: dst, nd: e, aux: args[0]})
		return dst, clR
	case "rcget":
		need(1)
		retCl := classOf(f.c.info.TypeOf(e))
		dst := f.reg()
		f.emit(instr{op: opRcGet, a: dst, c: int32(retCl), nd: e, aux: args[0]})
		return dst, retCl
	case "rcset":
		need(2)
		var elem *types.Type
		if ty := f.c.info.TypeOf(e.Args[0]); ty.Kind == types.RcPtr {
			elem = ty.Elem
		}
		f.emit(instr{op: opRcSet, nd: e, aux: &rcSetDesc{cell: args[0], val: args[1], elem: elem}})
		return f.reg(), clR
	case "rcrelease":
		need(1)
		f.emit(instr{op: opRcRel, nd: e, aux: args[0]})
		return f.reg(), clR
	}
	f.emit(instr{op: opFail, nd: e, aux: interp.Errorf(e, "undeclared function %q", e.Fun)})
	return f.reg(), classOf(f.c.info.TypeOf(e))
}

// trustedMatrixBase reports the element class of a rank-1 matrix base
// whose runtime representation is pinned by binding coercion: only
// identifier bases qualify (locals, params and globals are coerced on
// every bind, so their element kind and rank match the static type).
func (f *fnc) trustedMatrixBase(base ast.Expr) (class, bool) {
	id, ok := base.(*ast.Ident)
	if !ok {
		return 0, false
	}
	var ty *types.Type
	if slot, ok := f.resolve(id.Name); ok {
		ty = slot.ty
	} else if _, def, ok := f.resolveGlobal(id.Name); ok {
		ty = def.ty
	} else {
		return 0, false
	}
	if ty == nil || ty.Kind != types.Matrix || ty.Rank != 1 {
		return 0, false
	}
	return classOf(ty.Elem), true
}

// pushDim opens index dimension d of base: the 'end' value is computed
// eagerly (the tree walker calls DimSize per dimension regardless).
func (f *fnc) pushDim(base int32, d int, nd ast.Node) {
	entry := &endEntry{base: base, dim: int32(d), node: nd, reg: f.reg()}
	f.emit(instr{op: opDimEnd, a: entry.reg, b: base, c: int32(d), nd: nd})
	f.endStack = append(f.endStack, entry)
}

func (f *fnc) popDim() {
	f.endStack = f.endStack[:len(f.endStack)-1]
}

// compilePlans lowers the index arguments of e (rank already checked).
func (f *fnc) compilePlans(e *ast.IndexExpr, base int32) []specPlan {
	plans := make([]specPlan, len(e.Args))
	for d, arg := range e.Args {
		f.pushDim(base, d, e)
		switch a := arg.(type) {
		case *ast.IdxScalar:
			k := f.c.info.TypeOf(a.X).Kind
			switch {
			case k == types.Int:
				plans[d] = specPlan{kind: spScalar, r1: f.operand(a.X, clI)}
			case k == types.Matrix || k == types.AnyMatrix:
				plans[d] = specPlan{kind: spMask, r1: f.operand(a.X, clR)}
			case k == types.Invalid:
				r, cl := f.compileExpr(a.X)
				if cl != clR {
					bail("invalid-typed index with scalar class at %s", a.Span())
				}
				plans[d] = specPlan{kind: spDyn, r1: r, nd: a}
			default:
				// Statically never an index: evaluate for effect, then
				// fail with the runtime type the static type dictates.
				f.compileExpr(a.X)
				var sample any
				switch k {
				case types.Float:
					sample = float64(0)
				case types.Bool:
					sample = false
				case types.String:
					sample = ""
				case types.Tuple:
					sample = []any{}
				default:
					bail("unindexable static type kind %d at %s", k, a.Span())
				}
				f.emit(instr{op: opFail, nd: a,
					aux: interp.Errorf(a, "index must be an int or a bool matrix, got %T", sample)})
				plans[d] = specPlan{kind: spAll}
			}
		case *ast.IdxRange:
			lo := f.compileInt(a.Lo)
			hi := f.compileInt(a.Hi)
			plans[d] = specPlan{kind: spRange, r1: lo, r2: hi}
		case *ast.IdxAll:
			plans[d] = specPlan{kind: spAll}
		default:
			f.emit(instr{op: opFail, nd: arg,
				aux: interp.Errorf(arg, "unknown index argument %T", arg)})
			plans[d] = specPlan{kind: spAll}
		}
		f.popDim()
	}
	return plans
}

// fusedScalarArg reports a single static-int scalar index argument.
func fusedScalarArg(e *ast.IndexExpr, info interface {
	TypeOf(ast.Expr) *types.Type
}) (ast.Expr, bool) {
	if len(e.Args) != 1 {
		return nil, false
	}
	sc, ok := e.Args[0].(*ast.IdxScalar)
	if !ok || info.TypeOf(sc.X).Kind != types.Int {
		return nil, false
	}
	return sc.X, true
}

func (f *fnc) compileIndexR(e *ast.IndexExpr) (int32, class) {
	base, bcl := f.compileExpr(e.X)
	retCl := classOf(f.c.info.TypeOf(e))
	if bcl != clR {
		f.emit(instr{op: opFail, nd: e,
			aux: interp.Errorf(e, "cannot index a non-matrix or unassigned matrix")})
		return f.reg(), retCl
	}
	f.emit(instr{op: opIdxCheck, a: base, b: int32(len(e.Args)), nd: e})
	if elemCl, ok := f.trustedMatrixBase(e.X); ok && elemCl == retCl {
		if ix, ok := fusedScalarArg(e, f.c.info); ok {
			f.pushDim(base, 0, e)
			idx := f.operand(ix, clI)
			f.popDim()
			dst := f.reg()
			op := map[class]opcode{clF: opIdx1F, clI: opIdx1I, clB: opIdx1B}[elemCl]
			f.emit(instr{op: op, a: dst, b: base, c: idx, nd: e})
			return dst, retCl
		}
	}
	plans := f.compilePlans(e, base)
	dst := f.reg()
	f.emit(instr{op: opIndex, a: dst, b: base, c: int32(retCl), nd: e,
		aux: &indexDesc{e: e, plans: plans}})
	return dst, retCl
}

// fusedSet lowers m[i] = v for trusted rank-1 bases with a static-int
// index and a value of (or promotable to) the element class.
func (f *fnc) fusedSet(l *ast.IndexExpr, base, vreg int32, vcl class) bool {
	elemCl, ok := f.trustedMatrixBase(l.X)
	if !ok {
		return false
	}
	ix, ok := fusedScalarArg(l, f.c.info)
	if !ok {
		return false
	}
	if elemCl == clF && vcl == clI {
		p := f.reg()
		f.emit(instr{op: opI2F, a: p, b: vreg})
		vreg, vcl = p, clF
	}
	if vcl != elemCl {
		return false
	}
	f.pushDim(base, 0, l)
	idx := f.operand(ix, clI)
	f.popDim()
	op := map[class]opcode{clF: opSetIdx1F, clI: opSetIdx1I, clB: opSetIdx1B}[elemCl]
	f.emit(instr{op: op, a: base, b: idx, c: vreg, nd: l})
	return true
}

func (f *fnc) compileWith(w *ast.WithLoop) (int32, class) {
	if len(w.Ids) != len(w.Lower) || len(w.Lower) != len(w.Upper) {
		bail("with-loop bound/id arity mismatch at %s", w.Span())
	}
	lower := make([]int32, len(w.Lower))
	upper := make([]int32, len(w.Upper))
	for k := range w.Lower {
		lower[k] = f.compileInt(w.Lower[k])
		upper[k] = f.compileInt(w.Upper[k])
	}
	d := &withDesc{w: w, lower: lower, upper: upper, ids: len(w.Ids)}
	var bodyExpr ast.Expr
	switch op := w.Op.(type) {
	case *ast.GenArrayOp:
		shape := make([]int32, len(op.Shape))
		for k, se := range op.Shape {
			shape[k] = f.compileInt(se)
		}
		d.shape = shape
		elem, eerr := vmElemOf(w, f.c.info.TypeOf(w))
		if eerr != nil {
			d.staticFail = eerr
		} else {
			d.elem = elem
		}
		d.resCl = clR
		bodyExpr = op.Body
	case *ast.FoldOp:
		d.fold = true
		d.foldKind = map[ast.FoldKind]matrix.FoldKind{
			ast.FoldAdd: matrix.FoldAdd, ast.FoldMul: matrix.FoldMul,
			ast.FoldMin: matrix.FoldMin, ast.FoldMax: matrix.FoldMax,
		}[op.Kind]
		ir, ic := f.compileExpr(op.Init)
		d.foldInit = argDesc{reg: ir, cl: ic}
		d.promote = f.c.info.TypeOf(w).Kind == types.Float
		d.resCl = classOf(f.c.info.TypeOf(w))
		bodyExpr = op.Body
	default:
		f.emit(instr{op: opFail, nd: w,
			aux: interp.Errorf(w, "unknown with-loop operation %T", w.Op)})
		return f.reg(), classOf(f.c.info.TypeOf(w))
	}
	d.body, d.captures = f.compileWithBody(w, bodyExpr)
	op := opWith
	if d.staticFail == nil {
		if fp := f.flatWithPlan(w, d); fp != nil {
			d.flat = fp
			f.c.withSites++
			if d.fold {
				op = opWithFold
			} else {
				op = opWithGen
			}
		}
	}
	dst := f.reg()
	f.emit(instr{op: op, a: dst, nd: w, aux: d})
	return dst, d.resCl
}

// flatWithPlan binds a vet-proven flat plan's leaf names to this
// function's local registers. Every leaf must be a local of the proven
// class (globals decline: a mid-run global rebind from a spawned task
// must keep per-element closure semantics), and the proven fold kind
// must match the compiled one. Any mismatch keeps the closure path.
func (f *fnc) flatWithPlan(w *ast.WithLoop, d *withDesc) *flatPlan {
	wp := f.c.facts.WithAt(w)
	if wp == nil || wp.Fold != d.fold {
		return nil
	}
	if d.fold && wp.Kind != d.foldKind {
		return nil
	}
	fp := &flatPlan{code: wp.Code, matEl: wp.MatElem, float: wp.Float}
	for _, name := range wp.Mats {
		vs, ok := f.resolve(name)
		if !ok || vs.cl != clR || vs.ty == nil || vs.ty.Kind != types.Matrix {
			return nil
		}
		fp.mats = append(fp.mats, vs.reg)
	}
	for _, name := range wp.ScalarI {
		vs, ok := f.resolve(name)
		if !ok || vs.cl != clI {
			return nil
		}
		fp.sI = append(fp.sI, vs.reg)
	}
	for _, name := range wp.ScalarF {
		vs, ok := f.resolve(name)
		if !ok || vs.cl != clF {
			return nil
		}
		fp.sF = append(fp.sF, vs.reg)
	}
	return fp
}

// compileWithBody lowers the with-loop body expression as a proto of
// its own: registers [0,len(ids)) hold the index variables, enclosing
// locals are copied in via the capture list (with-loop bodies are
// expressions — they read but never assign enclosing locals), and
// globals resolve through the shared global slots.
func (f *fnc) compileWithBody(w *ast.WithLoop, body ast.Expr) (int, []capture) {
	bf := &fnc{c: f.c}
	idRegs := make([]int32, len(w.Ids))
	for k := range w.Ids {
		idRegs[k] = bf.reg()
	}
	// Outer scope: captured enclosing locals, in deterministic
	// declaration order, innermost shadowing outermost.
	bf.pushScope()
	var captures []capture
	seen := map[string]bool{}
	for _, id := range w.Ids {
		seen[id] = true // ids shadow enclosing locals of the same name
	}
	for s := f.scope; s != nil; s = s.parent {
		for _, name := range s.names {
			if seen[name] {
				continue
			}
			seen[name] = true
			outer := s.vars[name]
			creg := bf.reg()
			bf.scope.bind(name, varSlot{reg: creg, ty: outer.ty, cl: outer.cl})
			captures = append(captures, capture{from: outer.reg, to: creg})
		}
	}
	// Inner scope: the index identifiers.
	bf.pushScope()
	for k, id := range w.Ids {
		bf.scope.bind(id, varSlot{reg: idRegs[k], ty: types.IntT, cl: clI})
	}
	r, cl := bf.compileExpr(body)
	bf.emit(instr{op: opRet, a: r, b: int32(cl), nd: body})
	pi := len(f.c.protos)
	f.c.protos = append(f.c.protos, &proto{
		name:  "<with-body>",
		code:  bf.code,
		nregs: bf.nreg,
	})
	return pi, captures
}

func (f *fnc) compileMatMap(e *ast.MatrixMap) (int32, class) {
	ar, ac := f.compileExpr(e.Arg)
	d := &mapDesc{e: e, arg: argDesc{reg: ar, cl: ac}, general: e.General}
	dims := make([]int, 0, len(e.Dims))
	for _, de := range e.Dims {
		lit, ok := de.(*ast.IntLit)
		if !ok {
			d.badDim = de
			break
		}
		dims = append(dims, int(lit.Value))
	}
	d.dims = dims
	if sig, ok := f.c.info.Funcs[e.Fun]; ok {
		pi, ok := f.c.protoIdx[sig.Decl.Name]
		if !ok {
			bail("matrixMap function %q has no proto", e.Fun)
		}
		d.proto = pi
	} else {
		d.fnMissing = true
	}
	if elem, eerr := vmElemOf(e, f.c.info.TypeOf(e)); eerr != nil {
		d.elemFail = eerr
	} else {
		d.elem = elem
	}
	dst := f.reg()
	f.emit(instr{op: opMatMap, a: dst, nd: e, aux: d})
	return dst, clR
}

// vmElemOf mirrors the tree walker's matrixElemOf (same error texts
// and nodes).
func vmElemOf(n ast.Node, ty *types.Type) (matrix.Elem, error) {
	if ty == nil || ty.Kind != types.Matrix {
		return 0, interp.Errorf(n, "internal error: expected a matrix type, have %s", ty)
	}
	switch ty.Elem.Kind {
	case types.Float:
		return matrix.Float, nil
	case types.Int:
		return matrix.Int, nil
	case types.Bool:
		return matrix.Bool, nil
	}
	return 0, interp.Errorf(n, "internal error: bad matrix element type %s", ty.Elem)
}
