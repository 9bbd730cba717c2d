// With-loop compilation proofs — the second Facts family. A
// genarray/fold body that is an effect-free scalar index expression
// (ids, literals, scalar and matrix identifier leaves, +,-,*, float /,
// negation, int↔float casts, and matrix loads whose indices are int
// affine-ish expressions) is compiled here to the flat postfix
// instruction set of matrix.WithInstr. The VM resolves the leaf names
// against its registers and runs the loop through
// matrix.GenArrayFlat/FoldFlat instead of a per-element closure.
//
// Legality is strict because the flat engine must reproduce the
// closure engine's observables exactly.
// Excluded on principle: `%` and int `/` (trap per element mid-loop),
// comparisons and logicals (bool bodies), calls (effects, recursion),
// `end` (needs the enclosing indexing context), nested with-loops
// (inner loops get their own plans), transform clauses, and any leaf
// that is not a plain identifier or literal. A float-typed `/` is
// total (IEEE), so it is allowed on float bodies.
package vet

import (
	"repro/internal/ast"
	"repro/internal/matrix"
	"repro/internal/sem"
	"repro/internal/types"
)

// WithPlan is a proven flat-compilable with-loop body. Leaves are
// recorded by name; the VM resolves them against local registers at
// compile time (globals decline — a racy global rebind must keep
// closure semantics) and re-verifies elements at run time.
type WithPlan struct {
	Fold    bool
	Kind    matrix.FoldKind // Fold only
	Code    []matrix.WithInstr
	Mats    []string      // matrix leaf names, by WLoad* slot
	MatElem []matrix.Elem // proven element type per matrix leaf
	ScalarI []string      // int scalar leaf names, by WPushScalarI slot
	ScalarF []string      // float scalar leaf names, by WPushScalarF slot
	Float   bool          // body's static type is float
}

// WithAt returns the flat plan proven for w, or nil.
func (f *Facts) WithAt(w *ast.WithLoop) *WithPlan {
	if f == nil {
		return nil
	}
	return f.withs[w]
}

// WithCount reports how many with-loops were proven flat-compilable.
func (f *Facts) WithCount() int {
	if f == nil {
		return 0
	}
	return len(f.withs)
}

// proveWith compiles w's body to a flat plan, or returns nil if any
// part of it falls outside the flat language.
func proveWith(info *sem.Info, w *ast.WithLoop) *WithPlan {
	if len(w.Transforms) != 0 || len(w.Ids) == 0 ||
		len(w.Lower) != len(w.Ids) || len(w.Upper) != len(w.Ids) {
		return nil
	}
	b := &withBuilder{
		info:  info,
		ids:   map[string]int{},
		plan:  &WithPlan{},
		mats:  map[string]int{},
		sInts: map[string]int{},
		sFlts: map[string]int{},
	}
	for k, name := range w.Ids {
		b.ids[name] = k // a repeated name shadows: the last binding wins
	}
	var body ast.Expr
	switch op := w.Op.(type) {
	case *ast.GenArrayOp:
		body = op.Body
	case *ast.FoldOp:
		body = op.Body
		b.plan.Fold = true
		switch op.Kind {
		case ast.FoldAdd:
			b.plan.Kind = matrix.FoldAdd
		case ast.FoldMul:
			b.plan.Kind = matrix.FoldMul
		case ast.FoldMin:
			b.plan.Kind = matrix.FoldMin
		case ast.FoldMax:
			b.plan.Kind = matrix.FoldMax
		default:
			return nil
		}
	default:
		return nil
	}
	k, ok := b.build(body)
	if !ok {
		return nil
	}
	b.plan.Float = k == types.Float
	return b.plan
}

type withBuilder struct {
	info  *sem.Info
	ids   map[string]int
	plan  *WithPlan
	mats  map[string]int
	sInts map[string]int
	sFlts map[string]int
}

func (b *withBuilder) emit(in matrix.WithInstr) {
	b.plan.Code = append(b.plan.Code, in)
}

// kindOf returns the checker's scalar kind for e (Invalid when e is
// untyped or not a scalar).
func (b *withBuilder) kindOf(e ast.Expr) types.Kind {
	t := b.info.TypeOf(e)
	if t == nil || (t.Kind != types.Int && t.Kind != types.Float) {
		return types.Invalid
	}
	return t.Kind
}

// build compiles e, returning its scalar kind. The emitted code's
// value is bit-identical to tree evaluation of e: promotions are
// emitted exactly where scalarOp would promote, casts truncate the
// same way, and operand order is preserved.
func (b *withBuilder) build(e ast.Expr) (types.Kind, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		b.emit(matrix.WithInstr{Op: matrix.WPushInt, K: e.Value})
		return types.Int, true
	case *ast.FloatLit:
		b.emit(matrix.WithInstr{Op: matrix.WPushFloat, F: e.Value})
		return types.Float, true
	case *ast.Ident:
		if k, ok := b.ids[e.Name]; ok {
			b.emit(matrix.WithInstr{Op: matrix.WPushID, A: int32(k)})
			return types.Int, true
		}
		switch b.kindOf(e) {
		case types.Int:
			b.emit(matrix.WithInstr{Op: matrix.WPushScalarI, A: int32(b.slot(b.sInts, &b.plan.ScalarI, e.Name))})
			return types.Int, true
		case types.Float:
			b.emit(matrix.WithInstr{Op: matrix.WPushScalarF, A: int32(b.slot(b.sFlts, &b.plan.ScalarF, e.Name))})
			return types.Float, true
		}
		return 0, false
	case *ast.UnaryExpr:
		if e.Op != ast.OpNeg {
			return 0, false
		}
		k, ok := b.build(e.X)
		if !ok {
			return 0, false
		}
		if k == types.Float {
			b.emit(matrix.WithInstr{Op: matrix.WNegF})
		} else {
			b.emit(matrix.WithInstr{Op: matrix.WNegI})
		}
		return k, true
	case *ast.CastExpr:
		k, ok := b.build(e.X)
		if !ok {
			return 0, false
		}
		switch {
		case e.To == ast.PrimFloat && k == types.Int:
			b.emit(matrix.WithInstr{Op: matrix.WI2F})
			return types.Float, true
		case e.To == ast.PrimFloat && k == types.Float:
			return types.Float, true
		case e.To == ast.PrimInt && k == types.Float:
			b.emit(matrix.WithInstr{Op: matrix.WF2I})
			return types.Int, true
		case e.To == ast.PrimInt && k == types.Int:
			return types.Int, true
		}
		return 0, false
	case *ast.BinaryExpr:
		return b.binary(e)
	case *ast.IndexExpr:
		return b.load(e)
	}
	return 0, false
}

func (b *withBuilder) binary(e *ast.BinaryExpr) (types.Kind, bool) {
	switch e.Op {
	case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv:
	default:
		return 0, false
	}
	// Promotion sites must be known before the right operand's code is
	// emitted (the int value to convert would otherwise be buried under
	// it on the wrong stack), so kinds come from the checker up front.
	lk, rk := b.kindOf(e.L), b.kindOf(e.R)
	if lk == types.Invalid || rk == types.Invalid {
		return 0, false
	}
	res := types.Int
	if lk == types.Float || rk == types.Float {
		res = types.Float
	}
	if e.Op == ast.OpDiv && res != types.Float {
		return 0, false // int division traps per element
	}
	gotL, ok := b.build(e.L)
	if !ok || gotL != lk {
		return 0, false
	}
	if lk == types.Int && res == types.Float {
		b.emit(matrix.WithInstr{Op: matrix.WI2F})
	}
	gotR, ok := b.build(e.R)
	if !ok || gotR != rk {
		return 0, false
	}
	if rk == types.Int && res == types.Float {
		b.emit(matrix.WithInstr{Op: matrix.WI2F})
	}
	var op matrix.WithOp
	switch e.Op {
	case ast.OpAdd:
		if res == types.Float {
			op = matrix.WAddF
		} else {
			op = matrix.WAddI
		}
	case ast.OpSub:
		if res == types.Float {
			op = matrix.WSubF
		} else {
			op = matrix.WSubI
		}
	case ast.OpMul:
		if res == types.Float {
			op = matrix.WMulF
		} else {
			op = matrix.WMulI
		}
	case ast.OpDiv:
		op = matrix.WDivF
	}
	b.emit(matrix.WithInstr{Op: op})
	return res, true
}

// load compiles a matrix element access m[i, j, ...]: a plain matrix
// identifier (not AnyMatrix — the element type must be pinned), every
// index a scalar int expression from the restricted index language.
func (b *withBuilder) load(e *ast.IndexExpr) (types.Kind, bool) {
	id, ok := e.X.(*ast.Ident)
	if !ok {
		return 0, false
	}
	if _, isID := b.ids[id.Name]; isID {
		return 0, false
	}
	t := b.info.TypeOf(id)
	if t == nil || t.Kind != types.Matrix || t.Elem == nil || t.Rank != len(e.Args) {
		return 0, false
	}
	var elem matrix.Elem
	switch t.Elem.Kind {
	case types.Int:
		elem = matrix.Int
	case types.Float:
		elem = matrix.Float
	default:
		return 0, false
	}
	if len(e.Args) == 0 {
		return 0, false
	}
	// Index language first (no partial emission on failure matters: a
	// failed plan is discarded whole).
	for _, a := range e.Args {
		s, ok := a.(*ast.IdxScalar)
		if !ok || !b.index(s.X) {
			return 0, false
		}
	}
	slot := b.slot(b.mats, &b.plan.Mats, id.Name)
	for len(b.plan.MatElem) <= slot {
		b.plan.MatElem = append(b.plan.MatElem, elem)
	}
	if b.plan.MatElem[slot] != elem {
		return 0, false
	}
	var op matrix.WithOp
	k := types.Int
	if elem == matrix.Float {
		op = matrix.WLoadF
		k = types.Float
	} else {
		op = matrix.WLoadI
	}
	b.emit(matrix.WithInstr{Op: op, A: int32(slot), B: int32(len(e.Args))})
	return k, true
}

// index compiles one index subexpression: ids, int literals, int
// scalar identifiers, +, -, *, and negation — the language the flat
// engine's interval analysis can bound.
func (b *withBuilder) index(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.IntLit:
		b.emit(matrix.WithInstr{Op: matrix.WPushInt, K: e.Value})
		return true
	case *ast.Ident:
		if k, ok := b.ids[e.Name]; ok {
			b.emit(matrix.WithInstr{Op: matrix.WPushID, A: int32(k)})
			return true
		}
		if b.kindOf(e) == types.Int {
			b.emit(matrix.WithInstr{Op: matrix.WPushScalarI, A: int32(b.slot(b.sInts, &b.plan.ScalarI, e.Name))})
			return true
		}
		return false
	case *ast.UnaryExpr:
		if e.Op != ast.OpNeg || !b.index(e.X) {
			return false
		}
		b.emit(matrix.WithInstr{Op: matrix.WNegI})
		return true
	case *ast.BinaryExpr:
		var op matrix.WithOp
		switch e.Op {
		case ast.OpAdd:
			op = matrix.WAddI
		case ast.OpSub:
			op = matrix.WSubI
		case ast.OpMul:
			op = matrix.WMulI
		default:
			return false
		}
		if b.kindOf(e) != types.Int || !b.index(e.L) || !b.index(e.R) {
			return false
		}
		b.emit(matrix.WithInstr{Op: op})
		return true
	}
	return false
}

// slot interns a leaf name into its slot list.
func (b *withBuilder) slot(m map[string]int, names *[]string, name string) int {
	if s, ok := m[name]; ok {
		return s
	}
	s := len(*names)
	m[name] = s
	*names = append(*names, name)
	return s
}
