// Overloaded arithmetic and comparison (§III-A.2): every operator is
// elementwise over matrices (with matrix–scalar broadcasting and
// int→float promotion) except '*' applied to two matrices, which is
// linear-algebra matrix multiplication; '.*' is the extension's
// explicit elementwise multiplication.
package matrix

import "fmt"

// Op is a runtime binary operator.
type Op int

// Runtime operators (Mul here is elementwise; use MatMulExec for the
// linear-algebra product).
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "&&", OpOr: "||",
}

func (o Op) String() string { return opNames[o] }

func (o Op) isComparison() bool { return o >= OpEq && o <= OpGe }
func (o Op) isLogical() bool    { return o == OpAnd || o == OpOr }

// scalarOp applies op to two scalar values (int64/float64/bool),
// promoting ints to floats when mixed.
func scalarOp(op Op, a, b any) (any, error) {
	if op.isLogical() {
		ab, aok := a.(bool)
		bb, bok := b.(bool)
		if !aok || !bok {
			return nil, fmt.Errorf("matrix: %s requires bool operands", op)
		}
		if op == OpAnd {
			return ab && bb, nil
		}
		return ab || bb, nil
	}
	if ab, aok := a.(bool); aok {
		bb, bok := b.(bool)
		if !bok || (op != OpEq && op != OpNe) {
			return nil, fmt.Errorf("matrix: %s cannot compare bool values", op)
		}
		if op == OpEq {
			return ab == bb, nil
		}
		return ab != bb, nil
	}
	ai, aIsInt := toInt(a)
	bi, bIsInt := toInt(b)
	if aIsInt && bIsInt {
		return intOp(op, ai, bi)
	}
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	if !aok || !bok {
		return nil, fmt.Errorf("matrix: %s cannot be applied to %T and %T", op, a, b)
	}
	return floatOp(op, af, bf)
}

func toInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	}
	return 0, false
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	}
	return 0, false
}

func intOp(op Op, a, b int64) (any, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case OpDiv:
		if b == 0 {
			return nil, fmt.Errorf("matrix: integer division by zero")
		}
		return a / b, nil
	case OpMod:
		if b == 0 {
			return nil, fmt.Errorf("matrix: integer modulo by zero")
		}
		return a % b, nil
	case OpEq:
		return a == b, nil
	case OpNe:
		return a != b, nil
	case OpLt:
		return a < b, nil
	case OpLe:
		return a <= b, nil
	case OpGt:
		return a > b, nil
	case OpGe:
		return a >= b, nil
	}
	return nil, fmt.Errorf("matrix: %s is not an int operator", op)
}

func floatOp(op Op, a, b float64) (any, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case OpDiv:
		return a / b, nil
	case OpEq:
		return a == b, nil
	case OpNe:
		return a != b, nil
	case OpLt:
		return a < b, nil
	case OpLe:
		return a <= b, nil
	case OpGt:
		return a > b, nil
	case OpGe:
		return a >= b, nil
	}
	return nil, fmt.Errorf("matrix: %s is not a float operator", op)
}

// resultElem determines the element type of an elementwise result.
func resultElem(op Op, a, b Elem) Elem {
	if op.isComparison() || op.isLogical() {
		return Bool
	}
	if a == Float || b == Float {
		return Float
	}
	if a == Bool && b == Bool {
		return Bool
	}
	return Int
}

// --- reference oracles ---
//
// The original boxed implementations are retained verbatim below as
// reference oracles: they define the semantics the specialized kernels
// must reproduce, and the differential tests (kernels_test.go,
// FuzzKernelDiff) pin the operator and matmul kernels against them. They are slow by
// design — one scalarOp interface round-trip per element — and are not
// called on any production path.

// ElementwiseRef is the boxed per-element reference for ElementwiseExec.
func ElementwiseRef(op Op, a, b *Matrix) (*Matrix, error) {
	if !a.SameShape(b) {
		return nil, fmt.Errorf("matrix: %s requires equal shapes, got %v and %v", op, a.shape, b.shape)
	}
	out := New(resultElem(op, a.elem, b.elem), a.shape...)
	for k, n := 0, a.Size(); k < n; k++ {
		v, err := scalarOp(op, a.Get(k), b.Get(k))
		if err != nil {
			return nil, err
		}
		if err := out.Set(k, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// BroadcastRef is the boxed per-element reference for BroadcastExec.
func BroadcastRef(op Op, m *Matrix, s any, matLeft bool) (*Matrix, error) {
	sElem := Float
	switch s.(type) {
	case int64, int:
		sElem = Int
	case bool:
		sElem = Bool
	}
	out := New(resultElem(op, m.elem, sElem), m.shape...)
	for k, n := 0, m.Size(); k < n; k++ {
		var v any
		var err error
		if matLeft {
			v, err = scalarOp(op, m.Get(k), s)
		} else {
			v, err = scalarOp(op, s, m.Get(k))
		}
		if err != nil {
			return nil, err
		}
		if err := out.Set(k, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MatMulRef is the naive i-j-k reference for MatMulExec. Float results may
// differ from the blocked i-k-j kernel in the last bits (different
// summation order); differential tests compare with a tolerance.
func MatMulRef(a, b *Matrix) (*Matrix, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("matrix: matmul requires rank-2 matrices, got ranks %d and %d", a.Rank(), b.Rank())
	}
	if a.shape[1] != b.shape[0] {
		return nil, fmt.Errorf("matrix: matmul dimension mismatch: %v x %v", a.shape, b.shape)
	}
	if a.elem == Bool || b.elem == Bool {
		return nil, fmt.Errorf("matrix: matmul requires numeric matrices")
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	if a.elem == Int && b.elem == Int {
		out := New(Int, m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var acc int64
				for x := 0; x < k; x++ {
					acc += a.i[i*k+x] * b.i[x*n+j]
				}
				out.i[i*n+j] = acc
			}
		}
		return out, nil
	}
	out := New(Float, m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for x := 0; x < k; x++ {
				acc += a.GetFloat(i*k+x) * b.GetFloat(x*n+j)
			}
			out.f[i*n+j] = acc
		}
	}
	return out, nil
}

// UnaryRef is the reference for UnaryExec.
func UnaryRef(neg bool, m *Matrix) (*Matrix, error) {
	if neg {
		switch m.elem {
		case Float:
			out := New(Float, m.shape...)
			for k, v := range m.f {
				out.f[k] = -v
			}
			return out, nil
		case Int:
			out := New(Int, m.shape...)
			for k, v := range m.i {
				out.i[k] = -v
			}
			return out, nil
		}
		return nil, fmt.Errorf("matrix: cannot negate a bool matrix")
	}
	if m.elem != Bool {
		return nil, fmt.Errorf("matrix: logical not requires a bool matrix")
	}
	out := New(Bool, m.shape...)
	for k, v := range m.b {
		out.b[k] = !v
	}
	return out, nil
}

// ScalarBinary exposes scalarOp for the interpreter.
func ScalarBinary(op Op, a, b any) (any, error) { return scalarOp(op, a, b) }
