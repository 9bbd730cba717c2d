// Package matrix is the runtime the matrix language extension
// compiles against: dense N-dimensional matrices of int, float or
// bool with MATLAB-style indexing (§III-A.3), elementwise overloaded
// arithmetic with matrix–scalar broadcasting and linear-algebra
// multiplication (§III-A.2), and parallel execution of with-loops and
// matrixMap on the enhanced fork-join pool (§III-C).
//
// Allocation is accounted through internal/rc so the reference-
// counting discipline of §III-B is checkable in tests.
package matrix

import (
	"fmt"

	"repro/internal/rc"
)

// Elem is the element type of a matrix.
type Elem int

// Element types.
const (
	Float Elem = iota
	Int
	Bool
)

func (e Elem) String() string {
	switch e {
	case Float:
		return "float"
	case Int:
		return "int"
	case Bool:
		return "bool"
	}
	return "?"
}

// size in bytes per element, for rc accounting.
func (e Elem) size() int {
	if e == Bool {
		return 1
	}
	return 8
}

// Matrix is a dense N-dimensional array in row-major order.
type Matrix struct {
	elem    Elem
	shape   []int
	strides []int
	f       []float64
	i       []int64
	b       []bool
	// Hdr is the reference-count header when the matrix is tracked
	// (§III-B); nil for untracked matrices.
	Hdr *rc.Header
}

// New allocates a zeroed matrix. It panics on an impossible shape
// (negative dimension, size overflow); execution layers that must not
// crash use NewBudgeted and get an error instead.
func New(elem Elem, shape ...int) *Matrix {
	m, err := NewBudgeted(nil, elem, shape...)
	if err != nil {
		panic(err)
	}
	return m
}

// checkedSize validates a shape and returns its element count,
// rejecting negative dimensions and products whose byte size cannot
// exist in the address space (which would otherwise alias a huge
// request onto a small make, or panic inside make itself).
func checkedSize(shape []int) (int, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return 0, &ShapeError{msg: fmt.Sprintf("matrix: negative dimension %d", d)}
		}
		if d > 0 && n > maxCells/d {
			return 0, &ShapeError{msg: fmt.Sprintf("matrix: shape %v overflows the address space", shape)}
		}
		n *= d
	}
	return n, nil
}

const (
	maxInt = int(^uint(0) >> 1)
	// maxCells bounds a single matrix's element count so that its byte
	// size (widest element: 8 bytes) still fits in int; beyond this,
	// make would panic "len out of range" instead of returning an error.
	maxCells = maxInt / 8
)

// NewBudgeted allocates a zeroed matrix after validating the shape and
// charging the cell count against b (nil = unlimited). The charge
// happens before the storage is made, so an oversized request fails as
// a *BudgetError rather than an OOM kill.
func NewBudgeted(b *Budget, elem Elem, shape ...int) (*Matrix, error) {
	n, err := checkedSize(shape)
	if err != nil {
		return nil, err
	}
	return allocCharged(b, elem, shape, n, true)
}

// allocCharged is the allocation admission every budgeted constructor
// shares, for a shape already validated to n cells: the allocation
// hook fires, n is charged against b, and only then is storage made.
// The backing slice comes from the kernel free list when a released
// buffer fits; zero clears it, and callers that write every cell pass
// false.
func allocCharged(b *Budget, elem Elem, shape []int, n int, zero bool) (*Matrix, error) {
	if hook := TestHookAllocFail; hook != nil {
		if err := hook(n); err != nil {
			return nil, err
		}
	}
	if err := b.Charge(n); err != nil {
		return nil, err
	}
	m := &Matrix{elem: elem, shape: append([]int(nil), shape...)}
	m.strides = stridesFor(m.shape)
	switch elem {
	case Float:
		m.f = floatFree.take(n, zero)
	case Int:
		m.i = intFree.take(n, zero)
	case Bool:
		m.b = boolFree.take(n, zero)
	}
	return m, nil
}

// NewTracked is New plus reference-count tracking on heap.
func NewTracked(heap *rc.Heap, elem Elem, shape ...int) *Matrix {
	m := New(elem, shape...)
	m.Hdr = heap.Alloc(m.Size() * elem.size())
	return m
}

func stridesFor(shape []int) []int {
	s := make([]int, len(shape))
	acc := 1
	for d := len(shape) - 1; d >= 0; d-- {
		s[d] = acc
		acc *= shape[d]
	}
	return s
}

// FromFloats builds a float matrix from row-major data.
func FromFloats(data []float64, shape ...int) *Matrix {
	m := New(Float, shape...)
	if len(data) != m.Size() {
		panic(&ShapeError{msg: fmt.Sprintf("matrix: %d values for shape %v", len(data), shape)})
	}
	copy(m.f, data)
	return m
}

// FromInts builds an int matrix from row-major data.
func FromInts(data []int64, shape ...int) *Matrix {
	m := New(Int, shape...)
	if len(data) != m.Size() {
		panic(&ShapeError{msg: fmt.Sprintf("matrix: %d values for shape %v", len(data), shape)})
	}
	copy(m.i, data)
	return m
}

// FromBools builds a bool matrix from row-major data.
func FromBools(data []bool, shape ...int) *Matrix {
	m := New(Bool, shape...)
	if len(data) != m.Size() {
		panic(&ShapeError{msg: fmt.Sprintf("matrix: %d values for shape %v", len(data), shape)})
	}
	copy(m.b, data)
	return m
}

// Range returns the rank-1 int matrix [lo, lo+1, ..., hi] (the
// inclusive vector-building range of Fig 8 line 27).
func Range(lo, hi int64) *Matrix {
	if hi < lo {
		return New(Int, 0)
	}
	m := New(Int, int(hi-lo+1))
	for k := range m.i {
		m.i[k] = lo + int64(k)
	}
	return m
}

// Elem returns the element type.
func (m *Matrix) Elem() Elem { return m.elem }

// Rank returns the number of dimensions.
func (m *Matrix) Rank() int { return len(m.shape) }

// Shape returns the dimension sizes (not aliased).
func (m *Matrix) Shape() []int { return append([]int(nil), m.shape...) }

// DimSize returns the size of dimension d (§III-A.3's dimSize).
func (m *Matrix) DimSize(d int) (int, error) {
	if d < 0 || d >= len(m.shape) {
		return 0, fmt.Errorf("matrix: dimSize dimension %d out of range for rank %d", d, len(m.shape))
	}
	return m.shape[d], nil
}

// Size returns the total element count.
func (m *Matrix) Size() int {
	n := 1
	for _, d := range m.shape {
		n *= d
	}
	return n
}

// SameShape reports whether m and o have identical shapes.
func (m *Matrix) SameShape(o *Matrix) bool {
	if len(m.shape) != len(o.shape) {
		return false
	}
	for d := range m.shape {
		if m.shape[d] != o.shape[d] {
			return false
		}
	}
	return true
}

// Offset converts a multi-index to a linear offset (bounds checked).
func (m *Matrix) Offset(idx []int) (int, error) {
	if len(idx) != len(m.shape) {
		return 0, fmt.Errorf("matrix: %d indices for rank %d", len(idx), len(m.shape))
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= m.shape[d] {
			return 0, fmt.Errorf("matrix: index %d out of range [0,%d) in dimension %d", i, m.shape[d], d)
		}
		off += i * m.strides[d]
	}
	return off, nil
}

// Get returns the element at linear offset as int64, float64 or bool.
func (m *Matrix) Get(off int) any {
	switch m.elem {
	case Float:
		return m.f[off]
	case Int:
		return m.i[off]
	default:
		return m.b[off]
	}
}

// GetFloat returns the element at off as a float64 (ints convert).
func (m *Matrix) GetFloat(off int) float64 {
	switch m.elem {
	case Float:
		return m.f[off]
	case Int:
		return float64(m.i[off])
	default:
		if m.b[off] {
			return 1
		}
		return 0
	}
}

// Set stores v (int64, float64, bool or int) at linear offset,
// promoting int to float where needed.
func (m *Matrix) Set(off int, v any) error {
	switch m.elem {
	case Float:
		switch x := v.(type) {
		case float64:
			m.f[off] = x
		case int64:
			m.f[off] = float64(x)
		case int:
			m.f[off] = float64(x)
		default:
			return fmt.Errorf("matrix: cannot store %T in float matrix", v)
		}
	case Int:
		switch x := v.(type) {
		case int64:
			m.i[off] = x
		case int:
			m.i[off] = int64(x)
		default:
			return fmt.Errorf("matrix: cannot store %T in int matrix", v)
		}
	case Bool:
		x, ok := v.(bool)
		if !ok {
			return fmt.Errorf("matrix: cannot store %T in bool matrix", v)
		}
		m.b[off] = x
	}
	return nil
}

// At returns the element at a multi-index.
func (m *Matrix) At(idx ...int) (any, error) {
	off, err := m.Offset(idx)
	if err != nil {
		return nil, err
	}
	return m.Get(off), nil
}

// SetAt stores at a multi-index.
func (m *Matrix) SetAt(v any, idx ...int) error {
	off, err := m.Offset(idx)
	if err != nil {
		return err
	}
	return m.Set(off, v)
}

// Copy returns a deep copy (untracked).
func (m *Matrix) Copy() *Matrix {
	out := New(m.elem, m.shape...)
	copy(out.f, m.f)
	copy(out.i, m.i)
	copy(out.b, m.b)
	return out
}

// Floats exposes the raw float storage (nil unless elem is Float).
func (m *Matrix) Floats() []float64 { return m.f }

// Ints exposes the raw int storage (nil unless elem is Int).
func (m *Matrix) Ints() []int64 { return m.i }

// Bools exposes the raw bool storage (nil unless elem is Bool).
func (m *Matrix) Bools() []bool { return m.b }

// Equal reports elementwise equality of shape, type and contents.
func Equal(a, b *Matrix) bool {
	if a.elem != b.elem || !a.SameShape(b) {
		return false
	}
	for k, n := 0, a.Size(); k < n; k++ {
		if a.Get(k) != b.Get(k) {
			return false
		}
	}
	return true
}

// AlmostEqual compares float matrices within eps (other types exact).
func AlmostEqual(a, b *Matrix, eps float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for k, n := 0, a.Size(); k < n; k++ {
		da := a.GetFloat(k) - b.GetFloat(k)
		if da < -eps || da > eps {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	if m.Size() > 64 {
		return fmt.Sprintf("Matrix %s %v (%d elements)", m.elem, m.shape, m.Size())
	}
	return fmt.Sprintf("Matrix %s %v %v", m.elem, m.shape, m.rawSlice())
}

func (m *Matrix) rawSlice() any {
	switch m.elem {
	case Float:
		return m.f
	case Int:
		return m.i
	default:
		return m.b
	}
}

// indexSpace iterates the multi-indices of a box [lower, upper) in
// row-major order, calling f with a reused index slice.
func indexSpace(lower, upper []int, f func(idx []int)) {
	n := len(lower)
	if n == 0 {
		return
	}
	idx := make([]int, n)
	copy(idx, lower)
	for d := 0; d < n; d++ {
		if lower[d] >= upper[d] {
			return
		}
	}
	for {
		f(idx)
		d := n - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < upper[d] {
				break
			}
			idx[d] = lower[d]
		}
		if d < 0 {
			return
		}
	}
}
