// Parallel execution of the with-loop (genarray and fold) and
// matrixMap constructs (§III-A.4, §III-A.5, §III-C). The outermost
// generated dimension is distributed over the fork-join pool; a nil
// pool runs sequentially, which the interpreter uses for nested
// parallel constructs (matching the generated C, which parallelizes
// the outermost construct only).
//
// Every construct takes an Exec describing its execution environment:
// pool, allocation budget and cancellation context. The first body
// error, recovered worker panic, or deadline expiry aborts the
// remaining iteration space cooperatively (per-row abort-flag and
// context polls), so a poisoned row cannot keep the pool grinding
// through millions of doomed iterations.
package matrix

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/par"
)

// Exec is the execution environment threaded through the parallel
// constructs: Pool distributes the outermost dimension (nil =
// sequential), Budget caps allocations (nil = unlimited), and Ctx is
// polled between rows so a deadline is observed mid-construct (nil =
// never cancelled). The zero Exec is sequential and unbounded.
type Exec struct {
	Pool   *par.Pool
	Budget *Budget
	Ctx    context.Context
}

// cancelled polls the context without blocking.
func (x Exec) cancelled() error {
	if x.Ctx == nil {
		return nil
	}
	select {
	case <-x.Ctx.Done():
		return x.Ctx.Err()
	default:
		return nil
	}
}

// BodyFunc computes a with-loop body value at one generator index.
// The idx slice must not be retained.
type BodyFunc func(idx []int) (any, error)

// GenArray implements
//
//	with ([lower] <= [ids] < [upper]) genarray([shape], body)
//
// on a bare pool with no budget or deadline; see GenArrayExec.
func GenArray(elem Elem, lower, upper, shape []int, body BodyFunc, pool *par.Pool) (*Matrix, error) {
	return GenArrayExec(elem, lower, upper, shape, body, Exec{Pool: pool})
}

// GenArrayExec produces a matrix of the given element type and shape
// whose cells inside the generator box hold body(idx) and 0 elsewhere.
// As §III-A.4 requires, the shape must be a superset of the generator
// box — a runtime check. The output allocation is charged against
// x.Budget before any storage is made.
func GenArrayExec(elem Elem, lower, upper, shape []int, body BodyFunc, x Exec) (*Matrix, error) {
	n, err := genArrayAdmit(lower, upper, shape)
	if err != nil {
		return nil, err
	}
	out, err := allocCharged(x.Budget, elem, shape, n, true)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return out, nil
	}
	n0 := upper[0] - lower[0]
	runRow := func(i0 int) error {
		lo := append([]int{i0}, lower[1:]...)
		hi := append([]int{i0 + 1}, upper[1:]...)
		var ierr error
		indexSpace(lo, hi, func(idx []int) {
			if ierr != nil {
				return
			}
			v, err := body(idx)
			if err != nil {
				ierr = err
				return
			}
			off, err := out.Offset(idx)
			if err != nil {
				ierr = err
				return
			}
			if err := out.Set(off, v); err != nil {
				ierr = err
			}
		})
		return ierr
	}
	if x.Pool == nil || n0 < 2 {
		for i0 := lower[0]; i0 < upper[0]; i0++ {
			if err := x.cancelled(); err != nil {
				return nil, err
			}
			if err := runRow(i0); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if err := x.Pool.ParallelForCtx(x.Ctx, lower[0], upper[0], runRow); err != nil {
		return nil, err
	}
	return out, nil
}

// genArrayAdmit validates a genarray's shape against its generator
// box — rank, then size, then the §III-A.4 superset rule — and returns
// the output's cell count. GenArrayExec and GenArrayFlat both admit
// through it, so their errors are one text by construction.
func genArrayAdmit(lower, upper, shape []int) (int, error) {
	if len(lower) != len(shape) || len(upper) != len(shape) {
		return 0, fmt.Errorf("matrix: genarray shape rank %d does not match generator rank %d",
			len(shape), len(lower))
	}
	n, err := checkedSize(shape)
	if err != nil {
		return 0, err
	}
	for d := range shape {
		if lower[d] < 0 || upper[d] > shape[d] {
			return 0, fmt.Errorf(
				"matrix: genarray shape %v is not a superset of the generator box [%v, %v) in dimension %d",
				shape, lower, upper, d)
		}
	}
	return n, nil
}

// FoldKind is the fold operator of §III-A.4.
type FoldKind int

// Fold operators.
const (
	FoldAdd FoldKind = iota
	FoldMul
	FoldMin
	FoldMax
)

func (k FoldKind) String() string {
	switch k {
	case FoldAdd:
		return "+"
	case FoldMul:
		return "*"
	case FoldMin:
		return "min"
	case FoldMax:
		return "max"
	}
	return "?"
}

// combine is the typed fold step; its min/max forms reproduce
// foldCombine's OpLt tie-breaking exactly (min of equal values keeps
// the right operand, max keeps the left; a NaN comparison is false, so
// min picks the right operand and max the left — identical to the
// boxed path).
func combine[T int64 | float64](kind FoldKind, a, b T) T {
	switch kind {
	case FoldAdd:
		return a + b
	case FoldMul:
		return a * b
	case FoldMin:
		if a < b {
			return a
		}
		return b
	default:
		if a < b {
			return b
		}
		return a
	}
}

// foldAcc is FoldExec's accumulator: typed int/float lanes so the
// common folds never re-box the accumulator through interface{} per
// element, plus a boxed lane that reproduces foldCombine verbatim for
// anything else (including its error texts). Lane switches follow
// scalarOp promotion for add/mul; min/max keep the winning operand's
// own type, exactly as the boxed OpLt path does.
type foldAcc struct {
	kind FoldKind
	mode uint8 // faInt | faFloat | faBoxed
	i    int64
	f    float64
	v    any
}

const (
	faInt uint8 = iota
	faFloat
	faBoxed
)

func newFoldAcc(kind FoldKind, init any) foldAcc {
	switch x := init.(type) {
	case int64:
		return foldAcc{kind: kind, mode: faInt, i: x}
	case float64:
		return foldAcc{kind: kind, mode: faFloat, f: x}
	}
	return foldAcc{kind: kind, mode: faBoxed, v: init}
}

// value boxes the accumulator back to the interface form callers see.
func (a *foldAcc) value() any {
	switch a.mode {
	case faInt:
		return a.i
	case faFloat:
		return a.f
	}
	return a.v
}

func (a *foldAcc) combine(v any) error {
	switch a.mode {
	case faInt:
		switch x := v.(type) {
		case int64:
			a.i = combine(a.kind, a.i, x)
			return nil
		case float64:
			if a.kind == FoldMin || a.kind == FoldMax {
				// The winner keeps its own type, like foldCombine's
				// OpLt path returning a or b unconverted.
				if (float64(a.i) < x) == (a.kind == FoldMax) {
					a.mode, a.f = faFloat, x
				}
				return nil
			}
			a.mode, a.f = faFloat, combine(a.kind, float64(a.i), x)
			return nil
		}
	case faFloat:
		switch x := v.(type) {
		case float64:
			a.f = combine(a.kind, a.f, x)
			return nil
		case int64:
			if a.kind == FoldMin || a.kind == FoldMax {
				if (a.f < float64(x)) == (a.kind == FoldMax) {
					a.mode, a.i = faInt, x
				}
				return nil
			}
			a.f = combine(a.kind, a.f, float64(x))
			return nil
		}
	}
	// Anything else goes through the boxed reference path.
	nv, err := foldCombine(a.kind, a.value(), v)
	if err != nil {
		return err
	}
	*a = newFoldAcc(a.kind, nv)
	return nil
}

func foldCombine(kind FoldKind, a, b any) (any, error) {
	switch kind {
	case FoldAdd:
		return scalarOp(OpAdd, a, b)
	case FoldMul:
		return scalarOp(OpMul, a, b)
	case FoldMin, FoldMax:
		lt, err := scalarOp(OpLt, a, b)
		if err != nil {
			return nil, err
		}
		if lt.(bool) == (kind == FoldMin) {
			return a, nil
		}
		return b, nil
	}
	return nil, fmt.Errorf("matrix: unknown fold kind %d", kind)
}

// Fold implements
//
//	with ([lower] <= [ids] < [upper]) fold(op, base, body)
//
// on a bare pool with no budget or deadline; see FoldExec.
func Fold(kind FoldKind, base any, lower, upper []int, body BodyFunc, pool *par.Pool) (any, error) {
	return FoldExec(kind, base, lower, upper, body, Exec{Pool: pool})
}

// FoldExec reduces body over the generator box with the associative
// operator, starting from base. When a pool is supplied the outermost
// dimension is folded in per-worker partials combined after the stop
// barrier — valid because the fold operators are associative and
// commutative. The first row error aborts the other workers' remaining
// rows through the pool's abort flag.
func FoldExec(kind FoldKind, base any, lower, upper []int, body BodyFunc, x Exec) (any, error) {
	if len(lower) != len(upper) {
		return nil, errFoldRank
	}
	if len(lower) == 0 {
		return base, nil
	}
	// Each goroutine folds rows through its own folder so the index
	// buffer is allocated once, not per row (bodies receive idx for the
	// duration of one call only, exactly like indexSpace).
	rank := len(lower)
	newRowFolder := func() func(i0 int, acc *foldAcc) error {
		idx := make([]int, rank)
		return func(i0 int, acc *foldAcc) error {
			copy(idx, lower)
			idx[0] = i0
			for d := 1; d < rank; d++ {
				if lower[d] >= upper[d] {
					return nil
				}
			}
			for {
				v, err := body(idx)
				if err != nil {
					return err
				}
				if err := acc.combine(v); err != nil {
					return err
				}
				d := rank - 1
				for ; d >= 1; d-- {
					idx[d]++
					if idx[d] < upper[d] {
						break
					}
					idx[d] = lower[d]
				}
				if d < 1 {
					return nil
				}
			}
		}
	}
	ident := func() (foldAcc, error) {
		v, err := foldIdentity(kind, base)
		return newFoldAcc(kind, v), err
	}
	merge := func(acc *foldAcc, part foldAcc) error { return acc.combine(part.value()) }
	acc, err := foldRows(x, lower[0], upper[0], newFoldAcc(kind, base), ident, newRowFolder, merge)
	if err != nil {
		return nil, err
	}
	return acc.value(), nil
}

// errFoldRank is the fold admission error for a generator whose lower
// and upper bounds differ in rank.
var errFoldRank = errors.New("matrix: fold generator rank mismatch")

// foldRows is the row driver FoldExec and FoldFlat share, over the
// outermost generator dimension [lo, hi) with accumulator type A.
// newRow returns a row folder with its own scratch, one per goroutine.
// Without a pool (or with fewer than two rows) one accumulator seeded
// with base folds every row, with a context poll before each.
// Otherwise each worker folds a ceil-sized chunk of rows into a
// partial seeded with ident(), polling the pool's abort flag and the
// context per row; base then merges the completed partials in worker
// order — valid because the fold operators are associative and
// commutative, and the same order on both engines, so float results
// agree bit for bit. The first row error aborts the other workers.
func foldRows[A any](x Exec, lo, hi int, base A, ident func() (A, error),
	newRow func() func(i0 int, acc *A) error, merge func(acc *A, part A) error) (A, error) {
	if x.Pool == nil || hi-lo < 2 {
		acc := base
		row := newRow()
		for i0 := lo; i0 < hi; i0++ {
			if err := x.cancelled(); err != nil {
				return acc, err
			}
			if err := row(i0, &acc); err != nil {
				return acc, err
			}
		}
		return acc, nil
	}
	seed, err := ident()
	if err != nil {
		return base, err
	}
	pool := x.Pool
	partials := make([]A, pool.Workers())
	done := make([]bool, len(partials))
	err = pool.RunErr(func(worker, workers int) error {
		chunk := (hi - lo + workers - 1) / workers
		start := lo + worker*chunk
		end := min(start+chunk, hi)
		acc := seed
		row := newRow()
		for i0 := start; i0 < end; i0++ {
			if pool.Aborted() {
				return nil
			}
			if err := x.cancelled(); err != nil {
				return err
			}
			if err := row(i0, &acc); err != nil {
				return err
			}
		}
		partials[worker], done[worker] = acc, true
		return nil
	})
	if err != nil {
		return base, err
	}
	acc := base
	for w, part := range partials {
		if done[w] {
			if err := merge(&acc, part); err != nil {
				return acc, err
			}
		}
	}
	return acc, nil
}

// foldIdentity returns the identity element of kind in the numeric
// type of base.
func foldIdentity(kind FoldKind, base any) (any, error) {
	_, isInt := toInt(base)
	switch kind {
	case FoldAdd:
		if isInt {
			return int64(0), nil
		}
		return float64(0), nil
	case FoldMul:
		if isInt {
			return int64(1), nil
		}
		return float64(1), nil
	case FoldMin:
		if isInt {
			return int64(1) << 62, nil
		}
		return float64(1e308), nil
	case FoldMax:
		if isInt {
			return int64(-1) << 62, nil
		}
		return float64(-1e308), nil
	}
	return nil, fmt.Errorf("matrix: unknown fold kind %d", kind)
}

// MapFunc applies a user function to one sub-matrix in matrixMap.
type MapFunc func(sub *Matrix) (*Matrix, error)

// MatrixMap implements matrixMap(f, m, dims) on a bare pool with no
// budget or deadline; see MatrixMapExec.
func MatrixMap(m *Matrix, dims []int, outElem Elem, f MapFunc, pool *par.Pool) (*Matrix, error) {
	return MatrixMapExec(m, dims, outElem, f, Exec{Pool: pool})
}

// MatrixMapExec implements matrixMap(f, m, dims) (§III-A.5): f is
// applied to the sub-matrix spanned by dims at every combination of
// the remaining dimensions, which are iterated — in parallel on the
// pool — and the results are reassembled into a matrix of m's shape
// ("the result is always the same size and rank as the matrix getting
// mapped over"). outElem is the element type of f's results.
func MatrixMapExec(m *Matrix, dims []int, outElem Elem, f MapFunc, x Exec) (*Matrix, error) {
	rank := m.Rank()
	isMapped := make([]bool, rank)
	for _, d := range dims {
		if d < 0 || d >= rank {
			return nil, fmt.Errorf("matrix: matrixMap dimension %d out of range for rank %d", d, rank)
		}
		if isMapped[d] {
			return nil, fmt.Errorf("matrix: duplicate matrixMap dimension %d", d)
		}
		isMapped[d] = true
	}
	var iterDims []int
	for d := 0; d < rank; d++ {
		if !isMapped[d] {
			iterDims = append(iterDims, d)
		}
	}
	if len(iterDims) == 0 || len(dims) == 0 {
		return nil, fmt.Errorf("matrix: matrixMap must keep between 1 and rank-1 dimensions")
	}
	out, err := NewBudgeted(x.Budget, outElem, m.shape...)
	if err != nil {
		return nil, err
	}
	// Enumerate the iteration space linearly so the pool can split it.
	iterSize := 1
	for _, d := range iterDims {
		iterSize *= m.shape[d]
	}
	var wantShape []int
	for _, d := range dims {
		wantShape = append(wantShape, m.shape[d])
	}
	runOne := func(it int) error {
		// decode iteration index -> positions of the iterated dims
		specs := make([]IndexSpec, rank)
		rem := it
		for k := len(iterDims) - 1; k >= 0; k-- {
			d := iterDims[k]
			specs[d] = Scalar(rem % m.shape[d])
			rem /= m.shape[d]
		}
		for _, d := range dims {
			specs[d] = All()
		}
		subAny, err := m.Index(specs...)
		if err != nil {
			return err
		}
		sub := subAny.(*Matrix)
		res, err := f(sub)
		if err != nil {
			return err
		}
		if res.Rank() != len(dims) {
			return fmt.Errorf("matrix: matrixMap function returned rank %d, want %d", res.Rank(), len(dims))
		}
		for k, d := range dims {
			if res.shape[k] != m.shape[d] {
				return fmt.Errorf("matrix: matrixMap function changed dimension size %v -> %v (result must have the mapped dimensions' sizes %v)",
					m.shape[d], res.shape[k], wantShape)
			}
		}
		if res.elem != outElem {
			return fmt.Errorf("matrix: matrixMap function returned %s elements, want %s", res.elem, outElem)
		}
		return out.SetIndex(res, specs...)
	}
	if x.Pool == nil || iterSize < 2 {
		for it := 0; it < iterSize; it++ {
			if err := x.cancelled(); err != nil {
				return nil, err
			}
			if err := runOne(it); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if err := x.Pool.ParallelForCtx(x.Ctx, 0, iterSize, runOne); err != nil {
		return nil, err
	}
	return out, nil
}

// MatrixMapG is MatrixMapGExec on a bare pool; see MatrixMapGExec.
func MatrixMapG(m *Matrix, dims []int, outElem Elem, f MapFunc, pool *par.Pool) (*Matrix, error) {
	return MatrixMapGExec(m, dims, outElem, f, Exec{Pool: pool})
}

// MatrixMapGExec is the generalized matrixMap the paper describes as
// in development ("a generalization of this extension that removes
// this restriction is being developed", §III-A.5): the mapped function
// may return sub-matrices of a different size than it was given. The
// output's mapped-dimension sizes are discovered from the first
// application; every application must agree (checked at runtime).
func MatrixMapGExec(m *Matrix, dims []int, outElem Elem, f MapFunc, x Exec) (*Matrix, error) {
	rank := m.Rank()
	isMapped := make([]bool, rank)
	for _, d := range dims {
		if d < 0 || d >= rank {
			return nil, fmt.Errorf("matrix: matrixMapG dimension %d out of range for rank %d", d, rank)
		}
		if isMapped[d] {
			return nil, fmt.Errorf("matrix: duplicate matrixMapG dimension %d", d)
		}
		isMapped[d] = true
	}
	var iterDims []int
	for d := 0; d < rank; d++ {
		if !isMapped[d] {
			iterDims = append(iterDims, d)
		}
	}
	if len(iterDims) == 0 || len(dims) == 0 {
		return nil, fmt.Errorf("matrix: matrixMapG must keep between 1 and rank-1 dimensions")
	}
	iterSize := 1
	for _, d := range iterDims {
		iterSize *= m.shape[d]
	}
	specsFor := func(it int) []IndexSpec {
		specs := make([]IndexSpec, rank)
		rem := it
		for k := len(iterDims) - 1; k >= 0; k-- {
			d := iterDims[k]
			specs[d] = Scalar(rem % m.shape[d])
			rem /= m.shape[d]
		}
		for _, d := range dims {
			specs[d] = All()
		}
		return specs
	}
	apply := func(it int) (*Matrix, error) {
		subAny, err := m.Index(specsFor(it)...)
		if err != nil {
			return nil, err
		}
		res, err := f(subAny.(*Matrix))
		if err != nil {
			return nil, err
		}
		if res.Rank() != len(dims) {
			return nil, fmt.Errorf("matrix: matrixMapG function returned rank %d, want %d", res.Rank(), len(dims))
		}
		if res.elem != outElem {
			return nil, fmt.Errorf("matrix: matrixMapG function returned %s elements, want %s", res.elem, outElem)
		}
		return res, nil
	}
	if iterSize == 0 {
		return NewBudgeted(x.Budget, outElem, m.shape...)
	}
	// Discover the output's mapped-dimension sizes from application 0.
	first, err := apply(0)
	if err != nil {
		return nil, err
	}
	outShape := m.Shape()
	for k, d := range dims {
		outShape[d] = first.shape[k]
	}
	out, err := NewBudgeted(x.Budget, outElem, outShape...)
	if err != nil {
		return nil, err
	}
	store := func(it int, res *Matrix) error {
		for k, d := range dims {
			if res.shape[k] != out.shape[d] {
				return fmt.Errorf("matrix: matrixMapG applications disagree on result size (%v vs %v along dimension %d)",
					res.shape[k], out.shape[d], d)
			}
		}
		// The iterated positions are valid in out (same sizes there);
		// the All() specs resolve against out's own mapped sizes.
		return out.SetIndex(res, specsFor(it)...)
	}
	if err := store(0, first); err != nil {
		return nil, err
	}
	runOne := func(it int) error {
		res, err := apply(it)
		if err != nil {
			return err
		}
		return store(it, res)
	}
	if x.Pool == nil || iterSize < 3 {
		for it := 1; it < iterSize; it++ {
			if err := x.cancelled(); err != nil {
				return nil, err
			}
			if err := runOne(it); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if err := x.Pool.ParallelForCtx(x.Ctx, 1, iterSize, runOne); err != nil {
		return nil, err
	}
	return out, nil
}
