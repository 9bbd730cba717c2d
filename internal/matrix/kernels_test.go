// Differential tests pinning the specialized kernels (kernels.go)
// against the retained boxed reference path (*Ref in ops.go), plus
// kernel-specific behavior: validate-before-allocate, cancellation,
// parallel/serial counters, and backing-slice reuse.
//
// Error-parity rule: when the reference errors on a non-empty input the
// kernel must error too (texts are pinned separately in
// TestKernelErrorTexts); on EMPTY inputs the kernel is deliberately
// stricter — the reference discovers type errors per element, so an
// invalid (op, elem) combination "succeeds" on zero elements, while the
// kernels validate the combination up front regardless of size.
package matrix

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/par"
)

var kernelOps = []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr}

// randKernelMat fills a matrix with values that exercise the kernels:
// ints include zeros (division/modulo error parity), floats never hit
// exact zero (no NaN/Inf, so exact equality against the reference is
// meaningful).
func randKernelMat(r *rand.Rand, elem Elem, shape ...int) *Matrix {
	m := New(elem, shape...)
	switch elem {
	case Float:
		for k := range m.f {
			v := 0.25 + 3*r.Float64()
			if r.Intn(2) == 0 {
				v = -v
			}
			m.f[k] = v
		}
	case Int:
		for k := range m.i {
			m.i[k] = int64(r.Intn(9) - 4)
		}
	case Bool:
		for k := range m.b {
			m.b[k] = r.Intn(2) == 0
		}
	}
	return m
}

// checkKernelDiff applies the error-parity rule and compares values.
// matmulEps > 0 compares floats with a tolerance (the blocked kernel
// sums in a different order than the reference).
func checkKernelDiff(t *testing.T, label string, got *Matrix, gerr error, want *Matrix, werr error, size int, matmulEps float64) {
	t.Helper()
	if gerr != nil {
		if werr == nil && size > 0 {
			t.Fatalf("%s: kernel error %v, reference succeeded", label, gerr)
		}
		return
	}
	if werr != nil {
		t.Fatalf("%s: kernel succeeded, reference failed: %v", label, werr)
	}
	if got.Elem() != want.Elem() {
		t.Fatalf("%s: kernel elem %v, reference elem %v", label, got.Elem(), want.Elem())
	}
	if matmulEps > 0 {
		if !AlmostEqual(got, want, matmulEps) {
			t.Fatalf("%s: kernel result differs from reference:\n  got  %v\n  want %v", label, got, want)
		}
		return
	}
	if !Equal(got, want) {
		t.Fatalf("%s: kernel result differs from reference:\n  got  %v\n  want %v", label, got, want)
	}
}

// kernelExecs returns the serial and pool-parallel environments the
// differential suites run every case under. The returned cleanup
// restores ParallelGrain and shuts the pool down.
func kernelExecs(t *testing.T) map[string]Exec {
	t.Helper()
	oldGrain := ParallelGrain
	ParallelGrain = 64 // force the parallel path on small test matrices
	pool := par.NewPool(4)
	t.Cleanup(func() {
		ParallelGrain = oldGrain
		pool.Shutdown()
	})
	return map[string]Exec{
		"serial":   {},
		"parallel": {Pool: pool, Ctx: context.Background()},
	}
}

func TestKernelDiffElementwise(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	execs := kernelExecs(t)
	elems := []Elem{Float, Int, Bool}
	shapes := [][]int{{0}, {1}, {7}, {3, 5}, {257}, {2, 3, 4}}
	for _, shape := range shapes {
		for _, ae := range elems {
			for _, be := range elems {
				a := randKernelMat(r, ae, shape...)
				b := randKernelMat(r, be, shape...)
				for _, op := range kernelOps {
					want, werr := ElementwiseRef(op, a, b)
					for mode, x := range execs {
						got, gerr := ElementwiseExec(op, a, b, x)
						label := mode + " " + op.String() + " " + a.String() + " " + b.String()
						checkKernelDiff(t, label, got, gerr, want, werr, a.Size(), 0)
					}
				}
			}
		}
	}
	// Shape mismatch stays an error on both paths.
	a := randKernelMat(r, Float, 2, 3)
	b := randKernelMat(r, Float, 3, 2)
	if _, err := ElementwiseExec(OpAdd, a, b, Exec{}); err == nil {
		t.Fatal("shape mismatch not rejected")
	}
}

func TestKernelDiffBroadcast(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	execs := kernelExecs(t)
	elems := []Elem{Float, Int, Bool}
	scalars := []any{2.5, -0.75, int64(3), int64(0), int64(-2), 4, true, false, "bad"}
	shapes := [][]int{{0}, {1}, {6}, {4, 5}, {259}}
	for _, shape := range shapes {
		for _, me := range elems {
			m := randKernelMat(r, me, shape...)
			for _, s := range scalars {
				for _, matLeft := range []bool{true, false} {
					for _, op := range kernelOps {
						want, werr := BroadcastRef(op, m, s, matLeft)
						for mode, x := range execs {
							got, gerr := BroadcastExec(op, m, s, matLeft, x)
							label := mode + " " + op.String() + " " + m.String()
							checkKernelDiff(t, label, got, gerr, want, werr, m.Size(), 0)
						}
					}
				}
			}
		}
	}
}

func TestKernelDiffUnary(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	execs := kernelExecs(t)
	for _, elem := range []Elem{Float, Int, Bool} {
		for _, shape := range [][]int{{0}, {1}, {5, 3}, {300}} {
			m := randKernelMat(r, elem, shape...)
			for _, neg := range []bool{true, false} {
				want, werr := UnaryRef(neg, m)
				for mode, x := range execs {
					got, gerr := UnaryExec(neg, m, x)
					checkKernelDiff(t, mode+" unary "+m.String(), got, gerr, want, werr, m.Size(), 0)
				}
			}
		}
	}
}

func TestKernelDiffMatMul(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	execs := kernelExecs(t)
	elems := []Elem{Float, Int}
	dims := [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 1, 5}, {17, 33, 9}, {31, 200, 7}, {0, 3, 4}, {3, 0, 4}}
	for _, d := range dims {
		for _, ae := range elems {
			for _, be := range elems {
				a := randKernelMat(r, ae, d[0], d[1])
				b := randKernelMat(r, be, d[1], d[2])
				want, werr := MatMulRef(a, b)
				for mode, x := range execs {
					got, gerr := MatMulExec(a, b, x)
					eps := 1e-9
					if ae == Int && be == Int {
						eps = 0
					}
					checkKernelDiff(t, mode+" matmul "+a.String()+" "+b.String(), got, gerr, want, werr, d[0]*d[2], eps)
				}
			}
		}
	}
	// Error cases: rank, inner-dimension mismatch, bool operands.
	bad := [][2]*Matrix{
		{New(Float, 4), New(Float, 4, 4)},
		{New(Float, 2, 3), New(Float, 4, 2)},
		{New(Bool, 2, 2), New(Float, 2, 2)},
	}
	for _, pair := range bad {
		_, werr := MatMulRef(pair[0], pair[1])
		_, gerr := MatMulExec(pair[0], pair[1], Exec{})
		if werr == nil || gerr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("matmul error parity: kernel %v, reference %v", gerr, werr)
		}
	}
}

// FuzzKernelDiff drives random (op, shape, elem, scalar, mode)
// combinations through every kernel: the operator kernels against the
// boxed reference, the transpose tiles against the closure engine.
func FuzzKernelDiff(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	pool := par.NewPool(4)
	defer pool.Shutdown()
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		elems := []Elem{Float, Int, Bool}
		// Random shape, sometimes large enough for the parallel path at
		// the default grain.
		var shape []int
		for d, rank := 0, 1+r.Intn(3); d < rank; d++ {
			shape = append(shape, r.Intn(8))
		}
		if r.Intn(4) == 0 {
			shape = []int{2*ParallelGrain + r.Intn(100)}
		}
		x := Exec{}
		if r.Intn(2) == 0 {
			x = Exec{Pool: pool, Ctx: context.Background()}
		}
		op := kernelOps[r.Intn(len(kernelOps))]
		size := 1
		for _, d := range shape {
			size *= d
		}
		switch r.Intn(5) {
		case 0:
			a := randKernelMat(r, elems[r.Intn(3)], shape...)
			b := randKernelMat(r, elems[r.Intn(3)], shape...)
			want, werr := ElementwiseRef(op, a, b)
			got, gerr := ElementwiseExec(op, a, b, x)
			checkKernelDiff(t, "fuzz ew "+op.String(), got, gerr, want, werr, size, 0)
		case 1:
			m := randKernelMat(r, elems[r.Intn(3)], shape...)
			scalars := []any{1.5, int64(r.Intn(5) - 2), true}
			s := scalars[r.Intn(len(scalars))]
			matLeft := r.Intn(2) == 0
			want, werr := BroadcastRef(op, m, s, matLeft)
			got, gerr := BroadcastExec(op, m, s, matLeft, x)
			checkKernelDiff(t, "fuzz bc "+op.String(), got, gerr, want, werr, size, 0)
		case 2:
			m := randKernelMat(r, elems[r.Intn(3)], shape...)
			neg := r.Intn(2) == 0
			want, werr := UnaryRef(neg, m)
			got, gerr := UnaryExec(neg, m, x)
			checkKernelDiff(t, "fuzz unary", got, gerr, want, werr, size, 0)
		case 3:
			mi, k, n := r.Intn(6), r.Intn(6), r.Intn(6)
			a := randKernelMat(r, elems[r.Intn(2)], mi, k)
			b := randKernelMat(r, elems[r.Intn(2)], k, n)
			want, werr := MatMulRef(a, b)
			got, gerr := MatMulExec(a, b, x)
			eps := 0.0
			if a.Elem() == Float || b.Elem() == Float {
				eps = 1e-9
			}
			checkKernelDiff(t, "fuzz matmul", got, gerr, want, werr, mi*n, eps)
		case 4:
			m := randKernelMat(r, elems[r.Intn(2)], r.Intn(40), r.Intn(40))
			diffFlatTranspose(t, "fuzz transpose", m, x)
		}
	})
}

// TestKernelErrorTexts pins the kernel-path error messages (the texts
// the interpreter's trap classifier and users see).
func TestKernelErrorTexts(t *testing.T) {
	f := New(Float, 2)
	i2 := FromInts([]int64{4, 6}, 2)
	iz := FromInts([]int64{1, 0}, 2)
	bl := FromBools([]bool{true, false}, 2)
	cases := []struct {
		err  error
		want string
	}{
		{errOf(ElementwiseExec(OpAdd, f, New(Float, 3), Exec{})), "matrix: + requires equal shapes, got [2] and [3]"},
		{errOf(ElementwiseExec(OpDiv, i2, iz, Exec{})), "matrix: integer division by zero"},
		{errOf(ElementwiseExec(OpMod, i2, iz, Exec{})), "matrix: integer modulo by zero"},
		{errOf(ElementwiseExec(OpMod, f, i2, Exec{})), "matrix: % is not a float operator"},
		{errOf(ElementwiseExec(OpAnd, f, f, Exec{})), "matrix: && requires bool operands"},
		{errOf(ElementwiseExec(OpLt, bl, bl, Exec{})), "matrix: < cannot compare bool values"},
		{errOf(ElementwiseExec(OpAdd, bl, i2, Exec{})), "matrix: + cannot compare bool values"},
		{errOf(BroadcastExec(OpDiv, i2, 0, true, Exec{})), "matrix: integer division by zero"},
		{errOf(BroadcastExec(OpMod, i2, 0, true, Exec{})), "matrix: integer modulo by zero"},
		{errOf(BroadcastExec(OpDiv, iz, int64(7), false, Exec{})), "matrix: integer division by zero"},
		{errOf(BroadcastExec(OpAdd, f, "nope", true, Exec{})), "matrix: + cannot be applied to a string operand"},
		{errOf(MatMulExec(New(Float, 4), New(Float, 4, 4), Exec{})), "matrix: matmul requires rank-2 matrices, got ranks 1 and 2"},
		{errOf(MatMulExec(New(Float, 2, 3), New(Float, 4, 2), Exec{})), "matrix: matmul dimension mismatch: [2 3] x [4 2]"},
		{errOf(MatMulExec(New(Bool, 2, 2), New(Float, 2, 2), Exec{})), "matrix: matmul requires numeric matrices"},
		{errOf(UnaryExec(true, bl, Exec{})), "matrix: cannot negate a bool matrix"},
		{errOf(UnaryExec(false, f, Exec{})), "matrix: logical not requires a bool matrix"},
	}
	for _, c := range cases {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("error text: got %v, want %q", c.err, c.want)
		}
	}
}

func errOf(_ *Matrix, err error) error { return err }

// TestKernelValidateBeforeAllocate: an invalid (op, elem) combination
// must not charge the budget — validation happens before any
// allocation (the satellite fix for the old allocate-then-fail order).
func TestKernelValidateBeforeAllocate(t *testing.T) {
	f := New(Float, 8)
	bl := New(Bool, 8)
	iz := New(Int, 8) // zeros
	cases := []func(x Exec) error{
		func(x Exec) error { return errOf(ElementwiseExec(OpAnd, f, f, x)) },
		func(x Exec) error { return errOf(ElementwiseExec(OpLt, bl, bl, x)) },
		func(x Exec) error { return errOf(ElementwiseExec(OpMod, f, f, x)) },
		func(x Exec) error { return errOf(BroadcastExec(OpDiv, iz, 0, true, x)) },
		func(x Exec) error { return errOf(BroadcastExec(OpAdd, f, "nope", true, x)) },
		func(x Exec) error { return errOf(UnaryExec(true, bl, x)) },
		func(x Exec) error { return errOf(MatMulExec(bl, bl, x)) },
	}
	for k, run := range cases {
		budget := NewBudget(1 << 20)
		if err := run(Exec{Budget: budget}); err == nil {
			t.Fatalf("case %d: invalid combination did not error", k)
		}
		if used := budget.Used(); used != 0 {
			t.Fatalf("case %d: invalid combination charged %d cells before failing", k, used)
		}
	}
}

// TestKernelBudgetError: a denied charge surfaces as *BudgetError and
// nothing is retained.
func TestKernelBudgetError(t *testing.T) {
	a := New(Float, 100)
	budget := NewBudget(10)
	_, err := ElementwiseExec(OpAdd, a, a, Exec{Budget: budget})
	var be *BudgetError
	if err == nil || !asBudgetError(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
}

func asBudgetError(err error, out **BudgetError) bool {
	be, ok := err.(*BudgetError)
	if ok {
		*out = be
	}
	return ok
}

// TestKernelCancellation: a cancelled context aborts both the serial
// and the pool path mid-kernel.
func TestKernelCancellation(t *testing.T) {
	oldGrain := ParallelGrain
	ParallelGrain = 64
	pool := par.NewPool(2)
	defer func() {
		ParallelGrain = oldGrain
		pool.Shutdown()
	}()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := New(Float, 10000)
	for _, x := range []Exec{{Ctx: ctx}, {Pool: pool, Ctx: ctx}} {
		if _, err := ElementwiseExec(OpAdd, a, a, x); err == nil || !strings.Contains(err.Error(), "context canceled") {
			t.Fatalf("cancelled kernel returned %v", err)
		}
	}
}

// TestKernelCounters: large pooled kernels count as parallel, small or
// poolless ones as serial.
func TestKernelCounters(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Shutdown()
	ResetKernelStats()
	big := New(Float, 4*ParallelGrain)
	if _, err := ElementwiseExec(OpAdd, big, big, Exec{Pool: pool}); err != nil {
		t.Fatal(err)
	}
	small := New(Float, 8)
	if _, err := ElementwiseExec(OpAdd, small, small, Exec{Pool: pool}); err != nil {
		t.Fatal(err)
	}
	if _, err := ElementwiseExec(OpAdd, big, big, Exec{}); err != nil {
		t.Fatal(err)
	}
	par, ser, _ := KernelStats()
	if par != 1 || ser != 2 {
		t.Fatalf("counters: parallel=%d serial=%d, want 1 and 2", par, ser)
	}
}

// TestKernelBufferReuse: recycling a kernel output feeds the next
// same-size output from the free list, and the reused buffer's stale
// contents are fully overwritten.
func TestKernelBufferReuse(t *testing.T) {
	DrainFreeLists()
	ResetKernelStats()
	a := randKernelMat(rand.New(rand.NewSource(5)), Float, 1024)
	out1, err := ElementwiseExec(OpAdd, a, a, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	want := out1.Copy()
	out1.Recycle()
	out2, err := ElementwiseExec(OpAdd, a, a, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, reused := KernelStats(); reused != 1 {
		t.Fatalf("buffers reused = %d, want 1", reused)
	}
	if !Equal(out2, want) {
		t.Fatal("reused buffer produced a different result")
	}
	// Budget accounting stays exact: reuse still charges.
	DrainFreeLists()
	budget := NewBudget(4096)
	out3, err := ElementwiseExec(OpAdd, a, a, Exec{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	out3.Recycle()
	if _, err := ElementwiseExec(OpAdd, a, a, Exec{Budget: budget}); err != nil {
		t.Fatal(err)
	}
	if used := budget.Used(); used != 2048 {
		t.Fatalf("budget.Used() = %d after two 1024-cell outputs, want 2048", used)
	}
	DrainFreeLists()
}

// TestRecycleDetachesStorage: after Recycle the matrix no longer owns
// storage — element access panics instead of silently reading a buffer
// that may belong to someone else. Recycle is idempotent.
func TestRecycleDetachesStorage(t *testing.T) {
	DrainFreeLists()
	m := New(Float, 512)
	m.Recycle()
	m.Recycle() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("access after Recycle did not panic")
		}
		DrainFreeLists()
	}()
	_ = m.Get(0)
}

// TestNewBudgetedClearsReusedBuffer: NewBudgeted promises zeroed
// storage even when the slice comes from the free list.
func TestNewBudgetedClearsReusedBuffer(t *testing.T) {
	DrainFreeLists()
	m := New(Float, 512)
	for k := range m.f {
		m.f[k] = 7
	}
	m.Recycle()
	m2 := New(Float, 512)
	for k, v := range m2.f {
		if v != 0 {
			t.Fatalf("reused NewBudgeted slice not cleared at %d: %v", k, v)
		}
	}
	DrainFreeLists()
}

// TestFreeListBounds: tiny buffers are not retained, and class/byte
// caps bound retention.
func TestFreeListBounds(t *testing.T) {
	DrainFreeLists()
	ResetKernelStats()
	small := New(Float, 8) // below minReuseCells
	small.Recycle()
	if got := freeListBytes.Load(); got != 0 {
		t.Fatalf("free list retained a tiny buffer: %d bytes", got)
	}
	// Allocate first, then recycle — recycling one at a time would just
	// hand the same buffer back through NewBudgeted's free-list path.
	var ms []*Matrix
	for k := 0; k < 2*maxPerClass; k++ {
		ms = append(ms, New(Float, 512))
	}
	for _, m := range ms {
		m.Recycle()
	}
	floatFree.mu.Lock()
	n := len(floatFree.classes[9]) // 512 cells → class 9
	floatFree.mu.Unlock()
	if n != maxPerClass {
		t.Fatalf("class retention = %d, want %d", n, maxPerClass)
	}
	DrainFreeLists()
	if got := freeListBytes.Load(); got != 0 {
		t.Fatalf("drain left %d bytes accounted", got)
	}
}
