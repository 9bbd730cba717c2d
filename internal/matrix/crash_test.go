// Crash-proofing tests: allocation budgets, shape validation at the
// allocator, early abort of poisoned parallel constructs, context
// cancellation mid-construct, and the alloc-failure injection seam.
package matrix

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/par"
)

func TestBudgetCharge(t *testing.T) {
	b := NewBudget(100)
	if err := b.Charge(60); err != nil {
		t.Fatalf("first charge: %v", err)
	}
	if err := b.Charge(40); err != nil {
		t.Fatalf("second charge (exactly at limit): %v", err)
	}
	err := b.Charge(1)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("over-limit charge = %v, want *BudgetError", err)
	}
	if be.Requested != 1 || be.Used != 100 || be.Limit != 100 {
		t.Errorf("BudgetError = %+v, want {1 100 100}", *be)
	}
	// The failed charge was rolled back; a zero-cell charge still fits.
	if got := b.Used(); got != 100 {
		t.Errorf("Used = %d after rollback, want 100", got)
	}
	if b.Limit() != 100 {
		t.Errorf("Limit = %d", b.Limit())
	}
}

func TestBudgetNilUnlimited(t *testing.T) {
	var b *Budget
	if err := b.Charge(1 << 40); err != nil {
		t.Errorf("nil budget must never fail: %v", err)
	}
	if b.Used() != 0 || b.Limit() != 0 {
		t.Error("nil budget accessors must return 0")
	}
	if NewBudget(0) != nil || NewBudget(-5) != nil {
		t.Error("NewBudget(<=0) must return nil (unlimited)")
	}
}

func TestNewBudgetedDeniesOversized(t *testing.T) {
	b := NewBudget(1000)
	m, err := NewBudgeted(b, Float, 100, 100)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if m != nil {
		t.Error("denied allocation must return a nil matrix")
	}
	// Nothing was charged; a fitting allocation still succeeds.
	if _, err := NewBudgeted(b, Float, 10, 10); err != nil {
		t.Errorf("in-budget allocation after denial: %v", err)
	}
}

func TestCheckedSizeOverflowAndNegative(t *testing.T) {
	// ~2^62 cells: the product overflows a 64-bit int. This must fail
	// as a *ShapeError before any storage is touched.
	_, err := NewBudgeted(nil, Float, 1<<31, 1<<31)
	var se *ShapeError
	if !errors.As(err, &se) {
		t.Fatalf("overflow shape err = %v, want *ShapeError", err)
	}
	_, err = NewBudgeted(nil, Float, 3, -2)
	if !errors.As(err, &se) {
		t.Fatalf("negative dim err = %v, want *ShapeError", err)
	}
}

func TestNewPanicsWithShapeError(t *testing.T) {
	defer func() {
		r := recover()
		var se *ShapeError
		if err, ok := r.(error); !ok || !errors.As(err, &se) {
			t.Fatalf("New panicked with %v, want *ShapeError", r)
		}
	}()
	New(Float, -1)
}

func TestAllocFailInjection(t *testing.T) {
	injected := errors.New("allocator fault")
	TestHookAllocFail = func(cells int) error {
		if cells >= 50 {
			return injected
		}
		return nil
	}
	defer func() { TestHookAllocFail = nil }()
	if _, err := NewBudgeted(nil, Float, 10, 10); !errors.Is(err, injected) {
		t.Errorf("hook not consulted: err = %v", err)
	}
	if _, err := NewBudgeted(nil, Float, 7); err != nil {
		t.Errorf("small allocation should pass the hook: %v", err)
	}
}

func TestGenArrayExecBudget(t *testing.T) {
	body := func(idx []int) (any, error) { return float64(idx[0]), nil }
	x := Exec{Budget: NewBudget(10)}
	_, err := GenArrayExec(Float, []int{0, 0}, []int{100, 100}, []int{100, 100}, body, x)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if m, err := GenArrayExec(Float, []int{0}, []int{5}, []int{5}, body, x); err != nil || m == nil {
		t.Errorf("in-budget genarray failed: %v", err)
	}
}

// Regression: a poisoned row must abort the construct. Before the
// early-abort wiring, GenArray kept evaluating every remaining row
// after the first error; with one worker the order is deterministic, so
// exactly one body call may happen.
func TestGenArrayAbortsAfterFirstError(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Shutdown()
	bad := errors.New("poisoned row")
	var calls atomic.Int64
	_, err := GenArrayExec(Float, []int{0}, []int{1000}, []int{1000},
		func(idx []int) (any, error) {
			calls.Add(1)
			return nil, bad
		}, Exec{Pool: pool})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want poisoned row", err)
	}
	if calls.Load() != 1 {
		t.Errorf("body ran %d times after the poisoned row, want 1", calls.Load())
	}
}

func TestFoldAbortsAfterFirstError(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Shutdown()
	bad := errors.New("poisoned element")
	var calls atomic.Int64
	_, err := FoldExec(FoldAdd, float64(0), []int{0}, []int{1000},
		func(idx []int) (any, error) {
			calls.Add(1)
			return nil, bad
		}, Exec{Pool: pool})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want poisoned element", err)
	}
	if calls.Load() != 1 {
		t.Errorf("body ran %d times after the poisoned element, want 1", calls.Load())
	}
}

func TestMatrixMapAbortsAfterFirstError(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Shutdown()
	bad := errors.New("poisoned sub-matrix")
	var calls atomic.Int64
	m := New(Float, 1000, 4)
	_, err := MatrixMapExec(m, []int{1}, Float,
		func(sub *Matrix) (*Matrix, error) {
			calls.Add(1)
			return nil, bad
		}, Exec{Pool: pool})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want poisoned sub-matrix", err)
	}
	if calls.Load() != 1 {
		t.Errorf("map function ran %d times after the poisoned call, want 1", calls.Load())
	}
}

func TestGenArrayExecCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	// Sequential path (nil pool) must also observe the context.
	_, err := GenArrayExec(Float, []int{0}, []int{1000}, []int{1000},
		func(idx []int) (any, error) {
			calls.Add(1)
			return float64(0), nil
		}, Exec{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Errorf("%d rows ran under a cancelled context", calls.Load())
	}

	pool := par.NewPool(2)
	defer pool.Shutdown()
	_, err = GenArrayExec(Float, []int{0}, []int{1000}, []int{1000},
		func(idx []int) (any, error) { return float64(0), nil },
		Exec{Pool: pool, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pooled err = %v, want context.Canceled", err)
	}
}

// A panic inside a with-loop body under a pool must surface as an
// error (wrapping *par.PanicError), not crash the test process.
func TestGenArrayBodyPanicSurfacesAsError(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Shutdown()
	_, err := GenArrayExec(Float, []int{0}, []int{100}, []int{100},
		func(idx []int) (any, error) {
			if idx[0] == 37 {
				panic("body crash")
			}
			return float64(idx[0]), nil
		}, Exec{Pool: pool})
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *par.PanicError", err)
	}
	// The pool stays usable.
	m, err := GenArrayExec(Float, []int{0}, []int{10}, []int{10},
		func(idx []int) (any, error) { return float64(idx[0]), nil }, Exec{Pool: pool})
	if err != nil || m == nil {
		t.Errorf("pool unusable after body panic: %v", err)
	}
}
