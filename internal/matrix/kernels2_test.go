// Differential tests for the kernels of kernels2.go: the transpose
// tiles behind the flat engine's m[j,i] pattern (against the closure
// engine) and the recursive matmul crossover (against the boxed
// reference), plus the typed fold accumulator's allocation profile.
package matrix

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/par"
)

// transposeEnv binds the flat body of m[j,i] over a rank-2 generator —
// the with-loop the flat engine runs on the transpose tiles — to m.
func transposeEnv(m *Matrix) *WithEnv {
	load := WLoadI
	if m.elem == Float {
		load = WLoadF
	}
	code := []WithInstr{{Op: WPushID, A: 1}, {Op: WPushID, A: 0}, {Op: load, B: 2}}
	return &WithEnv{Code: code, Mats: []*Matrix{m}, Float: m.elem == Float}
}

// diffFlatTranspose runs m[j,i] over m's transposed shape on the flat
// engine and on the closure engine under x, and compares the results.
func diffFlatTranspose(t *testing.T, label string, m *Matrix, x Exec) {
	t.Helper()
	rows, cols := m.shape[0], m.shape[1]
	lower, upper := []int{0, 0}, []int{cols, rows}
	closure := func(idx []int) (any, error) { return m.Get(idx[1]*cols + idx[0]), nil }
	want, werr := GenArrayExec(m.elem, lower, upper, upper, closure, x)
	got, handled, gerr := GenArrayFlat(m.elem, lower, upper, upper, transposeEnv(m), x)
	if !handled {
		t.Fatalf("%s: flat engine declined", label)
	}
	checkKernelDiff(t, label, got, gerr, want, werr, m.Size(), 0)
}

// TestKernelDiffTranspose pins the transpose tiles at tile-boundary
// shapes: the flat engine's m[j,i] must equal the closure engine
// evaluating the same body cell by cell, serially and pooled, and must
// have run on the tiles (the transpose counter advances).
func TestKernelDiffTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	execs := kernelExecs(t)
	for _, elem := range []Elem{Float, Int} {
		for _, shape := range [][]int{{1, 1}, {1, 7}, {7, 1}, {3, 5}, {33, 65}, {70, 40}} {
			m := randKernelMat(r, elem, shape...)
			for mode, x := range execs {
				label := mode + " flat transpose " + m.String()
				before := KernelOpStats()
				diffFlatTranspose(t, label, m, x)
				if KernelOpStats() == before {
					t.Fatalf("%s: transpose counter did not advance", label)
				}
			}
		}
	}
}

// TestKernelOpCounters: the transpose counter moves once per with-loop
// run on the tiles, and not for a flat body that is not m[j,i].
func TestKernelOpCounters(t *testing.T) {
	m := New(Float, 4, 6)
	full := []int{6, 4}
	before := KernelOpStats()
	if _, _, err := GenArrayFlat(Float, []int{0, 0}, full, full, transposeEnv(m), Exec{}); err != nil {
		t.Fatal(err)
	}
	if got := KernelOpStats() - before; got != 1 {
		t.Fatalf("transpose counter advanced by %d, want 1", got)
	}
	before = KernelOpStats()
	copyBody := []WithInstr{{Op: WPushID, A: 0}, {Op: WPushID, A: 1}, {Op: WLoadF, B: 2}}
	env := &WithEnv{Code: copyBody, Mats: []*Matrix{m}, Float: true}
	if _, _, err := GenArrayFlat(Float, []int{0, 0}, []int{4, 6}, []int{4, 6}, env, Exec{}); err != nil {
		t.Fatal(err)
	}
	if got := KernelOpStats() - before; got != 0 {
		t.Fatalf("m[i,j] copy advanced the transpose counter by %d", got)
	}
}

// TestKernels2Cancellation: a cancelled context aborts the pooled
// transpose tiles.
func TestKernels2Cancellation(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	full := []int{64, 64}
	if _, _, err := GenArrayFlat(Float, []int{0, 0}, full, full, transposeEnv(New(Float, 64, 64)), Exec{Pool: pool, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled flat transpose: err = %v, want context.Canceled", err)
	}
}

// TestKernelDiffRecursiveMatMul crosses the mmRecCutoff so both the
// base i-k-j kernel and the blocked-recursive path run, with shapes
// that are not powers of two.
func TestKernelDiffRecursiveMatMul(t *testing.T) {
	old := ParallelGrain
	ParallelGrain = 4096
	pool := par.NewPool(4)
	t.Cleanup(func() { ParallelGrain = old; pool.Shutdown() })
	r := rand.New(rand.NewSource(14))
	par4 := Exec{Pool: pool, Ctx: context.Background()}

	// k and n just above the cutoff trigger recursion; m stays small so
	// the test is fast. Also pin the below-cutoff path for parity.
	k, n := mmRecCutoff+3, mmRecCutoff+1
	for _, elem := range []Elem{Float, Int} {
		a := randKernelMat(r, elem, 5, k)
		b := randKernelMat(r, elem, k, n)
		want, werr := MatMulRef(a, b)
		for mode, x := range map[string]Exec{"serial": {}, "parallel": par4} {
			got, gerr := MatMulExec(a, b, x)
			eps := 0.0
			if elem == Float {
				eps = 1e-9
			}
			checkKernelDiff(t, mode+" recursive matmul", got, gerr, want, werr, a.Size(), eps)
		}
		small1 := randKernelMat(r, elem, 5, 17)
		small2 := randKernelMat(r, elem, 17, 9)
		want, werr = MatMulRef(small1, small2)
		got, gerr := MatMulExec(small1, small2, Exec{})
		checkKernelDiff(t, "small matmul", got, gerr, want, werr, small1.Size(), 1e-12)
	}
}

// TestFoldExecTypedAccumulator pins the typed fast path: a serial fold
// over int64 values must not allocate per element.
func TestFoldExecTypedAccumulator(t *testing.T) {
	// Body values stay under 256 so boxing them into `any` hits the
	// runtime's static cache: every allocation left is FoldExec's own.
	body := func(idx []int) (any, error) { return int64(idx[0] + idx[1]), nil }
	lower, upper := []int{0, 0}, []int{16, 64}
	got, err := FoldExec(FoldAdd, int64(0), lower, upper, body, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := 0; i < 16; i++ {
		for j := 0; j < 64; j++ {
			want += int64(i + j)
		}
	}
	if got.(int64) != want {
		t.Fatalf("fold sum = %v, want %d", got, want)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := FoldExec(FoldAdd, int64(0), lower, upper, body, Exec{}); err != nil {
			t.Fatal(err)
		}
	})
	// The accumulator combines unboxed; only fixed per-call setup (the
	// index slice, the final boxed result) may allocate — never one
	// object per element as the boxed foldCombine path did.
	if allocs > 16 {
		t.Errorf("FoldExec allocated %.0f objects for a 1024-element typed fold", allocs)
	}
	// Mixed int/float min must still match the boxed oracle: the int
	// lane -3 loses to the float lane's -9.5 and the winner keeps its
	// dynamic type.
	mix := func(idx []int) (any, error) {
		if idx[0]%2 == 0 {
			return int64(idx[0] - 3), nil
		}
		return float64(idx[0]) - 10.5, nil
	}
	got, err = FoldExec(FoldMin, int64(100), []int{0}, []int{9}, mix, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := got.(float64); !ok || v != -9.5 {
		t.Fatalf("mixed min = %#v, want float64 -9.5", got)
	}
	gotInt, err := FoldExec(FoldMin, int64(100), []int{0}, []int{9},
		func(idx []int) (any, error) { return int64(idx[0] - 3), nil }, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := gotInt.(int64); !ok || v != -3 {
		t.Fatalf("int min = %#v, want int64 -3", gotInt)
	}
}
