package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/par"
)

// Property: parallel with-loop execution is bit-identical to
// sequential execution (the §III-C fork-join model preserves the
// construct's semantics).
func TestQuickParallelGenArrayMatchesSequential(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Shutdown()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(16)
		cols := 1 + r.Intn(16)
		body := func(idx []int) (any, error) {
			return float64(idx[0]*31+idx[1]*7) * 0.5, nil
		}
		seq, err := GenArrayExec(Float, []int{0, 0}, []int{rows, cols}, []int{rows, cols}, body, Exec{})
		if err != nil {
			return false
		}
		parl, err := GenArrayExec(Float, []int{0, 0}, []int{rows, cols}, []int{rows, cols}, body, Exec{Pool: pool})
		if err != nil {
			return false
		}
		return Equal(seq, parl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickParallelFoldMatchesSequential(t *testing.T) {
	pool := par.NewPool(3)
	defer pool.Shutdown()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		body := func(idx []int) (any, error) { return int64(idx[0] % 17), nil }
		for _, kind := range []FoldKind{FoldAdd, FoldMin, FoldMax} {
			seq, err := FoldExec(kind, int64(5), []int{0}, []int{n}, body, Exec{})
			if err != nil {
				return false
			}
			parl, err := FoldExec(kind, int64(5), []int{0}, []int{n}, body, Exec{Pool: pool})
			if err != nil {
				return false
			}
			if seq != parl {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestParallelMatrixMapMatchesSequential(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Shutdown()
	m := seqFloat(6, 5, 7)
	f := func(sub *Matrix) (*Matrix, error) { return BroadcastExec(OpMul, sub, 3.0, true, Exec{}) }
	seq, err := MatrixMapExec(m, []int{0, 1}, Float, f, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	parl, err := MatrixMapExec(m, []int{0, 1}, Float, f, Exec{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(seq, parl) {
		t.Fatal("parallel matrixMap differs from sequential")
	}
}

// The temporal mean of Fig 1/Fig 3, computed with nested with-loop
// primitives, must equal a direct two-loop computation.
func TestTemporalMeanWithLoops(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Shutdown()
	const m, n, p = 8, 9, 10
	mat := New(Float, m, n, p)
	r := rand.New(rand.NewSource(42))
	for k := range mat.f {
		mat.f[k] = r.Float64() * 10
	}
	means, err := GenArrayExec(Float, []int{0, 0}, []int{m, n}, []int{m, n},
		func(idx []int) (any, error) {
			i, j := idx[0], idx[1]
			sum, err := FoldExec(FoldAdd, 0.0, []int{0}, []int{p},
				func(kidx []int) (any, error) {
					v, err := mat.At(i, j, kidx[0])
					if err != nil {
						return nil, err
					}
					return v, nil
				}, Exec{}) // inner construct runs sequentially, as in the generated C
			if err != nil {
				return nil, err
			}
			return sum.(float64) / p, nil
		}, Exec{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	// Direct reference (the expanded loops of Fig 3).
	want := New(Float, m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			for k := 0; k < p; k++ {
				acc += mat.f[i*n*p+j*p+k]
			}
			want.f[i*n+j] = acc / p
		}
	}
	if !AlmostEqual(means, want, 1e-9) {
		t.Fatal("with-loop temporal mean differs from Fig 3 reference loops")
	}
}

func TestGenArrayErrorPropagatesFromPool(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Shutdown()
	_, err := GenArrayExec(Float, []int{0}, []int{100}, []int{100},
		func(idx []int) (any, error) {
			if idx[0] == 63 {
				return nil, errBody
			}
			return 0.0, nil
		}, Exec{Pool: pool})
	if err != errBody {
		t.Fatalf("err = %v, want body error", err)
	}
}

var errBody = &bodyErr{}

type bodyErr struct{}

func (*bodyErr) Error() string { return "body failure" }
