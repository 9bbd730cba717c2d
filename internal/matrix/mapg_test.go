package matrix

import (
	"fmt"
	"testing"

	"repro/internal/par"
)

func TestMatrixMapGShrink(t *testing.T) {
	m := seqFloat(3, 8)
	half := func(sub *Matrix) (*Matrix, error) {
		out, err := sub.Index(Span(0, sub.Size()/2-1))
		if err != nil {
			return nil, err
		}
		return out.(*Matrix), nil
	}
	got, err := MatrixMapGExec(m, []int{1}, Float, half, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if sh := got.Shape(); sh[0] != 3 || sh[1] != 4 {
		t.Fatalf("shape = %v, want [3 4]", sh)
	}
	v, _ := got.At(2, 3)
	w, _ := m.At(2, 3)
	if v != w {
		t.Fatalf("got[2,3] = %v, want %v", v, w)
	}
}

func TestMatrixMapGGrow(t *testing.T) {
	m := seqFloat(2, 3)
	double := func(sub *Matrix) (*Matrix, error) {
		out := New(Float, sub.Size()*2)
		for k := 0; k < sub.Size(); k++ {
			out.Floats()[k] = sub.GetFloat(k)
			out.Floats()[k+sub.Size()] = sub.GetFloat(k)
		}
		return out, nil
	}
	got, err := MatrixMapGExec(m, []int{1}, Float, double, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if sh := got.Shape(); sh[1] != 6 {
		t.Fatalf("shape = %v, want [2 6]", sh)
	}
}

func TestMatrixMapGParallelMatchesSequential(t *testing.T) {
	m := seqFloat(6, 5, 10)
	half := func(sub *Matrix) (*Matrix, error) {
		out, err := sub.Index(Span(0, 4))
		if err != nil {
			return nil, err
		}
		return out.(*Matrix), nil
	}
	seq, err := MatrixMapGExec(m, []int{2}, Float, half, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(4)
	defer pool.Shutdown()
	parl, err := MatrixMapGExec(m, []int{2}, Float, half, Exec{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(seq, parl) {
		t.Fatal("parallel MatrixMapG differs from sequential")
	}
}

func TestMatrixMapGInconsistent(t *testing.T) {
	m := seqFloat(4, 6)
	i := 0
	varying := func(sub *Matrix) (*Matrix, error) {
		i++
		out, err := sub.Index(Span(0, i))
		if err != nil {
			return nil, err
		}
		return out.(*Matrix), nil
	}
	if _, err := MatrixMapGExec(m, []int{1}, Float, varying, Exec{}); err == nil {
		t.Fatal("inconsistent result sizes must error")
	}
}

func TestMatrixMapGErrors(t *testing.T) {
	m := seqFloat(3, 4)
	id := func(sub *Matrix) (*Matrix, error) { return sub, nil }
	if _, err := MatrixMapGExec(m, []int{0, 1}, Float, id, Exec{}); err == nil {
		t.Error("mapping all dims should error")
	}
	if _, err := MatrixMapGExec(m, nil, Float, id, Exec{}); err == nil {
		t.Error("no dims should error")
	}
	if _, err := MatrixMapGExec(m, []int{7}, Float, id, Exec{}); err == nil {
		t.Error("bad dim should error")
	}
	if _, err := MatrixMapGExec(m, []int{1, 1}, Float, id, Exec{}); err == nil {
		t.Error("duplicate dim should error")
	}
	bad := func(sub *Matrix) (*Matrix, error) { return New(Float, 2, 2), nil }
	if _, err := MatrixMapGExec(m, []int{1}, Float, bad, Exec{}); err == nil {
		t.Error("wrong-rank result should error")
	}
	wrongElem := func(sub *Matrix) (*Matrix, error) { return New(Int, 4), nil }
	if _, err := MatrixMapGExec(m, []int{1}, Float, wrongElem, Exec{}); err == nil {
		t.Error("wrong-elem result should error")
	}
	failing := func(sub *Matrix) (*Matrix, error) { return nil, fmt.Errorf("boom") }
	if _, err := MatrixMapGExec(m, []int{1}, Float, failing, Exec{}); err == nil {
		t.Error("f's error should propagate")
	}
}

func TestFoldMulIdentityAndFloat(t *testing.T) {
	// exercise the float multiplicative identity path
	pool := par.NewPool(3)
	defer pool.Shutdown()
	prod, err := FoldExec(FoldMul, 1.0, []int{0}, []int{6},
		func(idx []int) (any, error) { return 1.0 + float64(idx[0])*0.0, nil }, Exec{Pool: pool})
	if err != nil || prod.(float64) != 1.0 {
		t.Fatalf("prod = %v (%v)", prod, err)
	}
	mn, err := FoldExec(FoldMin, 100.0, []int{0}, []int{8},
		func(idx []int) (any, error) { return float64(10 - idx[0]), nil }, Exec{Pool: pool})
	if err != nil || mn.(float64) != 3.0 {
		t.Fatalf("min = %v (%v)", mn, err)
	}
}
