// Kernel-breadth benchmarks (PR 10): the blocked transpose, 2-D
// convolution, axis reduction and recursive-matmul kernels against the
// retained boxed *Ref oracles, plus the compiled with-loop ablation —
// the same proven genarray/fold program run through the tree walker,
// the VM on closure bodies (no facts), and the VM on the flat engine
// (facts-driven). BENCH_kernels2.json records the committed numbers.
//
// Run with: go test -bench=Kernel -benchmem
package repro_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/vm"
)

func kb2Mat(elem matrix.Elem, rows, cols int) *matrix.Matrix {
	m := matrix.New(elem, rows, cols)
	switch elem {
	case matrix.Float:
		fl := m.Floats()
		for k := range fl {
			fl[k] = float64(k%97) + 0.5
		}
	case matrix.Int:
		is := m.Ints()
		for k := range is {
			is[k] = int64(k%97) + 1
		}
	}
	return m
}

// kb2Execs: the serial path and a 4-worker pool. The CI box is a
// single core, so the pool rows measure coordination overhead
// (simulated parallelism), not wall-clock scaling.
func kb2Execs() []struct {
	name string
	x    matrix.Exec
} {
	return []struct {
		name string
		x    matrix.Exec
	}{
		{"serial", matrix.Exec{}},
		{"pool4", matrix.Exec{Pool: par.NewPool(4)}},
	}
}

// BenchmarkKernelTranspose: cache-blocked tiles vs the boxed
// element-at-a-time reference. 2048x2048 float is the acceptance row.
func BenchmarkKernelTranspose(b *testing.B) {
	for _, size := range []int{512, 2048} {
		m := kb2Mat(matrix.Float, size, size)
		for _, e := range kb2Execs() {
			b.Run(fmt.Sprintf("kernel/%s/%d", e.name, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out, err := matrix.TransposeExec(m, e.x)
					if err != nil {
						b.Fatal(err)
					}
					out.Recycle()
				}
			})
		}
		b.Run(fmt.Sprintf("generic/%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := matrix.TransposeRef(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelConv2D: specialized row loops vs the boxed reference.
// 1024x1024 with a 3x3 kernel is the acceptance row.
func BenchmarkKernelConv2D(b *testing.B) {
	src := kb2Mat(matrix.Float, 1024, 1024)
	kern := kb2Mat(matrix.Float, 3, 3)
	for _, e := range kb2Execs() {
		b.Run("kernel/"+e.name+"/1024x1024_3x3", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := matrix.Conv2DExec(src, kern, e.x)
				if err != nil {
					b.Fatal(err)
				}
				out.Recycle()
			}
		})
	}
	b.Run("generic/1024x1024_3x3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matrix.Conv2DRef(src, kern); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKernelReduceAxis: blocked axis reduction vs the boxed
// reference, along both the outer (0) and inner (1) axis of a square.
func BenchmarkKernelReduceAxis(b *testing.B) {
	m := kb2Mat(matrix.Float, 2048, 2048)
	for _, axis := range []int{0, 1} {
		for _, e := range kb2Execs() {
			b.Run(fmt.Sprintf("kernel/%s/sum_axis%d", e.name, axis), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out, err := matrix.ReduceAxisExec(matrix.FoldAdd, m, axis, e.x)
					if err != nil {
						b.Fatal(err)
					}
					out.Recycle()
				}
			})
		}
		b.Run(fmt.Sprintf("generic/sum_axis%d", axis), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := matrix.ReduceAxisRef(matrix.FoldAdd, m, axis); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelRecMatMul: 640x640 crosses mmRecCutoff=512, so the
// kernel row runs the blocked-recursive split; the generic row is the
// boxed naive triple loop.
func BenchmarkKernelRecMatMul(b *testing.B) {
	const size = 640
	x := kb2Mat(matrix.Float, size, size)
	y := kb2Mat(matrix.Float, size, size)
	b.Run(fmt.Sprintf("kernel/%d", size), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matrix.MatMul(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("generic/%d", size), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matrix.MatMulRef(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// withBenchSrc: transpose, five-point stencil and a fold, all with
// provable flat bodies. The same checked program runs on every engine
// variant; exit codes are compared to keep the ablation honest.
const withBenchSrc = `
int main() {
	int n = 256;
	Matrix float <2> u;
	u = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0 + 0.5 * i - 0.25 * j);
	Matrix float <2> t;
	t = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], u[j, i]);
	Matrix float <2> s;
	s = with ([1, 1] <= [i, j] < [n - 1, n - 1])
		genarray([n, n],
			t[i, j] + 0.25 * (t[i - 1, j] + t[i + 1, j]
				+ t[i, j - 1] + t[i, j + 1] - 4.0 * t[i, j]));
	float total = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, s[i, j]);
	return (int)(total / 1000.0) % 251;
}
`

// BenchmarkKernelWithCompiled: the with-loop compilation ablation.
// tree = per-node evaluation; vm_closure = bytecode engine but boxed
// per-element body closures (compiled without facts); vm_flat = the
// facts-driven flat engine (transpose pattern-match, stencil fill,
// fold chunks). vm_flat_threads4 adds a 4-worker pool on the same
// single-core box to price the coordination overhead.
func BenchmarkKernelWithCompiled(b *testing.B) {
	bp := compileBench(b, withBenchSrc)
	// vm.Compile computes facts itself, so bp.vmp is the flat program;
	// compiling with nil facts yields the closure-body ablation arm.
	flat := bp.vmp
	if flat.WithCompiled() != 4 {
		b.Fatalf("expected all 4 with-loops compiled flat, got %d", flat.WithCompiled())
	}
	closure, err := vm.CompileWithFacts(bp.prog, bp.info, nil)
	if err != nil {
		b.Fatalf("vm.CompileWithFacts(nil): %v", err)
	}
	if closure.WithCompiled() != 0 {
		b.Fatalf("nil-facts compile still flattened %d with-loops", closure.WithCompiled())
	}
	exec := func(threads int, vmp *vm.Program) (int, error) {
		it := interp.New(bp.prog, bp.info, interp.Options{Threads: threads, Stdout: io.Discard})
		defer it.Close()
		if vmp != nil {
			return vm.NewMachine(vmp, it).Run()
		}
		return it.Run()
	}
	// The tree walker's exit code is the reference every variant must
	// reproduce. It is taken once here, not from the "tree" row, so a
	// sub-benchmark filter that skips that row still cross-checks.
	want, err := exec(1, nil)
	if err != nil {
		b.Fatalf("tree reference run: %v", err)
	}
	run := func(name string, threads int, vmp *vm.Program) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				code, err := exec(threads, vmp)
				if err != nil {
					b.Fatal(err)
				}
				if code != want {
					b.Fatalf("engine %s exited %d, tree exited %d", name, code, want)
				}
			}
		})
	}
	run("tree", 1, nil)
	run("vm_closure", 1, closure)
	run("vm_flat", 1, flat)
	run("vm_flat_threads4", 4, flat)
}
