// Kernel-breadth benchmarks: the blocked transpose tiles against the
// closure engine, the recursive matmul against the boxed MatMulRef
// oracle, and the compiled with-loop ablation — the same proven
// genarray/fold program run through the tree walker, the VM on closure
// bodies (no facts), and the VM on the flat engine (facts-driven).
// BENCH_kernels2.json records the committed numbers.
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

// BenchmarkKernelTranspose: the flat engine's m[j,i] body, which runs
// the cache-blocked transpose tiles, vs the closure engine evaluating
// the same with-loop one boxed cell at a time. 2048x2048 float is the
// acceptance row.
func BenchmarkKernelTranspose(b *testing.B) {
	code := []matrix.WithInstr{{Op: matrix.WPushID, A: 1}, {Op: matrix.WPushID, A: 0}, {Op: matrix.WLoadF, B: 2}}
	for _, size := range []int{512, 2048} {
		m := kb2Mat(matrix.Float, size, size)
		env := &matrix.WithEnv{Code: code, Mats: []*matrix.Matrix{m}, Float: true}
		lower, upper := []int{0, 0}, []int{size, size}
		for _, e := range kb2Execs() {
			b.Run(fmt.Sprintf("kernel/%s/%d", e.name, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out, handled, err := matrix.GenArrayFlat(matrix.Float, lower, upper, upper, env, e.x)
					if err != nil || !handled {
						b.Fatalf("flat transpose: handled=%v err=%v", handled, err)
					}
					out.Recycle()
				}
			})
		}
		fl := m.Floats()
		body := func(idx []int) (any, error) { return fl[idx[1]*size+idx[0]], nil }
		b.Run(fmt.Sprintf("closure/%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := matrix.GenArrayExec(matrix.Float, lower, upper, upper, body, matrix.Exec{})
				if err != nil {
					b.Fatal(err)
				}
				out.Recycle()
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
			if _, err := matrix.MatMulExec(x, y, matrix.Exec{}); err != nil {
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
