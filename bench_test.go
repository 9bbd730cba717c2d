// Benchmark harness: one benchmark per experiment in DESIGN.md's
// per-experiment index (E1–E10). The paper's evaluation is
// qualitative — code-generation figures plus scaling and design-choice
// claims — so each benchmark regenerates the corresponding artifact or
// measures the corresponding claim; EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/cgen"
	"repro/internal/core"
	"repro/internal/eddy"
	"repro/internal/grammar"
	"repro/internal/interp"
	"repro/internal/loopir"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/parser"
	"repro/internal/rc"
	"repro/internal/sem"
)

const fig1Src = `
int main() {
	Matrix float <3> mat = readMatrix("ssh.data");
	int m = dimSize(mat, 0);
	int n = dimSize(mat, 1);
	int p = dimSize(mat, 2);
	Matrix float <2> means;
	means = with ([0, 0] <= [i, j] < [m, n])
		genarray([m, n],
			with ([0] <= [k] < [p])
				fold(+, 0.0, mat[i, j, k]) / p);
	writeMatrix("means.data", means);
	return 0;
}
`

const fig9Src = `
int main() {
	Matrix float <3> mat = readMatrix("ssh.data");
	int m = dimSize(mat, 0);
	int n = dimSize(mat, 1);
	int p = dimSize(mat, 2);
	Matrix float <2> means;
	means = with ([0, 0] <= [i, j] < [m, n])
		genarray([m, n],
			with ([0] <= [k] < [p])
				fold(+, 0.0, mat[i, j, k]) / p)
		transform
			split j by 4, jin, jout.
			vectorize jin.
			parallelize i;
	writeMatrix("means.data", means);
	return 0;
}
`

// E1 — Fig 1 → Fig 3: full translation of the temporal-mean program
// to the expanded parallel-C loop nest.
func BenchmarkE1_TemporalMeanCodegen(b *testing.B) {
	opts := cgen.Options{Par: cgen.ParNone, Optimize: true}
	for i := 0; i < b.N; i++ {
		res := core.Compile("fig1.xc", fig1Src, core.Config{Codegen: &opts})
		if res.Diags.HasErrors() {
			b.Fatal(res.Diags.String())
		}
	}
}

// E2 — Fig 9 → Fig 10: the split transformation on the expanded nest.
func BenchmarkE2_SplitTransform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := &loopir.Loop{Index: "k", Lo: loopir.IC(0), Hi: loopir.V("p"), Body: []loopir.Stmt{
			&loopir.AssignStmt{LHS: loopir.V("tmp"),
				RHS: loopir.B("+", loopir.V("tmp"), loopir.Ld("mat", loopir.V("k")))},
		}}
		j := &loopir.Loop{Index: "j", Lo: loopir.IC(0), Hi: loopir.IC(1440), Body: []loopir.Stmt{
			&loopir.DeclStmt{CType: "float", Name: "tmp", Init: loopir.FC(0)}, k,
			&loopir.AssignStmt{LHS: loopir.Ld("means", loopir.V("j")), RHS: loopir.V("tmp")},
		}}
		nest := []loopir.Stmt{&loopir.Loop{Index: "i", Lo: loopir.IC(0), Hi: loopir.IC(721),
			Body: []loopir.Stmt{j}}}
		if _, err := loopir.Split(nest, "j", 4, "jin", "jout"); err != nil {
			b.Fatal(err)
		}
	}
}

// E3 — Fig 10 → Fig 11: full translation with vectorize+parallelize
// to SSE intrinsics and an OpenMP pragma.
func BenchmarkE3_VectorizeCodegen(b *testing.B) {
	opts := cgen.Options{Par: cgen.ParOMP, Optimize: true}
	for i := 0; i < b.N; i++ {
		res := core.Compile("fig9.xc", fig9Src, core.Config{Codegen: &opts})
		if res.Diags.HasErrors() {
			b.Fatal(res.Diags.String())
		}
	}
}

// E4 — §V's scaling claim: auto-parallelized with-loop throughput as
// the worker count grows (the paper reports near-linear scaling on a
// 2 x 6-core machine; the *shape* depends on the host's core count —
// this container exposes runtime.NumCPU() cores).
func BenchmarkE4_WithLoopScaling(b *testing.B) {
	const m, n, p = 64, 64, 64
	mat := matrix.New(matrix.Float, m, n, p)
	r := rand.New(rand.NewSource(1))
	for k := range mat.Floats() {
		mat.Floats()[k] = r.Float64()
	}
	body := func(idx []int) (any, error) {
		i, j := idx[0], idx[1]
		acc := 0.0
		base := (i*n + j) * p
		for k := 0; k < p; k++ {
			acc += mat.Floats()[base+k]
		}
		return acc / p, nil
	}
	for _, threads := range []int{1, 2, 4, 8, 12} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			var pool *par.Pool
			if threads > 1 {
				pool = par.NewPool(threads)
				defer pool.Shutdown()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := matrix.GenArrayExec(matrix.Float,
					[]int{0, 0}, []int{m, n}, []int{m, n}, body, matrix.Exec{Pool: pool}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(runtime.NumCPU()), "host-cores")
		})
	}
}

// E5 — Fig 4/Fig 5: matrixMap of connected-component labelling over
// the time dimension versus the semantically equivalent explicit loop.
func BenchmarkE5_MatrixMapConnComp(b *testing.B) {
	ssh, _ := eddy.Synthesize(eddy.SynthOptions{Lat: 32, Lon: 32, Time: 16,
		NumEddies: 4, NoiseAmp: 0.05, SwellAmp: 0.08, Seed: 2})
	label := func(sub *matrix.Matrix) (*matrix.Matrix, error) {
		bin, err := matrix.BroadcastExec(matrix.OpLt, sub, -0.2, true, matrix.Exec{})
		if err != nil {
			return nil, err
		}
		return eddy.ConnComp(bin)
	}
	b.Run("matrixMap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matrix.MatrixMapExec(ssh, []int{0, 1}, matrix.Int, label, matrix.Exec{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("explicit-loop", func(b *testing.B) {
		tn := ssh.Shape()[2]
		for i := 0; i < b.N; i++ {
			out := matrix.New(matrix.Int, ssh.Shape()...)
			for t := 0; t < tn; t++ {
				subAny, err := ssh.Index(matrix.All(), matrix.All(), matrix.Scalar(t))
				if err != nil {
					b.Fatal(err)
				}
				res, err := label(subAny.(*matrix.Matrix))
				if err != nil {
					b.Fatal(err)
				}
				if err := out.SetIndex(res, matrix.All(), matrix.All(), matrix.Scalar(t)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// E6 — Fig 8: the full trough-scoring pipeline, both through the
// translator+interpreter and as the native reference.
func BenchmarkE6_EddyScoring(b *testing.B) {
	ssh, _ := eddy.Synthesize(eddy.SynthOptions{Lat: 16, Lon: 16, Time: 48,
		NumEddies: 3, NoiseAmp: 0.05, SwellAmp: 0.08, Seed: 3})
	b.Run("interpreter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			files := map[string]*matrix.Matrix{"ssh.data": ssh}
			if _, res, err := core.Run("fig8.xc", fig8Src, core.Config{},
				interp.Options{Files: files}); err != nil {
				b.Fatalf("%v\n%s", err, res.Diags.String())
			}
		}
	})
	b.Run("go-reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eddy.ScoreField(ssh, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

const fig8Src = `
(Matrix float <1>, int, int) getTrough(Matrix float <1> ts, int i) {
	int beginning = i;
	int n = dimSize(ts, 0);
	while (i + 1 < n && ts[i] >= ts[i + 1])
		i = i + 1;
	while (i + 1 < n && ts[i] < ts[i + 1])
		i = i + 1;
	return (ts[beginning :: i], beginning, i);
}
Matrix float <1> computeArea(Matrix float <1> aoi) {
	float y1 = aoi[0];
	float y2 = aoi[end];
	int x1 = 0;
	int x2 = dimSize(aoi, 0) - 1;
	float m = (y1 - y2) / (float)(x1 - x2);
	float b = y1 - m * x1;
	Matrix float <1> Line = [x1 :: x2] * m + b;
	float area = with ([0] <= [i] < [dimSize(Line, 0)])
		fold(+, 0.0, Line[i] - aoi[i]);
	return with ([0] <= [i] < [dimSize(Line, 0)])
		genarray([dimSize(Line, 0)], area);
}
Matrix float <1> scoreTS(Matrix float <1> ts) {
	Matrix float <1> scores = init(Matrix float <1>, dimSize(ts, 0));
	int i = 0;
	int n = dimSize(ts, 0);
	while (i + 1 < n && ts[i] < ts[i + 1])
		i = i + 1;
	int beginning = 0;
	Matrix float <1> trough;
	while (i < n - 1) {
		(trough, beginning, i) = getTrough(ts, i);
		scores[beginning : i] = computeArea(trough);
	}
	return scores;
}
int main() {
	Matrix float <3> data = readMatrix("ssh.data");
	Matrix float <3> scores;
	scores = matrixMap(scoreTS, data, [2]);
	writeMatrix("temporalScores.data", scores);
	return 0;
}
`

// E7 — §VI: the modular determinism analysis and LALR(1) table
// construction for the full composed language (the cost a programmer
// pays to generate their customized translator).
func BenchmarkE7_ComposeAnalysis(b *testing.B) {
	b.Run("isComposable-matrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := grammar.IsComposable(parser.StartSymbol, parser.HostSpec(), parser.MatrixSpec())
			if !r.Passed {
				b.Fatal("matrix extension must pass")
			}
		}
	})
	b.Run("compose-full-table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := grammar.New(parser.StartSymbol, parser.HostSpec(),
				parser.MatrixSpec(), parser.TransformSpec(), parser.RcSpec())
			if err != nil {
				b.Fatal(err)
			}
			t, err := grammar.BuildTable(g)
			if err != nil || len(t.Conflicts) != 0 {
				b.Fatalf("table: %v, %d conflicts", err, len(t.Conflicts))
			}
		}
	})
	b.Run("mwda-matrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			info := sem.NewInfo()
			r := attr.CheckWellDefined(sem.HostAG(info, nil), sem.MatrixAG(info))
			if !r.Passed {
				b.Fatal("matrix semantics must pass")
			}
		}
	})
}

// E8 — §III-C: the enhanced fork-join model (spawn-once spin pool)
// versus naive thread spawning per parallel region, on small-grain
// with-loop-sized work where spawn overhead dominates.
func BenchmarkE8_ForkJoinVsNaive(b *testing.B) {
	const n = 256
	work := func(i int) {
		x := float64(i)
		for k := 0; k < 50; k++ {
			x = x*1.000001 + 0.5
		}
		_ = x
	}
	for _, threads := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("pool-t%d", threads), func(b *testing.B) {
			pool := par.NewPool(threads)
			defer pool.Shutdown()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.ParallelFor(0, n, work)
			}
		})
		b.Run(fmt.Sprintf("naive-t%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				par.NaiveSpawn(threads, 0, n, work)
			}
		})
	}
}

// E9 — §III-B/C: allocator scalability — one global-lock heap versus
// sharded per-thread arenas under concurrent allocation, the
// contention phenomenon of the paper's references [15][16].
func BenchmarkE9_AllocatorContention(b *testing.B) {
	const goroutines = 8
	const opsPer = 200
	run := func(b *testing.B, alloc rc.Allocator) {
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					ids := make([]int, 0, 8)
					r := rand.New(rand.NewSource(seed))
					for op := 0; op < opsPer; op++ {
						if len(ids) > 0 && r.Intn(2) == 0 {
							alloc.Free(ids[len(ids)-1])
							ids = ids[:len(ids)-1]
						} else {
							ids = append(ids, alloc.Allocate(64))
						}
					}
					for _, id := range ids {
						alloc.Free(id)
					}
				}(int64(g))
			}
			wg.Wait()
		}
	}
	b.Run("global-lock", func(b *testing.B) { run(b, rc.NewGlobalLock(200)) })
	b.Run("sharded-arena", func(b *testing.B) { run(b, rc.NewArena(goroutines, 200)) })
}

// E10 — §III-A.4 ablation: the two high-level optimizations the
// extension applies across construct boundaries (which "cannot be
// applied across separate libraries").
func BenchmarkE10_FusionAblation(b *testing.B) {
	const m, n, p = 48, 48, 32
	mat := matrix.New(matrix.Float, m, n, p)
	r := rand.New(rand.NewSource(4))
	for k := range mat.Floats() {
		mat.Floats()[k] = r.Float64()
	}
	// slice elimination: fold reads elements directly...
	direct := func(idx []int) (any, error) {
		i, j := idx[0], idx[1]
		base := (i*n + j) * p
		acc := 0.0
		for k := 0; k < p; k++ {
			acc += mat.Floats()[base+k]
		}
		return acc / p, nil
	}
	// ...versus iterating over a copied slice of mat (the library way).
	viaSlice := func(idx []int) (any, error) {
		subAny, err := mat.Index(matrix.Scalar(idx[0]), matrix.Scalar(idx[1]), matrix.All())
		if err != nil {
			return nil, err
		}
		sub := subAny.(*matrix.Matrix)
		acc := 0.0
		for k := 0; k < p; k++ {
			acc += sub.Floats()[k]
		}
		return acc / p, nil
	}
	b.Run("slice-eliminated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matrix.GenArrayExec(matrix.Float, []int{0, 0}, []int{m, n},
				[]int{m, n}, direct, matrix.Exec{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("copied-slice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matrix.GenArrayExec(matrix.Float, []int{0, 0}, []int{m, n},
				[]int{m, n}, viaSlice, matrix.Exec{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// fusion: move the with-loop result into its destination...
	b.Run("fused-move", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := matrix.GenArrayExec(matrix.Float, []int{0, 0}, []int{m, n},
				[]int{m, n}, direct, matrix.Exec{})
			if err != nil {
				b.Fatal(err)
			}
			_ = out // the assignment is a pointer move
		}
	})
	// ...versus the library's extra copy into the destination.
	b.Run("unfused-copy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := matrix.GenArrayExec(matrix.Float, []int{0, 0}, []int{m, n},
				[]int{m, n}, direct, matrix.Exec{})
			if err != nil {
				b.Fatal(err)
			}
			_ = out.Copy() // the extraneous copy of §III-A.4
		}
	})
}

// Front-end throughput: scanning+parsing+checking the Fig 8 program
// through the composed extensible pipeline.
func BenchmarkFrontEnd(b *testing.B) {
	b.Run("parse+check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := core.Check("fig8.xc", fig8Src, core.Config{})
			if res.Diags.HasErrors() {
				b.Fatal(res.Diags.String())
			}
		}
	})
}

// ---- kernel benchmarks (PR 5) ----
//
// BenchmarkKernel* measure the specialized arithmetic kernels of
// internal/matrix/kernels.go against the retained boxed reference path
// (the pre-PR implementation, kept as *Ref). BENCH_kernels.json records
// the committed before/after baseline. Run with:
//
//	go test -bench=Kernel -benchmem

func kernelBenchMat(elem matrix.Elem, n int) *matrix.Matrix {
	m := matrix.New(elem, n)
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

// BenchmarkKernelElementwise: kernel vs boxed reference across sizes
// and element types (satisfies the BenchmarkElementwise axis of the
// bench plan; the Kernel prefix keeps one CI smoke regex).
func BenchmarkKernelElementwise(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 16, 1 << 20} {
		for _, elem := range []matrix.Elem{matrix.Float, matrix.Int} {
			x := kernelBenchMat(elem, size)
			y := kernelBenchMat(elem, size)
			b.Run(fmt.Sprintf("kernel/%s/%d", elem, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := matrix.ElementwiseExec(matrix.OpAdd, x, y, matrix.Exec{}); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("generic/%s/%d", elem, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := matrix.ElementwiseRef(matrix.OpAdd, x, y); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKernelBroadcast: matrix-scalar kernels vs boxed reference.
func BenchmarkKernelBroadcast(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 20} {
		for _, elem := range []matrix.Elem{matrix.Float, matrix.Int} {
			x := kernelBenchMat(elem, size)
			var s any = 1.5
			if elem == matrix.Int {
				s = int64(3)
			}
			b.Run(fmt.Sprintf("kernel/%s/%d", elem, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := matrix.BroadcastExec(matrix.OpMul, x, s, true, matrix.Exec{}); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("generic/%s/%d", elem, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := matrix.BroadcastRef(matrix.OpMul, x, s, true); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKernelMatMul: blocked i-k-j kernel vs naive i-j-k reference.
func BenchmarkKernelMatMul(b *testing.B) {
	for _, size := range []int{64, 256, 512} {
		for _, elem := range []matrix.Elem{matrix.Float, matrix.Int} {
			x := kernelBenchMat(elem, size*size)
			y := kernelBenchMat(elem, size*size)
			xm := matrix.New(elem, size, size)
			ym := matrix.New(elem, size, size)
			switch elem {
			case matrix.Float:
				copy(xm.Floats(), x.Floats())
				copy(ym.Floats(), y.Floats())
			case matrix.Int:
				copy(xm.Ints(), x.Ints())
				copy(ym.Ints(), y.Ints())
			}
			b.Run(fmt.Sprintf("kernel/%s/%d", elem, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := matrix.MatMulExec(xm, ym, matrix.Exec{}); err != nil {
						b.Fatal(err)
					}
				}
			})
			if size > 256 && elem == matrix.Int {
				continue // the boxed reference at 512 int adds nothing new and minutes of runtime
			}
			b.Run(fmt.Sprintf("generic/%s/%d", elem, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := matrix.MatMulRef(xm, ym); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKernelChained: the buffer-reuse case — (a+b).*c allocates
// two outputs; recycling the spent a+b temporary lets the free list
// feed later outputs, cutting allocs/op versus the reference chain.
func BenchmarkKernelChained(b *testing.B) {
	x := kernelBenchMat(matrix.Float, 1<<20)
	y := kernelBenchMat(matrix.Float, 1<<20)
	z := kernelBenchMat(matrix.Float, 1<<20)
	b.Run("kernel", func(b *testing.B) {
		matrix.DrainFreeLists()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := matrix.ElementwiseExec(matrix.OpAdd, x, y, matrix.Exec{})
			if err != nil {
				b.Fatal(err)
			}
			out, err := matrix.ElementwiseExec(matrix.OpMul, s, z, matrix.Exec{})
			if err != nil {
				b.Fatal(err)
			}
			s.Recycle()
			out.Recycle()
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := matrix.ElementwiseRef(matrix.OpAdd, x, y)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := matrix.ElementwiseRef(matrix.OpMul, s, z); err != nil {
				b.Fatal(err)
			}
		}
	})
}
