// Dual-engine differential suite: every program in the corpus (and in
// testdata/) runs under both the tree-walking interpreter and the
// register bytecode VM, and the two executions must be observably
// identical — stdout bytes, exit code, the full error string (which
// embeds the trap code and the source span), the budget-visible cell
// count, and rc-heap leak-freedom. The tree walker is the oracle; the
// VM is the engine under test.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ast"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/parser"
	"repro/internal/rc"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/vm"
)

// engineResult is everything one execution makes observable.
type engineResult struct {
	out   string
	code  int
	err   string
	cells int64
	live  int64
}

// runOne executes a checked program on the named engine. The VM path
// requires the bytecode compiler to accept the program (the corpus is
// curated to be fully compilable; a bail here is a test failure, not a
// silent fallback).
func runOne(t *testing.T, prog *parsedProg, engine string, opts interp.Options) engineResult {
	t.Helper()
	var out bytes.Buffer
	heap := rc.NewHeap()
	opts.Stdout = &out
	opts.Heap = heap
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 5_000_000
	}
	if opts.MaxCells == 0 {
		opts.MaxCells = 1 << 22
	}
	i := interp.New(prog.prog, prog.info, opts)
	defer i.Close()
	var code int
	var err error
	switch engine {
	case "vm":
		p, cerr := vm.Compile(prog.prog, prog.info)
		if cerr != nil {
			t.Fatalf("vm.Compile declined the program: %v", cerr)
		}
		code, err = vm.NewMachine(p, i).Run()
	default:
		code, err = i.Run()
	}
	res := engineResult{out: out.String(), code: code, cells: i.Budget().Used(), live: heap.Stats().Live}
	if err != nil {
		res.err = err.Error()
	}
	return res
}

type parsedProg struct {
	prog *ast.Program
	info *sem.Info
}

// parseAndCheck front-ends src, failing the test on diagnostics (the
// corpus must be fully checkable).
func parseAndCheck(t *testing.T, name, src string) *parsedProg {
	t.Helper()
	var d source.Diagnostics
	p := parser.ParseFile(name, src, parser.AllExtensions(), &d)
	if p == nil {
		t.Fatalf("%s: parse failed:\n%s", name, d.String())
	}
	info := sem.Check(p, &d)
	if d.HasErrors() {
		t.Fatalf("%s: check failed:\n%s", name, d.String())
	}
	return &parsedProg{prog: p, info: info}
}

// compare asserts two engine results are observably identical.
func compare(t *testing.T, label string, tree, vmr engineResult) {
	t.Helper()
	if tree.out != vmr.out {
		t.Errorf("%s: stdout diverged\n--- tree ---\n%s--- vm ---\n%s", label, tree.out, vmr.out)
	}
	if tree.code != vmr.code {
		t.Errorf("%s: exit code tree=%d vm=%d", label, tree.code, vmr.code)
	}
	if tree.err != vmr.err {
		t.Errorf("%s: error diverged\ntree: %s\nvm:   %s", label, tree.err, vmr.err)
	}
	if tree.cells != vmr.cells {
		t.Errorf("%s: cells charged tree=%d vm=%d", label, tree.cells, vmr.cells)
	}
	if tree.err == "" && (tree.live != 0 || vmr.live != 0) {
		t.Errorf("%s: rc leak on success: tree live=%d vm live=%d", label, tree.live, vmr.live)
	}
}

// vmCorpus is the table-driven dual-engine suite: one entry per
// language area, each exercising evaluation order, error texts and rc
// discipline. Every entry must compile on the VM (no fallback).
var vmCorpus = []struct {
	name string
	src  string
	opts interp.Options
}{
	{name: "scalar_loop", src: `
int main() {
	int s = 0;
	int i = 0;
	while (i < 1000) { s = s + i * 2 - 1; i = i + 1; }
	print(s);
	return 0;
}`},
	{name: "for_break_continue", src: `
int main() {
	int s = 0;
	for (int i = 0; i < 100; i++) {
		if (i % 3 == 0) { continue; }
		if (i > 80) { break; }
		s = s + i;
	}
	print(s);
	return s % 256;
}`},
	{name: "float_mix", src: `
int main() {
	float x = 1.5;
	int n = 7;
	float y = x * n + 2.0 / 4.0 - n;
	print(y);
	print((int)(y * 10.0));
	print(x < 2.0);
	print(n == 7);
	bool b = true;
	print((float)(int)b);
	print(0.0 - x);
	return 0;
}`},
	{name: "short_circuit_order", src: `
bool chk(int v, bool r) { print(v); return r; }
int main() {
	if (chk(1, false) && chk(2, true)) { print(100); }
	if (chk(3, true) || chk(4, false)) { print(200); }
	if (chk(5, true) && chk(6, true)) { print(300); }
	bool t = chk(7, false) || chk(8, false);
	print(t);
	print(!t && chk(9, true));
	return 0;
}`},
	{name: "shadowing_decl_order", src: `
int main() {
	int x = 10;
	{
		int x = x + 5;
		print(x);
	}
	print(x);
	return 0;
}`},
	{name: "globals", src: `
int ga = 5;
int gb = ga * 3;
Matrix int <1> gv = [0 :: 4];
int bump() { ga = ga + 1; return ga; }
int main() {
	print(gb);
	print(bump() + bump());
	print(ga);
	print(ga + bump());
	print(gv[2] + gv[end]);
	return 0;
}`},
	{name: "indexing_forms", src: `
int main() {
	Matrix int <1> v = [0 :: 9];
	print(v[end]);
	print(v[end - 4]);
	Matrix int <1> mid = v[2 : 5];
	print(dimSize(mid, 0));
	Matrix int <1> odds = v[v % 2 == 1];
	print(dimSize(odds, 0));
	Matrix int <2> m = init(Matrix int <2>, 3, 4);
	m[1, :] = [10 :: 13];
	print(m[1, 2]);
	m[:, 0] = v[0 : 2];
	print(m[2, 0]);
	m[0, 1] = 42;
	print(m[0, 1]);
	return 0;
}`},
	{name: "fused_rank1_load_store", src: `
int main() {
	Matrix float <1> a = init(Matrix float <1>, 64);
	for (int i = 0; i < 64; i++) { a[i] = (float)(i * i); }
	float s = 0.0;
	for (int i = 0; i < 64; i++) { s = s + a[i]; }
	print(s);
	a[0] = 7;
	print(a[0]);
	Matrix int <1> b = init(Matrix int <1>, 16);
	for (int i = 0; i < 16; i++) { b[i] = i * 3; }
	print(b[15]);
	Matrix bool <1> c = init(Matrix bool <1>, 4);
	c[2] = true;
	print(c[2]);
	print(c[0]);
	return 0;
}`},
	{name: "tuples_and_rc", src: `
(int, int, bool) divmod(int a, int b) {
	return (a / b, a % b, a % b == 0);
}
int main() {
	int q; int r; bool exact;
	(q, r, exact) = divmod(47, 5);
	print(q);
	print(r);
	print(exact);
	refcounted int * cell = rcnew(q * 10);
	rcset(cell, rcget(cell) + r);
	print(rcget(cell));
	rcrelease(cell);
	return 0;
}`},
	{name: "with_loops", src: `
int main() {
	Matrix int <2> sq;
	sq = with ([0, 0] <= [i, j] < [4, 5]) genarray([4, 5], i * 10 + j);
	print(sq[3, 4]);
	int s = with ([0] <= [k] < [10]) fold(+, 0, k * k);
	print(s);
	int mx = with ([0] <= [k] < [7]) fold(max, -100, k * (5 - k));
	print(mx);
	float p = with ([1] <= [k] < [6]) fold(*, 1.0, (float)k);
	print(p);
	int outer = 3;
	Matrix float <1> nested;
	nested = with ([0] <= [i] < [outer])
		genarray([outer], with ([0] <= [j] < [4]) fold(+, 0.0, (float)(i * j)));
	print(nested[2]);
	return 0;
}`},
	{name: "with_flat_kernels", src: `
int main() {
	int n = 8;
	int bias = 3;
	float scale = 0.25;
	Matrix int <2> m;
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], i * n + j + bias);
	Matrix int <2> tr;
	tr = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], m[j, i]);
	print(tr[2, 5]);
	Matrix float <2> sm;
	sm = with ([1, 1] <= [i, j] < [7, 7])
		genarray([n, n], (float)(m[i - 1, j] + m[i + 1, j] + m[i, j - 1] + m[i, j + 1]) * scale);
	print(sm[0, 0]);
	print(sm[3, 3]);
	int s = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0, m[i, j] - tr[j, i]);
	print(s);
	float w = with ([0] <= [k] < [6]) fold(max, -1.0, (float)(k * (4 - k)) * scale);
	print(w);
	return 0;
}`},
	{name: "err_with_flat_oom", opts: interp.Options{MaxCells: 40}, src: `
int main() {
	int n = 5;
	Matrix int <2> small;
	small = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], i - j);
	print(small[4, 4]);
	Matrix int <2> big;
	big = with ([0, 0] <= [i, j] < [9, 9]) genarray([9, 9], i * j);
	print(big[0, 0]);
	return 0;
}`},
	{name: "err_with_flat_out_of_bounds_load", src: `
int main() {
	int n = 4;
	Matrix int <1> v;
	v = with ([0] <= [i] < [n]) genarray([n], i * 2);
	Matrix int <1> shifted;
	shifted = with ([0] <= [i] < [n]) genarray([n], v[i + 1]);
	print(shifted[0]);
	return 0;
}`},
	{name: "err_with_flat_not_superset", src: `
int main() {
	int n = 5;
	Matrix float <1> m;
	m = with ([0] <= [i] < [n]) genarray([n - 1], (float)i * 2.0);
	print(m[0]);
	return 0;
}`},
	{name: "with_flat_promoted_fold", src: `
int main() {
	int n = 6;
	Matrix int <2> m;
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], i + 2 * j);
	float mean = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, (float)m[i, j]) / 36.0;
	print(mean);
	int prod = with ([1] <= [k] < [5]) fold(*, 1, m[k, k]);
	print(prod);
	return 0;
}`},
	{name: "matrix_map_both_forms", src: `
Matrix float <1> double(Matrix float <1> ts) {
	int n = dimSize(ts, 0);
	return with ([0] <= [i] < [n]) genarray([n], ts[i] * 2.0);
}
Matrix float <1> firstHalf(Matrix float <1> ts) {
	int n = dimSize(ts, 0);
	return ts[0 : n / 2 - 1];
}
int main() {
	Matrix float <2> d;
	d = with ([0, 0] <= [i, j] < [3, 8]) genarray([3, 8], (float)(i * 8 + j));
	Matrix float <2> out;
	out = matrixMap(double, d, [1]);
	print(out[2, 7]);
	Matrix float <2> half;
	half = matrixMapG(firstHalf, d, [1]);
	print(dimSize(half, 1));
	print(half[1, 3]);
	return 0;
}`},
	{name: "spawn_fib", src: `
int fib(int n) {
	if (n < 2) return n;
	int a = 0;
	int b = 0;
	spawn a = fib(n - 1);
	b = fib(n - 2);
	sync;
	return a + b;
}
int main() {
	print(fib(14));
	return 0;
}`},
	{name: "promotion_falloff_void", src: `
float half(int n) { return n / 2; }
int falloff(int n) { if (n > 100) { return n; } }
void shout(int n) { print(n * 2); }
int main() {
	print(half(7));
	print(falloff(3));
	shout(21);
	return 0;
}`},
	{name: "matrix_elementwise_ops", src: `
int main() {
	Matrix int <1> v = [1 :: 6];
	Matrix int <1> w = v + v - [0 :: 5];
	print(w[end]);
	Matrix float <1> f = [0 :: 3] * 0.5;
	print(f[3]);
	Matrix bool <1> m = v > 3;
	print(m[0]);
	print(m[end]);
	print(dimSize(v[m], 0));
	Matrix float <2> a;
	a = with ([0, 0] <= [i, j] < [2, 3]) genarray([2, 3], (float)(i + j));
	Matrix float <2> bm;
	bm = with ([0, 0] <= [i, j] < [3, 2]) genarray([3, 2], (float)(i * j));
	Matrix float <2> c = a * bm;
	print(c[1, 1]);
	return 0;
}`},

	{name: "fused_elementwise_chain", src: `
Matrix float <1> axpy(Matrix float <1> a, Matrix float <1> b, float k) {
	return a * k + a .* b - b / 2.0;
}
int main() {
	Matrix float <1> a = [0 :: 7] * 1.0;
	Matrix float <1> b = [1 :: 8] * 1.0;
	Matrix float <1> r = axpy(a, b, 3.0);
	print(r[0]);
	print(r[end]);
	Matrix int <1> u = [1 :: 6];
	Matrix int <1> w = u .* 2 + u - u .* u;
	print(w[0]);
	print(w[end]);
	Matrix float <1> mixed = a .* b + a * 2 - b;
	print(mixed[3]);
	print(mixed[end]);
	return 0;
}`},
	{name: "spawn_matrix_args", src: `
float total(Matrix float <1> m) {
	int n = dimSize(m, 0);
	return with ([0] <= [i] < [n]) fold(+, 0.0, m[i]);
}
int main() {
	Matrix float <1> a = [0 :: 9] * 1.0;
	Matrix float <1> b = [1 :: 10] * 1.0;
	float sa = 0.0;
	float sb = 0.0;
	spawn sa = total(a);
	spawn sb = total(b);
	sync;
	print(sa + sb);
	return 0;
}`},

	// Error paths: the full error string (span, trap code, text) must
	// match byte for byte.
	{name: "err_div_zero", src: `
int main() {
	int z = 0;
	return 1 / z;
}`},
	{name: "err_mod_zero", src: `
int main() {
	int z = 0;
	return 1 % z;
}`},
	{name: "err_index_oob", src: `
int main() {
	Matrix int <1> v = [0 :: 4];
	return (int)v[9];
}`},
	{name: "err_shape_negative_dim", src: `
int main() {
	int n = 0 - 3;
	Matrix float <1> m;
	m = with ([0] <= [i] < [n]) genarray([n], 1.0);
	return 0;
}`},
	{name: "err_trap_depth", src: `
int f(int x) { return f(x); }
int main() { return f(1); }`},
	{name: "err_trap_step", opts: interp.Options{MaxSteps: 10_000}, src: `
int main() {
	int i = 0;
	while (i >= 0) { i = i + 1; }
	return 0;
}`},
	{name: "err_trap_oom", opts: interp.Options{MaxCells: 5000}, src: `
int main() {
	for (int i = 0; i < 1000; i++) {
		Matrix float <1> m = [0 :: 99] * 1.0;
	}
	return 0;
}`},
	{name: "err_rcget_null", src: `
int main() {
	refcounted int * c;
	print(rcget(c));
	return 0;
}`},
	{name: "err_fused_unassigned", src: `
int main() {
	Matrix float <1> a = [0 :: 3] * 1.0;
	Matrix float <1> b;
	Matrix float <1> r = a + b - a;
	print(r[0]);
	return 0;
}`},
	{name: "err_fused_shape_mismatch", src: `
int main() {
	Matrix float <1> a = [0 :: 3] * 1.0;
	Matrix float <1> b = [0 :: 5] * 1.0;
	Matrix float <1> r = a .* a + b;
	print(r[0]);
	return 0;
}`},
	{name: "err_fused_oom_mid_chain", opts: interp.Options{MaxCells: 30}, src: `
int main() {
	Matrix float <1> a = [0 :: 7] * 1.0;
	Matrix float <1> r = a + a - a .* a;
	print(r[0]);
	return 0;
}`},
}

func TestVMDifferentialCorpus(t *testing.T) {
	for _, tc := range vmCorpus {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			prog := parseAndCheck(t, tc.name+".xc", tc.src)
			for _, threads := range []int{1, 4} {
				opts := tc.opts
				opts.Threads = threads
				tree := runOne(t, prog, "tree", opts)
				vmr := runOne(t, prog, "vm", opts)
				compare(t, fmt.Sprintf("%s/t=%d", tc.name, threads), tree, vmr)
			}
		})
	}
}

// TestVMDifferentialTestdata drives every on-disk program through the
// driver under both engines, with deterministic in-memory inputs.
func TestVMDifferentialTestdata(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.xc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	exts, err := driver.ParseExtensions("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			d := driver.New()
			run := func(engine string) (string, *driver.RunResult, error) {
				var out bytes.Buffer
				res, rerr := d.Run(context.Background(), driver.RunRequest{
					Name: path, Source: string(src), Exts: exts, Threads: 2,
					MaxSteps: 50_000_000, MaxCells: 1 << 24,
					Files:  map[string]*matrix.Matrix{"ssh.data": sshCube(4, 5, 6, 7)},
					Stdout: &out, Engine: engine,
				})
				return out.String(), res, rerr
			}
			outT, resT, errT := run("tree")
			outV, resV, errV := run("vm")
			if resV.Engine != "vm" {
				t.Errorf("engine fell back to %q (bytecode compiler declined)", resV.Engine)
			}
			if outT != outV {
				t.Errorf("stdout diverged\n--- tree ---\n%s--- vm ---\n%s", outT, outV)
			}
			es := func(e error) string {
				if e == nil {
					return ""
				}
				return e.Error()
			}
			if es(errT) != es(errV) {
				t.Errorf("error diverged\ntree: %v\nvm:   %v", errT, errV)
			}
			if resT.ExitCode != resV.ExitCode {
				t.Errorf("exit code tree=%d vm=%d", resT.ExitCode, resV.ExitCode)
			}
		})
	}
}

// TestVMStepParity sweeps the step budget over a fixed program: for
// every budget value the two engines must agree on success vs
// trap:step, i.e. they tick the budget at identical statement counts.
func TestVMStepParity(t *testing.T) {
	prog := parseAndCheck(t, "steps.xc", `
int twice(int n) { return n * 2; }
int main() {
	int s = 0;
	for (int i = 0; i < 3; i++) {
		s = s + twice(i);
		if (s > 100) { s = 0; }
	}
	print(s);
	return 0;
}`)
	for steps := int64(1); steps <= 40; steps++ {
		opts := interp.Options{MaxSteps: steps}
		tree := runOne(t, prog, "tree", opts)
		vmr := runOne(t, prog, "vm", opts)
		compare(t, fmt.Sprintf("maxsteps=%d", steps), tree, vmr)
	}
}

// FuzzVMDiff cross-checks the engines on arbitrary source text: any
// program the front end accepts must behave identically under both.
// Programs whose tree-walker behavior is itself nondeterministic
// (e.g. print interleavings across spawns) are skipped by running the
// oracle twice.
func FuzzVMDiff(f *testing.F) {
	for _, tc := range vmCorpus {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var d source.Diagnostics
		p := parser.ParseFile("fuzz.xc", src, parser.AllExtensions(), &d)
		if p == nil {
			return
		}
		info := sem.Check(p, &d)
		if d.HasErrors() {
			return
		}
		prog := &parsedProg{prog: p, info: info}
		vmp, cerr := vm.Compile(p, info)
		if cerr != nil {
			// A compiler bail is a legitimate fallback (the driver runs
			// the tree walker), not a divergence.
			return
		}
		opts := interp.Options{Threads: 1, MaxSteps: 200_000, MaxCells: 1 << 16}
		run := func(engine string) engineResult {
			var out bytes.Buffer
			heap := rc.NewHeap()
			o := opts
			o.Stdout = &out
			o.Heap = heap
			i := interp.New(p, info, o)
			defer i.Close()
			var code int
			var err error
			if engine == "vm" {
				code, err = vm.NewMachine(vmp, i).Run()
			} else {
				code, err = i.Run()
			}
			res := engineResult{out: out.String(), code: code, cells: i.Budget().Used()}
			if err != nil {
				res.err = err.Error()
			}
			return res
		}
		t1 := run("tree")
		t2 := run("tree")
		if t1 != t2 {
			return // nondeterministic program; no usable oracle
		}
		v := run("vm")
		if t1.out != v.out || t1.code != v.code || t1.err != v.err || t1.cells != v.cells {
			t.Errorf("engines diverged on:\n%s\ntree: %+v\nvm:   %+v", src, t1, v)
		}
		_ = prog
	})
}
