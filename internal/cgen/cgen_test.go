package cgen

import (
	"bytes"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/matio"
	"repro/internal/matrix"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

func gen(t *testing.T, src string, opts Options) string {
	t.Helper()
	var d source.Diagnostics
	prog := parser.ParseFile("t.xc", src, parser.AllExtensions(), &d)
	if prog == nil {
		t.Fatalf("parse failed:\n%s", d.String())
	}
	info := sem.Check(prog, &d)
	if d.HasErrors() {
		t.Fatalf("check failed:\n%s", d.String())
	}
	c, err := Generate(prog, info, opts)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return c
}

func haveGCC() bool {
	_, err := exec.LookPath("gcc")
	return err == nil
}

// compileC compiles generated C, failing the test on any diagnostic.
func compileC(t *testing.T, csrc, dir string) string {
	t.Helper()
	cfile := filepath.Join(dir, "prog.c")
	if err := os.WriteFile(cfile, []byte(csrc), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "prog")
	cmd := exec.Command("gcc", "-O1", "-Wall", "-Wno-unused-variable",
		"-Wno-unused-but-set-variable", "-Wno-unused-function",
		"-o", bin, cfile, "-lpthread", "-lm")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("gcc failed: %v\n%s\n--- generated C ---\n%s", err, out, numberLines(csrc))
	}
	if len(bytes.TrimSpace(out)) > 0 {
		t.Logf("gcc warnings:\n%s", out)
	}
	return bin
}

func numberLines(s string) string {
	lines := strings.Split(s, "\n")
	var b strings.Builder
	for i, l := range lines {
		b.WriteString(strings.TrimRight(strings.Repeat(" ", 0)+itoa(i+1)+": "+l, " "))
		b.WriteByte('\n')
	}
	return b.String()
}

func itoa(n int) string {
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

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

// E1: Fig 1 expands to the Fig 3 loop nest — two nested for loops,
// an inner accumulation loop replacing the fold, direct strided
// element access (slice elimination), and no temporary copy.
func TestE1Fig1ExpandsToFig3Shape(t *testing.T) {
	c := gen(t, fig1Src, Options{Par: ParNone, Optimize: true})
	for _, want := range []string{
		"for (long u_i = ", // outer genarray loop over i
		"for (long u_j = ", // loop over j
		"for (long u_k = ", // the fold became an accumulation loop
		"u_mat_d_w1[",      // direct data access: no copied slice of mat
		"u_mat_s0_w1",      // hoisted strides (slice elimination)
	} {
		if !strings.Contains(c, want) {
			t.Errorf("generated C missing %q", want)
		}
	}
	if strings.Contains(c, "cm_copy(_wl") {
		t.Error("optimized output should not copy the with-loop result (fusion, §III-A.4)")
	}
	// The inner accumulator divides by p and stores into means.
	if !strings.Contains(c, "_acc") {
		t.Error("generated C missing the fold accumulator")
	}
	// No 'end' in the body, so no dimension variables are hoisted.
	if strings.Contains(c, "u_mat_dim0") {
		t.Error("dimension variables should only be hoisted when 'end' is used")
	}
}

func TestE1AblationUsesCheckedAccessors(t *testing.T) {
	c := gen(t, fig1Src, Options{Par: ParNone, Optimize: false})
	if !strings.Contains(c, "cm_at3(") {
		t.Error("unoptimized output should access elements via cm_at3")
	}
	if !strings.Contains(c, "cm_copy(_wl") {
		t.Error("unoptimized output should copy the with-loop result (no fusion)")
	}
	if strings.Contains(c, "u_mat_s0") {
		t.Error("unoptimized output should not hoist strides")
	}
}

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

// E2: the split transformation produces the Fig 10 structure.
func TestE2SplitProducesFig10(t *testing.T) {
	src := strings.Replace(fig9Src,
		"split j by 4, jin, jout.\n\t\t\tvectorize jin.\n\t\t\tparallelize i;",
		"split j by 4, jin, jout;", 1)
	c := gen(t, src, Options{Par: ParNone, Optimize: true})
	for _, want := range []string{
		"for (long u_jout = ",
		"for (long u_jin = 0; u_jin < 4;",
		"((u_jout * 4) + u_jin)", // j replaced by jout*4 + jin
	} {
		if !strings.Contains(c, want) {
			t.Errorf("generated C missing %q\n", want)
		}
	}
	// n is a run-time bound, so the last n % 4 iterations run in a
	// scalar remainder loop; the full-range j loop is gone.
	if !strings.Contains(c, "for (long u_j = ((") {
		t.Error("generated C missing the split remainder loop over j")
	}
	if strings.Contains(c, "for (long u_j = 0;") {
		t.Error("original j loop should be replaced by the split pair")
	}
}

// splitRemainderSrc splits trip counts that are not multiples of the
// factor: a constant 7 (vectorized), a run-time n = 7, and a tile
// whose outer loop has a remainder.
const splitRemainderSrc = `
int main() {
	int n = 7;
	Matrix float <2> a;
	a = with ([0, 0] <= [i, j] < [3, 7]) genarray([3, 7], (float)(i * 10 + j) * 0.5)
		transform split j by 4, jin, jout. vectorize jin;
	Matrix float <2> b;
	b = with ([0, 0] <= [i, j] < [3, n]) genarray([3, n], (float)(i + j * 3))
		transform split j by 4, jin, jout;
	Matrix float <2> c;
	c = with ([0, 0] <= [x, y] < [7, 8]) genarray([7, 8], (float)(x * 8 + y))
		transform tile x by 4, y by 4;
	float s = with ([0, 0] <= [i, j] < [3, 7]) fold(+, 0.0, a[i, j] + b[i, j]);
	float sc = with ([0, 0] <= [x, y] < [7, 8]) fold(+, 0.0, c[x, y]);
	print(s);
	print(sc);
	print(a[2, 6]);
	print(b[2, 6]);
	print(c[6, 7]);
	return 0;
}
`

// A split whose trip count is not a multiple of the factor must keep
// every iteration: the compiled C prints what the tree walker prints.
func TestSplitRemainderCompiledMatchesInterpreter(t *testing.T) {
	if !haveGCC() {
		t.Skip("gcc not available")
	}
	wantOut := runInterp(t, splitRemainderSrc, map[string]*matrix.Matrix{}, 1)
	for _, opt := range []Options{
		{Par: ParNone, Optimize: true},
		{Par: ParPthread, Optimize: true},
	} {
		dir := t.TempDir()
		bin := compileC(t, gen(t, splitRemainderSrc, opt), dir)
		cmd := exec.Command(bin)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("compiled program failed (%+v): %v\n%s", opt, err, out)
		}
		if string(out) != wantOut {
			t.Fatalf("stdout differs (%+v):\ncompiled: %q\ninterp:   %q", opt, out, wantOut)
		}
	}
}

// A tile whose inner loop has a remainder would reorder an imperfect
// nest; the translator must refuse it rather than emit wrong C.
func TestTileInnerRemainderIsCompileError(t *testing.T) {
	src := strings.Replace(splitRemainderSrc, "[7, 8]) genarray([7, 8]", "[8, 7]) genarray([8, 7]", 1)
	var d source.Diagnostics
	prog := parser.ParseFile("t.xc", src, parser.AllExtensions(), &d)
	info := sem.Check(prog, &d)
	if d.HasErrors() {
		t.Fatalf("check failed:\n%s", d.String())
	}
	_, err := Generate(prog, info, Options{Par: ParNone, Optimize: true})
	if err == nil || !strings.Contains(err.Error(), "perfect loop nest") {
		t.Fatalf("Generate error = %v, want a perfect-nest error", err)
	}
}

// E3: vectorize + parallelize produce the Fig 11 shape — SSE
// intrinsics with the scalar k loop over vector accumulators, and an
// OpenMP parallel-for on the outer loop in omp mode.
func TestE3VectorizeProducesFig11(t *testing.T) {
	c := gen(t, fig9Src, Options{Par: ParOMP, Optimize: true})
	for _, want := range []string{
		"#include <xmmintrin.h>",
		"#pragma omp parallel for",
		"_mm_set1_ps",
		"_mm_add_ps",
		"_mm_setr_ps", // strided gathers of mat elements, as in Fig 11
		"_mm_storeu_ps",
		"__m128",
		"for (long u_k = ", // the time loop stays scalar over vectors
	} {
		if !strings.Contains(c, want) {
			t.Errorf("generated C missing %q", want)
		}
	}
}

// The pthread mode lifts the auto-parallelized outer loop into a
// worker function dispatched on the fork-join pool.
func TestPthreadLifting(t *testing.T) {
	c := gen(t, fig1Src, Options{Par: ParPthread, Optimize: true})
	for _, want := range []string{
		"_wlargs1",
		"_wlwork1",
		"cm_pool_run(_wlwork1",
		"stop barrier",
	} {
		if !strings.Contains(c, want) {
			t.Errorf("generated C missing %q", want)
		}
	}
}

// All option combinations must produce C that gcc accepts.
func TestGeneratedCCompiles(t *testing.T) {
	if !haveGCC() {
		t.Skip("gcc not available")
	}
	srcs := map[string]string{
		"fig1": fig1Src,
		"fig9": fig9Src,
		"fig8": fig8Src,
		"misc": miscSrc,
	}
	for name, src := range srcs {
		for _, opt := range []Options{
			{Par: ParNone, Optimize: true},
			{Par: ParNone, Optimize: false},
			{Par: ParPthread, Optimize: true},
			{Par: ParOMP, Optimize: true},
		} {
			t.Run(name+"/"+string(opt.Par), func(t *testing.T) {
				c := gen(t, src, opt)
				compileC(t, c, t.TempDir())
			})
		}
	}
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
	while (ts[i] < ts[i + 1])
		i = i + 1;
	int n = dimSize(ts, 0);
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

const miscSrc = `
int g = 7;
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int main() {
	refcounted int * p = rcnew(1);
	rcset(p, rcget(p) + fib(10));
	Matrix int <1> v = [0 :: 9];
	Matrix int <1> odds = v[v % 2 == 1];
	Matrix float <2> a = init(Matrix float <2>, 4, 4);
	a[1, 2] = 3.5;
	Matrix float <2> b = a * a + a .* a - a / 2.0;
	Matrix bool <2> c = (b > 0.0) && !(b == 1.0);
	print(g);
	print(rcget(p));
	print(dimSize(odds, 0));
	print(b[1, 2]);
	for (int i = 0; i < 3; i++) {
		if (i == 1) { continue; }
		print(i);
	}
	return 0;
}
`

// Compile AND execute the Fig 1 program; its output file must match
// the interpreter's result (within float32 precision, since the
// generated C uses the paper's 32-bit floats).
func TestE1CompiledMatchesInterpreter(t *testing.T) {
	if !haveGCC() {
		t.Skip("gcc not available")
	}
	const m, n, p = 6, 8, 10
	ssh := matrix.New(matrix.Float, m, n, p)
	r := rand.New(rand.NewSource(11))
	for k := range ssh.Floats() {
		ssh.Floats()[k] = r.Float64() * 5
	}
	// Interpreter run.
	files := map[string]*matrix.Matrix{"ssh.data": ssh}
	runInterp(t, fig1Src, files, 1)
	want := files["means.data"]

	for _, opt := range []Options{
		{Par: ParNone, Optimize: true},
		{Par: ParNone, Optimize: false},
		{Par: ParPthread, Optimize: true},
	} {
		dir := t.TempDir()
		if err := matio.WriteFile(filepath.Join(dir, "ssh.data"), ssh); err != nil {
			t.Fatal(err)
		}
		c := gen(t, fig1Src, opt)
		bin := compileC(t, c, dir)
		args := []string{}
		if opt.Par == ParPthread {
			args = []string{"-t", "3"}
		}
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("compiled program failed (%+v): %v\n%s", opt, err, out)
		}
		got, err := matio.ReadFile(filepath.Join(dir, "means.data"))
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.AlmostEqual(got, want, 1e-3) {
			t.Fatalf("compiled C result differs from interpreter (options %+v)", opt)
		}
	}
}

// Compile and run the misc program; stdout must match the interpreter.
func TestMiscCompiledMatchesInterpreter(t *testing.T) {
	if !haveGCC() {
		t.Skip("gcc not available")
	}
	files := map[string]*matrix.Matrix{}
	wantOut := runInterp(t, miscSrc, files, 1)

	dir := t.TempDir()
	c := gen(t, miscSrc, Options{Par: ParNone, Optimize: true})
	bin := compileC(t, c, dir)
	cmd := exec.Command(bin)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("compiled program failed: %v\n%s", err, out)
	}
	if string(out) != wantOut {
		t.Fatalf("stdout differs:\ncompiled: %q\ninterp:   %q", out, wantOut)
	}
}

// Fig 8 compiled end to end: the trough-scoring pipeline through
// matrixMap must match the interpreter.
func TestFig8CompiledMatchesInterpreter(t *testing.T) {
	if !haveGCC() {
		t.Skip("gcc not available")
	}
	const x, y, ts = 3, 3, 12
	data := matrix.New(matrix.Float, x, y, ts)
	r := rand.New(rand.NewSource(5))
	for k := range data.Floats() {
		// gentle wave + noise so troughs exist
		data.Floats()[k] = 2 + float64(k%5) + r.Float64()
	}
	files := map[string]*matrix.Matrix{"ssh.data": data}
	runInterp(t, fig8Src, files, 1)
	want := files["temporalScores.data"]

	dir := t.TempDir()
	if err := matio.WriteFile(filepath.Join(dir, "ssh.data"), data); err != nil {
		t.Fatal(err)
	}
	c := gen(t, fig8Src, Options{Par: ParPthread, Optimize: true})
	bin := compileC(t, c, dir)
	cmd := exec.Command(bin, "-t", "2")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("compiled program failed: %v\n%s", err, out)
	}
	got, err := matio.ReadFile(filepath.Join(dir, "temporalScores.data"))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.AlmostEqual(got, want, 1e-3) {
		t.Fatal("compiled Fig 8 scores differ from the interpreter")
	}
}

// Vectorized output must also compile and produce the same numbers.
func TestE3VectorizedCompiledMatchesInterpreter(t *testing.T) {
	if !haveGCC() {
		t.Skip("gcc not available")
	}
	const m, n, p = 4, 8, 6
	ssh := matrix.New(matrix.Float, m, n, p)
	r := rand.New(rand.NewSource(23))
	for k := range ssh.Floats() {
		ssh.Floats()[k] = r.Float64()
	}
	files := map[string]*matrix.Matrix{"ssh.data": ssh}
	runInterp(t, fig9Src, files, 1)
	want := files["means.data"]

	dir := t.TempDir()
	if err := matio.WriteFile(filepath.Join(dir, "ssh.data"), ssh); err != nil {
		t.Fatal(err)
	}
	c := gen(t, fig9Src, Options{Par: ParOMP, Optimize: true})
	bin := compileC(t, c, dir)
	cmd := exec.Command(bin)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("vectorized program failed: %v\n%s", err, out)
	}
	got, err := matio.ReadFile(filepath.Join(dir, "means.data"))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.AlmostEqual(got, want, 1e-3) {
		t.Fatal("vectorized C result differs from interpreter")
	}
}

// runInterp executes src in the interpreter, returning stdout.
func runInterp(t *testing.T, src string, files map[string]*matrix.Matrix, threads int) string {
	t.Helper()
	var d source.Diagnostics
	prog := parser.ParseFile("t.xc", src, parser.AllExtensions(), &d)
	if prog == nil {
		t.Fatalf("parse failed:\n%s", d.String())
	}
	info := sem.Check(prog, &d)
	if d.HasErrors() {
		t.Fatalf("check failed:\n%s", d.String())
	}
	var out bytes.Buffer
	i := interp.New(prog, info, interp.Options{Files: files, Threads: threads,
		Stdout: &out, MaxSteps: 10_000_000})
	defer i.Close()
	if _, err := i.Run(); err != nil {
		t.Fatalf("interp: %v", err)
	}
	return out.String()
}

var _ = ast.Print

// transposeSrc: whole-shape m[j, i] genarray bodies (the fast-path
// pattern), a corner transpose of a larger source (fast path with a
// short leading dimension), and a shifted body that must stay on the
// general nest.
const transposeSrc = `
int main() {
	int r = 13;
	int c = 7;
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [r, c]) genarray([r, c], (float)(i * 10 + j));
	Matrix float <2> t;
	t = with ([0, 0] <= [i, j] < [c, r]) genarray([c, r], m[j, i]);
	Matrix float <2> back;
	back = with ([0, 0] <= [i, j] < [r, c]) genarray([r, c], t[j, i]);
	float diff = with ([0, 0] <= [i, j] < [r, c]) fold(+, 0.0, back[i, j] - m[i, j]);
	print(diff);
	print(t[6, 12]);
	Matrix float <2> corner;
	corner = with ([0, 0] <= [i, j] < [5, 5]) genarray([5, 5], m[j, i]);
	print(corner[4, 2]);
	Matrix int <2> a;
	a = with ([0, 0] <= [i, j] < [c, r]) genarray([c, r], i * 100 + j);
	Matrix int <2> at;
	at = with ([0, 0] <= [i, j] < [r, c]) genarray([r, c], a[j, i]);
	print(at[12, 6]);
	Matrix float <2> sh;
	sh = with ([0, 0] <= [i, j] < [5, 5]) genarray([5, 5], m[j + 1, i]);
	print(sh[0, 0]);
	return 0;
}
`

// The optimized build must route exactly the four whole-shape
// transpose bodies to the cm_transpose kernel; the shifted body and
// every loop in the ablation baseline stay on the general nest.
func TestTransposeFastPathEmission(t *testing.T) {
	opt := gen(t, transposeSrc, Options{Par: ParNone, Optimize: true})
	if n := strings.Count(opt, "cm_transpose(_wl"); n != 4 {
		t.Fatalf("optimized build emitted %d cm_transpose calls, want 4\n%s", n, numberLines(opt))
	}
	base := gen(t, transposeSrc, Options{Par: ParNone, Optimize: false})
	if n := strings.Count(base, "cm_transpose(_wl"); n != 0 {
		t.Fatalf("ablation baseline emitted %d cm_transpose calls, want 0", n)
	}
}

// Compile and run the transpose program; stdout must match the
// interpreter on every option combination, fast path or not.
func TestTransposeCompiledMatchesInterpreter(t *testing.T) {
	if !haveGCC() {
		t.Skip("gcc not available")
	}
	files := map[string]*matrix.Matrix{}
	wantOut := runInterp(t, transposeSrc, files, 1)
	for _, opt := range []Options{
		{Par: ParNone, Optimize: true},
		{Par: ParNone, Optimize: false},
		{Par: ParPthread, Optimize: true},
	} {
		dir := t.TempDir()
		c := gen(t, transposeSrc, opt)
		bin := compileC(t, c, dir)
		args := []string{}
		if opt.Par == ParPthread {
			args = []string{"-t", "3"}
		}
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("compiled program failed (%+v): %v\n%s", opt, err, out)
		}
		if string(out) != wantOut {
			t.Fatalf("stdout differs (%+v):\ncompiled: %q\ninterp:   %q", opt, out, wantOut)
		}
	}
}
