package vet_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/vet"
)

// FuzzVet drives the whole static-analysis front half — parse, check,
// vet — over arbitrary program text. The analyzer must never panic and
// every finding it produces must carry a well-formed span into the
// input (so editors and the JSON pipeline can trust them blindly).
func FuzzVet(f *testing.F) {
	for _, dir := range []string{
		filepath.Join("..", "..", "testdata"),
		filepath.Join("..", "..", "testdata", "vet_golden"),
	} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range entries {
			ext := filepath.Ext(e.Name())
			if e.IsDir() || (ext != ".xc" && ext != ".cm") {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	// Hand-picked seeds aimed at the analyzer's own corners: loops,
	// joins, rc state, end-indexing, huge ranks, destructuring.
	for _, s := range []string{
		"int main() { Matrix float <2> a = init(Matrix float <2>, 3, 4); print(a[end, 1:end]); return 0; }",
		"int main() { refcounted int * p = rcnew(1); while (p) { rcrelease(p); } return 0; }",
		"int main() { Matrix float <64> z; print(z); return 0; }",
		"int f() {} int main() { int a; int b; a, b = g(); return a + b; }",
		"Matrix int <1> g; void h() { g = init(Matrix int <1>, 9); } int main() { h(); return g[8]; }",
		// Cilk spawn regions: races through globals, params and aliases,
		// targets read before sync, spawns in loops and branches.
		"int g = 0; int w() { g = g + 1; return g; } int main() { int a = 0; spawn a = w(); print(g); sync; return a; }",
		"int w(int n) { return n; } int main() { int a = 0; spawn a = w(1); int b = a; sync; return b; }",
		"void f(Matrix float <1> m, float v) { m[0] = v; return; } int main() { Matrix float <1> m = init(Matrix float <1>, 2); Matrix float <1> alias = m; spawn f(m, 1.0); spawn f(alias, 2.0); sync; return 0; }",
		"int w(int n) { return n; } int main() { int a = 0; for (int i = 0; i < 3; i++) { spawn a = w(i); } sync; return a; }",
		"int w(int n) { return n; } int main() { int a = 0; if (1 < 2) { spawn a = w(1); } print(a); sync; return a; }",
		"int p(int n) { return n * 2; } int main() { spawn p(3); sync; return 0; }",
		// Chained elementwise expressions: float and int chains,
		// matmul stages, int division, mixed element types,
		// unassigned leaves.
		"int main() { Matrix float <1> a = [0 :: 7] * 1.0; Matrix float <1> b = [1 :: 8] * 1.0; Matrix float <1> r = a .* b + a - b / 2.0; print(r[end]); return 0; }",
		"int main() { Matrix int <1> u = [1 :: 6]; Matrix int <1> w = u .* 2 + u - u .* u; print(w[end]); return 0; }",
		"int main() { Matrix float <2> a = init(Matrix float <2>, 2, 2); Matrix float <2> r = a * a + a .* a; print(r[0, 0]); return 0; }",
		"int main() { Matrix int <1> u = [1 :: 4]; Matrix int <1> r = u / 2 + u; print(r[0]); return 0; }",
		"int main() { Matrix float <1> a = [0 :: 3] * 1.0; Matrix float <1> b; Matrix float <1> r = a + b - a; print(r[0]); return 0; }",
	} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, src string) {
		var diags source.Diagnostics
		prog := parser.ParseFile("fuzz.xc", src, parser.AllExtensions(), &diags)
		if prog == nil {
			return
		}
		info := sem.Check(prog, &diags)
		findings := vet.Check(prog, info)
		for _, fd := range findings {
			checkSpan(t, "finding", fd.Code, fd.Span, len(src))
			for _, rel := range fd.Related {
				checkSpan(t, "related note", fd.Code, rel.Span, len(src))
			}
			if fd.Code == "" || fd.Message == "" {
				t.Errorf("finding with empty code or message: %+v", fd)
			}
			if fd.Severity != source.Error && fd.Severity != source.Warning {
				t.Errorf("finding %s has severity %v", fd.Code, fd.Severity)
			}
		}
	})
}

func checkSpan(t *testing.T, what, code string, sp source.Span, srcLen int) {
	t.Helper()
	if sp.File != "fuzz.xc" {
		t.Errorf("%s %s points at file %q", what, code, sp.File)
	}
	if sp.Start.Offset < 0 || sp.Start.Offset > srcLen {
		t.Errorf("%s %s start offset %d outside source of %d bytes", what, code, sp.Start.Offset, srcLen)
	}
	if sp.End.Offset < sp.Start.Offset || sp.End.Offset > srcLen {
		t.Errorf("%s %s end offset %d invalid (start %d, source %d bytes)", what, code, sp.End.Offset, sp.Start.Offset, srcLen)
	}
	if sp.Start.Line < 1 || sp.Start.Col < 1 {
		t.Errorf("%s %s has non-positive line/col %d:%d", what, code, sp.Start.Line, sp.Start.Col)
	}
}
