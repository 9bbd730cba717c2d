package loopir

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// meanNest builds the Fig 3 loop nest: the expanded temporal-mean
// with-loops (means[i*n+j] = sum_k mat[(i*n+j)*p+k] / p).
func meanNest(m, n, p int64) []Stmt {
	kLoop := &Loop{Index: "k", Lo: IC(0), Hi: IC(p), Body: []Stmt{
		&AssignStmt{V("tmp"), B("+", V("tmp"), Ld("mat", B("+", B("*", B("+", B("*", V("i"), IC(n)), V("j")), IC(p)), V("k"))))},
	}}
	jLoop := &Loop{Index: "j", Lo: IC(0), Hi: IC(n), Body: []Stmt{
		&DeclStmt{"float", "tmp", FC(0)},
		kLoop,
		&AssignStmt{Ld("means", B("+", B("*", V("i"), IC(n)), V("j"))), B("/", V("tmp"), FC(float64(p)))},
	}}
	iLoop := &Loop{Index: "i", Lo: IC(0), Hi: IC(m), Body: []Stmt{jLoop}}
	return []Stmt{iLoop}
}

func meanEnv(m, n, p int64, seed int64) *Env {
	env := NewEnv()
	r := rand.New(rand.NewSource(seed))
	mat := make([]float64, m*n*p)
	for i := range mat {
		mat[i] = r.Float64() * 10
	}
	env.Arrays["mat"] = mat
	env.Arrays["means"] = make([]float64, m*n)
	return env
}

func runNest(t *testing.T, nest []Stmt, env *Env) []float64 {
	t.Helper()
	if err := env.Exec(nest); err != nil {
		t.Fatalf("exec: %v", err)
	}
	return env.Arrays["means"]
}

func almostSame(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := a[i] - b[i]
		if d < -1e-9 || d > 1e-9 {
			return false
		}
	}
	return true
}

func TestMeanNestReference(t *testing.T) {
	const m, n, p = 3, 4, 5
	env := meanEnv(m, n, p, 1)
	mat := env.Arrays["mat"]
	got := runNest(t, meanNest(m, n, p), env)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			for k := 0; k < p; k++ {
				acc += mat[(i*n+j)*p+k]
			}
			want := acc / p
			d := got[i*n+j] - want
			if d < -1e-9 || d > 1e-9 {
				t.Fatalf("means[%d,%d] = %v, want %v", i, j, got[i*n+j], want)
			}
		}
	}
}

// Fig 9 → Fig 10: split j by 4 produces jout/jin loops with the
// substituted index, and preserves results.
func TestSplitMatchesFig10(t *testing.T) {
	const m, n, p = 3, 8, 5
	ref := runNest(t, meanNest(m, n, p), meanEnv(m, n, p, 2))

	nest := meanNest(m, n, p)
	nest, err := Split(nest, "j", 4, "jin", "jout")
	if err != nil {
		t.Fatal(err)
	}
	src := Print(nest)
	for _, want := range []string{
		"for (int jout = 0; jout < (8 / 4); jout++)",
		"for (int jin = 0; jin < 4; jin++)",
		"((jout * 4) + jin)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("split output missing %q:\n%s", want, src)
		}
	}
	if strings.Contains(src, "int j =") {
		t.Error("original j loop should be gone")
	}
	got := runNest(t, nest, meanEnv(m, n, p, 2))
	if !almostSame(ref, got) {
		t.Fatal("split changed results")
	}
}

func TestSplitErrors(t *testing.T) {
	nest := meanNest(2, 4, 3)
	if _, err := Split(nest, "q", 4, "a", "b"); err == nil {
		t.Error("split of unknown index should error")
	}
	if _, err := Split(nest, "j", 0, "a", "b"); err == nil {
		t.Error("zero factor should error")
	}
}

// Fig 10 → Fig 11: vectorize jin and parallelize i.
func TestVectorizeAndParallelize(t *testing.T) {
	nest := meanNest(3, 8, 5)
	nest, err := Split(nest, "j", 4, "jin", "jout")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Vectorize(nest, "jout"); err == nil {
		t.Error("vectorizing a loop with a non-constant trip count should error")
	}
	// The Fig 9 schedule: vectorize jin, whose body still contains the
	// scalar k loop (Fig 11 keeps the time loop scalar over vector
	// accumulators). jin's trip count is the split factor 4.
	if _, err := Vectorize(nest, "jin"); err != nil {
		t.Fatalf("vectorize jin (the Fig 9 schedule): %v", err)
	}
	if FindLoop(nest, "jin").VectorLanes != 4 {
		t.Error("jin should be marked 4-lane")
	}
	if _, err := Parallelize(nest, "i"); err != nil {
		t.Fatal(err)
	}
	if !FindLoop(nest, "i").Parallel {
		t.Error("i should be marked parallel")
	}
	src := Print(nest)
	if !strings.Contains(src, "#pragma omp parallel for") {
		t.Errorf("printed nest missing pragma:\n%s", src)
	}
}

func TestReorderPreservesSemantics(t *testing.T) {
	// Perfect 2-deep nest writing out[i*n+j] = i*10 + j.
	const m, n = 4, 5
	build := func() []Stmt {
		j := &Loop{Index: "j", Lo: IC(0), Hi: IC(n), Body: []Stmt{
			&AssignStmt{Ld("out", B("+", B("*", V("i"), IC(n)), V("j"))),
				B("+", B("*", V("i"), IC(10)), V("j"))},
		}}
		return []Stmt{&Loop{Index: "i", Lo: IC(0), Hi: IC(m), Body: []Stmt{j}}}
	}
	envA := NewEnv()
	envA.Arrays["out"] = make([]float64, m*n)
	if err := envA.Exec(build()); err != nil {
		t.Fatal(err)
	}
	nest := build()
	nest, err := Reorder(nest, []string{"j", "i"})
	if err != nil {
		t.Fatal(err)
	}
	// j must now be outermost
	outer := nest[0].(*Loop)
	if outer.Index != "j" {
		t.Fatalf("outer loop = %q, want j", outer.Index)
	}
	envB := NewEnv()
	envB.Arrays["out"] = make([]float64, m*n)
	if err := envB.Exec(nest); err != nil {
		t.Fatal(err)
	}
	if !almostSame(envA.Arrays["out"], envB.Arrays["out"]) {
		t.Fatal("reorder changed results")
	}
}

func TestReorderErrors(t *testing.T) {
	nest := meanNest(2, 4, 3)
	// i-j-k is not perfect between j and k (decl + trailing assign)
	if _, err := Reorder(nest, []string{"k", "j"}); err == nil {
		t.Error("reorder of imperfect nest should error")
	}
	if _, err := Reorder(nest, []string{"i"}); err == nil {
		t.Error("reorder with one index should error")
	}
	if _, err := Reorder(nest, []string{"a", "b"}); err == nil {
		t.Error("reorder of unknown loops should error")
	}
}

// Tile = split + split + reorder (§V), semantics preserved.
func TestTile(t *testing.T) {
	const m, n = 8, 8
	build := func() []Stmt {
		j := &Loop{Index: "j", Lo: IC(0), Hi: IC(n), Body: []Stmt{
			&AssignStmt{Ld("out", B("+", B("*", V("i"), IC(n)), V("j"))),
				B("*", B("+", V("i"), IC(1)), B("+", V("j"), IC(2)))},
		}}
		return []Stmt{&Loop{Index: "i", Lo: IC(0), Hi: IC(m), Body: []Stmt{j}}}
	}
	ref := NewEnv()
	ref.Arrays["out"] = make([]float64, m*n)
	if err := ref.Exec(build()); err != nil {
		t.Fatal(err)
	}
	nest, err := Tile(build(), "i", 4, "j", 4)
	if err != nil {
		t.Fatal(err)
	}
	src := Print(nest)
	// outermost-to-innermost: iout, jout, iin, jin
	iOut := strings.Index(src, "int iout")
	jOut := strings.Index(src, "int jout")
	iIn := strings.Index(src, "int iin")
	jIn := strings.Index(src, "int jin")
	if !(iOut < jOut && jOut < iIn && iIn < jIn) || iOut < 0 {
		t.Fatalf("tile order wrong:\n%s", src)
	}
	env := NewEnv()
	env.Arrays["out"] = make([]float64, m*n)
	if err := env.Exec(nest); err != nil {
		t.Fatal(err)
	}
	if !almostSame(ref.Arrays["out"], env.Arrays["out"]) {
		t.Fatal("tile changed results")
	}
}

func TestUnrollPreservesSemantics(t *testing.T) {
	build := func() []Stmt {
		return []Stmt{&Loop{Index: "i", Lo: IC(0), Hi: IC(12), Body: []Stmt{
			&AssignStmt{Ld("out", V("i")), B("*", V("i"), V("i"))},
		}}}
	}
	ref := NewEnv()
	ref.Arrays["out"] = make([]float64, 12)
	if err := ref.Exec(build()); err != nil {
		t.Fatal(err)
	}
	nest, err := Unroll(build(), "i", 4)
	if err != nil {
		t.Fatal(err)
	}
	l := nest[0].(*Loop)
	if hi := l.Hi.(*IntConst).V; hi != 3 {
		t.Errorf("unrolled trip count = %d, want 3", hi)
	}
	if len(l.Body) != 4 {
		t.Errorf("unrolled body stmts = %d, want 4", len(l.Body))
	}
	env := NewEnv()
	env.Arrays["out"] = make([]float64, 12)
	if err := env.Exec(nest); err != nil {
		t.Fatal(err)
	}
	if !almostSame(ref.Arrays["out"], env.Arrays["out"]) {
		t.Fatal("unroll changed results")
	}
	if _, err := Unroll(build(), "i", 5); err == nil {
		t.Error("non-divisible unroll should error")
	}
}

// Property: split with random divisible factors preserves the temporal
// mean result for random sizes and data.
func TestQuickSplitPreserves(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := int64(1 + r.Intn(4))
		factor := int64(1 + r.Intn(4))
		blocks := int64(1 + r.Intn(4))
		n := factor * blocks
		p := int64(1 + r.Intn(5))
		ref := runNoT(meanNest(m, n, p), meanEnv(m, n, p, seed))
		nest := meanNest(m, n, p)
		nest, err := Split(nest, "j", factor, "jin", "jout")
		if err != nil {
			return false
		}
		got := runNoT(nest, meanEnv(m, n, p, seed))
		return ref != nil && got != nil && almostSame(ref, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func runNoT(nest []Stmt, env *Env) []float64 {
	if err := env.Exec(nest); err != nil {
		return nil
	}
	return env.Arrays["means"]
}

func TestSubstShadowing(t *testing.T) {
	// substitution must not descend into loops that rebind the name
	inner := &Loop{Index: "i", Lo: IC(0), Hi: IC(3), Body: []Stmt{
		&AssignStmt{Ld("a", V("i")), V("i")},
	}}
	out := SubstStmt(inner, "i", IC(99)).(*Loop)
	if out.Body[0].(*AssignStmt).RHS.(*VarRef).Name != "i" {
		t.Error("substitution descended into a shadowing loop")
	}
}

func TestExecErrors(t *testing.T) {
	env := NewEnv()
	if err := env.Exec([]Stmt{&AssignStmt{Ld("ghost", IC(0)), IC(1)}}); err == nil {
		t.Error("store to unknown array should error")
	}
	if _, err := env.EvalExpr(V("nope")); err == nil {
		t.Error("unbound variable should error")
	}
	env.Arrays["a"] = make([]float64, 2)
	if err := env.Exec([]Stmt{&AssignStmt{Ld("a", IC(5)), IC(1)}}); err == nil {
		t.Error("out-of-range store should error")
	}
}

// Split of a trip count that is not a multiple of the factor keeps the
// last Hi % factor iterations in a scalar remainder loop, for constant
// and run-time bounds alike.
func TestSplitRemainder(t *testing.T) {
	const m, n, p = 3, 7, 5
	ref := runNest(t, meanNest(m, n, p), meanEnv(m, n, p, 4))

	nest, err := Split(meanNest(m, n, p), "j", 4, "jin", "jout")
	if err != nil {
		t.Fatal(err)
	}
	src := Print(nest)
	for _, want := range []string{
		"for (int jout = 0; jout < (7 / 4); jout++)",
		"for (int jin = 0; jin < 4; jin++)",
		"for (int j = ((7 / 4) * 4); j < 7; j++)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("split output missing %q:\n%s", want, src)
		}
	}
	if got := runNest(t, nest, meanEnv(m, n, p, 4)); !almostSame(ref, got) {
		t.Fatalf("split at trip count 7, factor 4 changed results:\n%s", src)
	}

	// A run-time bound cannot be proven a multiple, so it always gets
	// the remainder loop.
	dyn := meanNest(m, n, p)
	dyn[0].(*Loop).Body[0].(*Loop).Hi = V("n")
	dyn, err = Split(dyn, "j", 4, "jin", "jout")
	if err != nil {
		t.Fatal(err)
	}
	env := meanEnv(m, n, p, 4)
	env.Vars["n"] = IV(n)
	if got := runNest(t, dyn, env); !almostSame(ref, got) {
		t.Fatalf("split of a run-time bound changed results:\n%s", Print(dyn))
	}
}

// A remainder loop leaves an imperfect nest. Tiling must keep every
// cell whichever loop has a remainder: an outer remainder runs the
// original inner loop, an inner one runs under its own copy of the
// xin loop. Run-time bounds always get a remainder loop.
func TestTileWithRemainder(t *testing.T) {
	build := func(m, n int64, dyn bool) []Stmt {
		var hi Expr = IC(n)
		if dyn {
			hi = V("n")
		}
		j := &Loop{Index: "j", Lo: IC(0), Hi: hi, Body: []Stmt{
			&AssignStmt{Ld("out", B("+", B("*", V("i"), IC(n)), V("j"))),
				B("*", B("+", V("i"), IC(1)), B("+", V("j"), IC(2)))},
		}}
		return []Stmt{&Loop{Index: "i", Lo: IC(0), Hi: IC(m), Body: []Stmt{j}}}
	}
	run := func(nest []Stmt, m, n int64) []float64 {
		env := NewEnv()
		env.Vars["n"] = IV(n)
		env.Arrays["out"] = make([]float64, m*n)
		if err := env.Exec(nest); err != nil {
			t.Fatal(err)
		}
		return env.Arrays["out"]
	}
	for _, c := range [][2]int64{{7, 8}, {8, 7}, {7, 7}, {9, 13}, {3, 2}, {0, 5}, {8, 8}} {
		m, n := c[0], c[1]
		for _, dyn := range []bool{false, true} {
			ref := run(build(m, n, dyn), m, n)
			nest, err := Tile(build(m, n, dyn), "i", 4, "j", 4)
			if err != nil {
				t.Fatalf("tile %dx%d (run-time bound %v): %v", m, n, dyn, err)
			}
			if got := run(nest, m, n); !almostSame(ref, got) {
				t.Fatalf("tile %dx%d (run-time bound %v) changed results:\n%s", m, n, dyn, Print(nest))
			}
		}
	}
}
