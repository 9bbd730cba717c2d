package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// Endpoints the benchmark drives through the gate.
const (
	epRun     = "/v1/run"
	epVet     = "/v1/vet"
	epCompile = "/v1/compile"
)

// program is one fixed benchmark program.
type program struct {
	name   string
	source string
}

// scalarPrograms is warm_scalar's fixed set: each runs in well under a
// millisecond, so the HTTP hops, gate, server, driver cache reads,
// per-run pool setup and VM dispatch do nearly all the work. One per
// control-flow shape the VM has a distinct path for. The count is odd
// so the median request falls inside one program's latency cluster
// rather than in the gap between two, where it would jump from run to
// run.
var scalarPrograms = []program{
	// Counted loop: compare-and-branch loop header + add-const.
	{"counted_loop", `int main() {
	int s = 0;
	for (int i = 0; i < 3000; i++) {
		s = s + (i * 7) % 13;
	}
	print(s);
	return 0;
}
`},
	// Recursive calls: frame push/pop per call.
	{"recursive_fib", `int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int main() {
	print(fib(16));
	return 0;
}
`},
	// Cilk spawn/sync: task spawns on the run's pool.
	{"cilk_fib", `int fib(int n) {
	if (n < 2) return n;
	int a = 0;
	int b = 0;
	spawn a = fib(n - 1);
	b = fib(n - 2);
	sync;
	return a + b;
}
int main() {
	print(fib(11));
	return 0;
}
`},
	// Tuples and reference-counted cells.
	{"tuples_rc", `(int, int) divmod(int a, int b) {
	return (a / b, a % b);
}
int main() {
	refcounted int * acc = rcnew(0);
	for (int i = 1; i < 200; i++) {
		int q; int r;
		(q, r) = divmod(i * 37, 11);
		rcset(acc, rcget(acc) + q - r);
	}
	print(rcget(acc));
	return 0;
}
`},
	// Rank-1 indexed load/store loop.
	{"index_loop", `int main() {
	Matrix int <1> v = [0 :: 511];
	int s = 0;
	for (int i = 0; i < 512; i++) {
		v[i] = v[i] * 3 + 1;
	}
	for (int i = 0; i < 512; i++) {
		s = s + v[i] % 17;
	}
	print(s);
	return 0;
}
`},
	// Float accumulator under a branch.
	{"float_branch", `int main() {
	float acc = 0.0;
	int i = 0;
	while (i < 1600) {
		if (i % 3 == 0) { acc = acc + 0.5; } else { acc = acc - 0.25; }
		i = i + 1;
	}
	print(acc);
	return 0;
}
`},
	// Data-dependent while/if loop.
	{"collatz", `int main() {
	int steps = 0;
	int n = 27;
	while (n != 1) {
		if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
		steps = steps + 1;
	}
	print(steps);
	return 0;
}
`},
}

// matrixPrograms is warm_matrix's fixed set: kernels, pool
// coordination and the flat/fused VM paths take nearly all the time.
// Every printed value is an integer or a dyadic fraction small enough
// that float sums are exact in any order, so the parallel answer must
// equal the tree walker's to the last digit. The count is odd for the
// same reason as scalarPrograms'.
var matrixPrograms = []program{
	// Blocked i-k-j matmul on the pool.
	{"matmul", `int main() {
	int n = 192;
	Matrix float <2> a;
	a = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 0.5 * i - 0.25 * j);
	Matrix float <2> b;
	b = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 0.25 * j - 0.5 * i + 1.0);
	Matrix float <2> c = a * b;
	float total = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, c[i, j]);
	print(total);
	print(c[17, 101]);
	return 0;
}
`},
	// Flat with-loops: transpose pattern, five-point stencil, fold.
	{"stencil", `int main() {
	int n = 384;
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
	print(total);
	print(s[5, 7]);
	return 0;
}
`},
	// Facts-proven elementwise chain: one fused loop per iteration.
	{"fused_chain", `int main() {
	Matrix float <1> a = [0 :: 65535] * 1.0;
	Matrix float <1> b = [1 :: 65536] * 1.0;
	float s = 0.0;
	for (int k = 0; k < 16; k++) {
		Matrix float <1> r = a .* b + a - b * 0.5;
		s = s + r[end] + r[k];
	}
	print(s);
	return 0;
}
`},
	// matrixMap over rows, each row a flat with-loop in the callee.
	{"matrix_map", `Matrix float <1> smooth(Matrix float <1> v) {
	int n = dimSize(v, 0);
	return with ([0] <= [i] < [n]) genarray([n], v[i] * 0.5 + 1.0);
}
int main() {
	int r = 256;
	int c = 256;
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [r, c]) genarray([r, c], 0.25 * i + 0.5 * j);
	Matrix float <2> s = matrixMap(smooth, m, [1]);
	float total = with ([0, 0] <= [i, j] < [r, c]) fold(+, 0.0, s[i, j]);
	print(total);
	print(s[3, 5]);
	return 0;
}
`},
	// A with-loop body calling a function: not provable flat, so it
	// runs on the per-element closure path.
	{"closure_with", `int weight(int i, int j) {
	return (i * 31 + j * 17) % 23;
}
int main() {
	int n = 100;
	Matrix int <2> w;
	w = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], weight(i, j));
	int total = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0, w[i, j]);
	print(total);
	return 0;
}
`},
}

// request is one generated request and what a correct answer is.
type request struct {
	endpoint string
	label    string // fixed program name or template name
	seq      int64  // generator sequence number
	source   string
	body     []byte
	// wantCodes is the vet verdict: the finding codes a correct
	// /v1/vet answer carries (empty for a clean program).
	wantCodes []string
}

// runBody encodes a /v1/run body. threads is omitted, as a typical
// client sends it, so every run gets the server's all-core pool.
func runBody(name, src string) []byte {
	b, _ := json.Marshal(map[string]string{"name": name, "source": src})
	return b
}

// generator yields a workload's request sequence. next is called with
// a global sequence number so the sequence depends only on the seed,
// not on which client happens to take which request.
type generator interface {
	next(seq int64) request
	// fixedSet is the workload's fixed programs (nil for cold_compile).
	fixedSet() []program
	// warmup is the pass made during set-up so caches are full before
	// timing.
	warmup() []request
}

// fixedGen cycles a fixed program set round-robin in a seeded order.
type fixedGen struct {
	progs  []program
	order  []int
	bodies [][]byte
}

func newFixedGen(progs []program, seed int64) *fixedGen {
	g := &fixedGen{progs: progs, order: rand.New(rand.NewSource(seed)).Perm(len(progs))}
	for _, p := range progs {
		g.bodies = append(g.bodies, runBody("bench_"+p.name+".xc", p.source))
	}
	return g
}

func (g *fixedGen) next(seq int64) request {
	i := g.order[seq%int64(len(g.order))]
	return request{endpoint: epRun, label: g.progs[i].name, seq: seq,
		source: g.progs[i].source, body: g.bodies[i]}
}

func (g *fixedGen) fixedSet() []program { return g.progs }

func (g *fixedGen) warmup() []request {
	var out []request
	for i := range g.progs {
		out = append(out, g.next(int64(i)))
	}
	return out
}

// coldGen makes a seeded-unique program per request, so every request
// misses every driver cache. Endpoints rotate compile, vet, run.
type coldGen struct{ seed int64 }

// Planted vet defects and the codes a correct verdict carries.
const (
	defectShape  = "shape-mismatch"
	defectRC     = "rc-double-release"
	defectRace   = "CM-RACE"
	plantedShare = 0.25
)

var coldEndpoints = []string{epCompile, epVet, epRun}

func (g *coldGen) fixedSet() []program { return nil }

func (g *coldGen) next(seq int64) request {
	rng := rand.New(rand.NewSource(g.seed*1_000_003 + seq))
	ep := coldEndpoints[seq%int64(len(coldEndpoints))]
	tmpl := rng.Intn(len(coldTemplates))
	defect := ""
	if ep == epVet && rng.Float64() < plantedShare {
		defect = []string{defectShape, defectRC, defectRace}[rng.Intn(3)]
	}
	return g.makeWith(seq, fmt.Sprintf("s%dq%d", g.seed, seq), tmpl, ep, defect)
}

// warmup sends one program per template and endpoint under a tag no
// timed request uses, so set-up builds the lazy state (grammar tables,
// the gate's hedge window) without pre-filling any timed request's
// cache entry.
func (g *coldGen) warmup() []request {
	var out []request
	for t := range coldTemplates {
		for e := range coldEndpoints {
			seq := int64(t*len(coldEndpoints) + e)
			r := g.makeWith(seq, fmt.Sprintf("w%d", seq), t, coldEndpoints[e], "")
			out = append(out, r)
		}
	}
	return out
}

// cacheCap is the driver's default number of entries per cache
// (driver.Config.MaxCacheEntries), which cmserved keeps by default.
const cacheCap = 4096

// fill is program k of shard's set-up fill: one unique program, under
// a tag no timed or warm-up request uses, sent as compile, vet and run.
// cacheCap of them give each of the shard's five driver caches
// (frontend, compile, vet, VM, facts) cacheCap entries, so the timed
// window runs at the steady state of a long-lived server: every cache
// is at its cap and every timed insert evicts.
func (g *coldGen) fill(shard, k int) []request {
	seq := int64(shard*cacheCap + k)
	tmpl := rand.New(rand.NewSource(g.seed*104_729 + seq)).Intn(len(coldTemplates))
	out := make([]request, 0, len(coldEndpoints))
	for _, ep := range coldEndpoints {
		out = append(out, g.makeWith(seq, fmt.Sprintf("f%d", seq), tmpl, ep, ""))
	}
	return out
}

func (g *coldGen) makeWith(seq int64, tag string, tmpl int, ep, defect string) request {
	rng := rand.New(rand.NewSource(g.seed*7_919 + seq*31 + int64(tmpl)))
	t := coldTemplates[tmpl]
	src := t.gen(rng, tag)
	var want []string
	if defect != "" {
		src = plant(rng, tag, defect) + src
		want = []string{defect}
	}
	name := "gen_" + tag + ".xc"
	var body []byte
	switch ep {
	case epRun:
		body = runBody(name, src)
	case epVet:
		body, _ = json.Marshal(map[string]string{"name": name, "source": src})
	case epCompile:
		// Emit C, optimized (the server's defaults, spelled out).
		body, _ = json.Marshal(map[string]any{"name": name, "source": src, "emit": "c", "optimize": true})
	}
	return request{endpoint: ep, label: t.name, seq: seq, source: src, body: body, wantCodes: want}
}

// coldTemplate varies identifiers, constants and shapes over one
// program shape drawn from testdata/ and examples/.
type coldTemplate struct {
	name string
	gen  func(rng *rand.Rand, tag string) string
}

var coldTemplates = []coldTemplate{
	// with-loop genarray + fold (testdata/transpose_roundtrip.xc).
	{"withloop", func(rng *rand.Rand, tag string) string {
		rows, cols := 4+rng.Intn(28), 4+rng.Intn(28)
		k, mod := 2+rng.Intn(97), 3+rng.Intn(40)
		return fmt.Sprintf(`int main() {
	int r_%[1]s = %[2]d;
	int c_%[1]s = %[3]d;
	Matrix int <2> g_%[1]s;
	g_%[1]s = with ([0, 0] <= [i, j] < [r_%[1]s, c_%[1]s]) genarray([r_%[1]s, c_%[1]s], i * %[4]d + j);
	Matrix int <2> t_%[1]s;
	t_%[1]s = with ([0, 0] <= [i, j] < [c_%[1]s, r_%[1]s]) genarray([c_%[1]s, r_%[1]s], g_%[1]s[j, i]);
	int sum_%[1]s = with ([0, 0] <= [i, j] < [c_%[1]s, r_%[1]s]) fold(+, 0, t_%[1]s[i, j] %% %[5]d);
	print(sum_%[1]s);
	print(t_%[1]s[1, 2]);
	return 0;
}
`, tag, rows, cols, k, mod)
	}},
	// with-loop with a transform clause (testdata/transform_mean.xc).
	// split j by 4 assumes, as in the paper's Fig 10 and as loopir.Split
	// documents, that j's trip count n is a multiple of 4, so n is drawn
	// from the multiples of 4: with any other n the emitted C skips the
	// last n%4 columns and the program is outside the transform's
	// contract.
	{"transform", func(rng *rand.Rand, tag string) string {
		m, n, p := 2+rng.Intn(14), 4*(1+rng.Intn(4)), 2+rng.Intn(8)
		k := 2 + rng.Intn(9)
		return fmt.Sprintf(`int main() {
	int m_%[1]s = %[2]d;
	int n_%[1]s = %[3]d;
	int p_%[1]s = %[4]d;
	Matrix float <3> cube_%[1]s;
	cube_%[1]s = with ([0, 0, 0] <= [i, j, k] < [m_%[1]s, n_%[1]s, p_%[1]s])
		genarray([m_%[1]s, n_%[1]s, p_%[1]s], (i * 3 + j * %[5]d + k) %% 9 * 1.0);
	Matrix float <2> mean_%[1]s;
	mean_%[1]s = with ([0, 0] <= [i, j] < [m_%[1]s, n_%[1]s])
		genarray([m_%[1]s, n_%[1]s],
			with ([0] <= [k] < [p_%[1]s])
				fold(+, 0.0, cube_%[1]s[i, j, k]) / p_%[1]s)
		transform
			split j by 4, jin, jout.
			vectorize jin.
			parallelize i;
	float total_%[1]s = with ([0, 0] <= [i, j] < [m_%[1]s, n_%[1]s]) fold(+, 0.0, mean_%[1]s[i, j]);
	print(total_%[1]s);
	return 0;
}
`, tag, m, n, p, k)
	}},
	// Tuples and reference counting (testdata/tuples_rc.xc).
	{"tuples_rc", func(rng *rand.Rand, tag string) string {
		a, b, c := 10+rng.Intn(900), 2+rng.Intn(20), 1+rng.Intn(50)
		return fmt.Sprintf(`(int, int, bool) dm_%[1]s(int a, int b) {
	return (a / b, a %% b, a %% b == 0);
}
int main() {
	int q_%[1]s; int r_%[1]s; bool x_%[1]s;
	(q_%[1]s, r_%[1]s, x_%[1]s) = dm_%[1]s(%[2]d, %[3]d);
	print(q_%[1]s);
	print(x_%[1]s);
	refcounted int * cell_%[1]s = rcnew(q_%[1]s * %[4]d);
	rcset(cell_%[1]s, rcget(cell_%[1]s) + r_%[1]s);
	print(rcget(cell_%[1]s));
	rcrelease(cell_%[1]s);
	return 0;
}
`, tag, a, b, c)
	}},
	// Cilk spawn/sync (testdata/cilk_fib.xc).
	{"cilk", func(rng *rand.Rand, tag string) string {
		n := 6 + rng.Intn(7)
		return fmt.Sprintf(`int f_%[1]s(int n) {
	if (n < 2) return n;
	int a = 0;
	int b = 0;
	spawn a = f_%[1]s(n - 1);
	b = f_%[1]s(n - 2);
	sync;
	return a + b;
}
int main() {
	print(f_%[1]s(%[2]d));
	return 0;
}
`, tag, n)
	}},
	// Scalar loop over a rank-1 matrix (testdata/indexing.xc).
	{"index_loop", func(rng *rand.Rand, tag string) string {
		n, k, mod := 8+rng.Intn(120), 2+rng.Intn(9), 3+rng.Intn(30)
		return fmt.Sprintf(`int main() {
	Matrix int <1> v_%[1]s = [0 :: %[2]d];
	int acc_%[1]s = 0;
	for (int i = 0; i <= %[2]d; i++) {
		acc_%[1]s = acc_%[1]s + v_%[1]s[i] * %[3]d %% %[4]d;
	}
	print(acc_%[1]s);
	print(v_%[1]s[end]);
	return 0;
}
`, tag, n, k, mod)
	}},
}

// plant returns a helper function carrying one defect, prepended to a
// clean program and called from nowhere: vet still analyses it, and
// the rest of the program stays clean.
func plant(rng *rand.Rand, tag, defect string) string {
	switch defect {
	case defectShape:
		r, c := 2+rng.Intn(8), 2+rng.Intn(8)
		return fmt.Sprintf(`float shape_%[1]s() {
	Matrix float <2> a = init(Matrix float <2>, %[2]d, %[3]d);
	Matrix float <2> b = init(Matrix float <2>, %[4]d, %[2]d);
	Matrix float <2> c = a * b;
	return c[0, 0];
}
`, tag, r, c, c+1+rng.Intn(5))
	case defectRC:
		return fmt.Sprintf(`int rc_%[1]s() {
	refcounted int * p = rcnew(%[2]d);
	int v = rcget(p);
	rcrelease(p);
	rcrelease(p);
	return v;
}
`, tag, rng.Intn(100))
	default: // defectRace
		return fmt.Sprintf(`int g_%[1]s = 0;
int bump_%[1]s(int d) { g_%[1]s = g_%[1]s + d; return g_%[1]s; }
int race_%[1]s() {
	int a = 0;
	spawn a = bump_%[1]s(%[2]d);
	int seen = g_%[1]s;
	sync;
	return a + seen;
}
`, tag, 1+rng.Intn(9))
	}
}
