package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/server"
	"repro/internal/source"
)

// Correctness oracles. /v1/run answers are compared with the tree
// walker, an engine independent of the VM under test, run here outside
// the timed window. /v1/vet verdicts are compared with the generator's
// planted defect. /v1/compile answers must carry non-empty C under the
// key the server derives for the sent body.

// checked is a parsed and checked program, for the reference engine
// and the per-layer replay.
type checked struct {
	prog *ast.Program
	info *sem.Info
}

var allExts = func() parser.Options {
	o, err := driver.ParseExtensions("all")
	if err != nil {
		panic(err) // "all" is the driver's own spelling
	}
	return o
}()

func check(name, src string) (checked, error) {
	var diags source.Diagnostics
	prog := parser.ParseFile(name, src, allExts, &diags)
	if prog == nil || diags.HasErrors() {
		return checked{}, fmt.Errorf("%s: parse: %s", name, diags.String())
	}
	info := sem.Check(prog, &diags)
	if diags.HasErrors() {
		return checked{}, fmt.Errorf("%s: check: %s", name, diags.String())
	}
	return checked{prog, info}, nil
}

type treeResult struct {
	stdout string
	code   int
	err    error
}

// treeRun runs src on the tree walker with the server's default pool
// size, so the reference sees the same worker count as the served run.
func treeRun(name, src string) treeResult {
	c, err := check(name, src)
	if err != nil {
		return treeResult{err: err}
	}
	var out bytes.Buffer
	it := interp.New(c.prog, c.info, interp.Options{
		Threads: runtime.GOMAXPROCS(0), Stdout: &out, Files: map[string]*matrix.Matrix{},
	})
	defer it.Close()
	code, err := it.Run()
	return treeResult{stdout: out.String(), code: code, err: err}
}

// checkRun judges a /v1/run answer against the tree walker's.
func checkRun(s *sample, want treeResult) {
	if s.verdict == verdictWrong {
		return
	}
	switch {
	case s.status != http.StatusOK:
		s.errText = fmt.Sprintf("status %d", s.status)
	case want.err != nil:
		s.errText = fmt.Sprintf("tree walker failed: %v", want.err)
	case s.stdout != want.stdout || s.exitCode != want.code:
		s.errText = fmt.Sprintf("got exit %d stdout %q, tree walker exit %d stdout %q",
			s.exitCode, s.stdout, want.code, want.stdout)
	default:
		s.verdict = verdictOK
		return
	}
	s.verdict = verdictWrong
}

// checkDeferred judges every answer after the timed window, so the
// reference runs neither compete with the fleet for CPU nor raise the
// process's resident set while it is measured. Each distinct program
// runs on the tree walker once.
func checkDeferred(samples []sample) {
	refs := map[string]treeResult{}
	for i := range samples {
		s := &samples[i]
		if s.verdict != verdictPending {
			continue
		}
		switch s.req.endpoint {
		case epRun:
			want, ok := refs[s.req.source]
			if !ok {
				want = treeRun("ref.xc", s.req.source)
				refs[s.req.source] = want
			}
			checkRun(s, want)
		case epVet:
			checkVet(s)
		case epCompile:
			checkCompile(s)
		}
	}
}

func checkVet(s *sample) {
	wantStatus := http.StatusOK
	for _, c := range s.req.wantCodes {
		if c != defectRace { // shape and rc findings are errors
			wantStatus = http.StatusUnprocessableEntity
		}
	}
	got := uniqueSorted(s.codes)
	want := uniqueSorted(s.req.wantCodes)
	if s.status != wantStatus || strings.Join(got, ",") != strings.Join(want, ",") {
		s.errText = fmt.Sprintf("vet verdict status %d codes %v, want status %d codes %v", s.status, got, wantStatus, want)
		s.verdict = verdictWrong
		return
	}
	s.verdict = verdictOK
}

func uniqueSorted(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}

func checkCompile(s *sample) {
	key, ok := server.CompileKeyForBody(s.req.body)
	switch {
	case s.status != http.StatusOK:
		s.errText = fmt.Sprintf("compile status %d", s.status)
	case s.outLen == 0:
		s.errText = "compile returned empty C"
	case !ok || s.key != key:
		s.errText = fmt.Sprintf("compile key %q, want %q", s.key, key)
	default:
		s.verdict = verdictOK
		return
	}
	s.verdict = verdictWrong
}

// gccReport is the outcome of compiling emitted C with gcc and
// comparing the program's output with the tree walker.
type gccReport struct {
	available  bool
	checked    int
	mismatches int
}

// gccSample is how many emitted programs one run compiles and runs.
const gccSample = 4

// gccCheck compiles a seeded sample of the emitted C in a scratch
// directory under dir (run.sh points TMPDIR into .bench_build/), runs
// each binary and compares its stdout with the tree walker. A sampled
// answer whose C fails to build, fails to run or prints something else
// is judged wrong, so it counts as a failed request. The generated C
// uses 32-bit floats, so numbers compare within a relative 1e-3, as
// the repository's own compiled-versus-interpreted tests do.
func gccCheck(ctx context.Context, samples []sample, seed int64, dir string) (gccReport, error) {
	var rep gccReport
	if _, err := exec.LookPath("gcc"); err != nil {
		return rep, nil
	}
	rep.available = true
	var pool []*sample
	for i := range samples {
		if samples[i].output != "" && samples[i].verdict == verdictOK {
			pool = append(pool, &samples[i])
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > gccSample {
		pool = pool[:gccSample]
	}
	if len(pool) == 0 {
		return rep, nil
	}
	tmp, err := os.MkdirTemp(dir, "gcc-")
	if err != nil {
		return rep, fmt.Errorf("gcc scratch dir: %w", err)
	}
	defer os.RemoveAll(tmp)
	for k, s := range pool {
		want := treeRun("gen.xc", s.req.source)
		if want.err != nil {
			return rep, fmt.Errorf("reference for gcc sample: %w", want.err)
		}
		cfile := filepath.Join(tmp, fmt.Sprintf("p%d.c", k))
		bin := filepath.Join(tmp, fmt.Sprintf("p%d", k))
		if err := os.WriteFile(cfile, []byte(s.output), 0o644); err != nil {
			return rep, fmt.Errorf("write C: %w", err)
		}
		cctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		out, err := exec.CommandContext(cctx, "gcc", "-O1", "-w", "-o", bin, cfile, "-lpthread", "-lm").CombinedOutput()
		cancel()
		rep.checked++
		if err != nil {
			gccWrong(s, &rep, fmt.Sprintf("gcc failed on the emitted C: %v: %s", err, out))
			continue
		}
		cctx, cancel = context.WithTimeout(ctx, 30*time.Second)
		got, err := exec.CommandContext(cctx, bin).Output()
		cancel()
		if err != nil {
			gccWrong(s, &rep, fmt.Sprintf("compiled C failed: %v", err))
			continue
		}
		if !sameOutput(string(got), want.stdout) {
			gccWrong(s, &rep, fmt.Sprintf("compiled C printed %q, tree walker %q; program:\n%s", got, want.stdout, s.req.source))
		}
	}
	return rep, nil
}

func gccWrong(s *sample, rep *gccReport, why string) {
	rep.mismatches++
	s.verdict = verdictWrong
	s.errText = "gcc cross-check: " + why
}

// sameOutput compares two program outputs token by token; numeric
// tokens match within a relative 1e-3.
func sameOutput(a, b string) bool {
	ta, tb := strings.Fields(a), strings.Fields(b)
	if len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		if ta[i] == tb[i] {
			continue
		}
		x, errA := strconv.ParseFloat(ta[i], 64)
		y, errB := strconv.ParseFloat(tb[i], 64)
		if errA != nil || errB != nil {
			return false
		}
		if math.Abs(x-y) > 1e-3*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
			return false
		}
	}
	return true
}
