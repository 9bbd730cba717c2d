// Package driver is the staged compile/run pipeline behind every entry
// point (cmc, cmrun, cmserved): parse with the composed extension
// grammars → check with the composed attribute-grammar semantics →
// {emit C / print AST, interpret}. It factors the glue formerly
// duplicated across cmd/ mains into one place and adds what a
// long-lived compile service needs on top of the one-shot internal/core
// facade:
//
//   - a content-addressed artifact cache — SHA-256 of (source ⊕
//     extension set ⊕ codegen flags) keys parsed+checked programs and
//     emitted artifacts, so repeated requests skip the pipeline; both
//     caches are LRU-bounded (entries and approximate bytes, see
//     Config) so the daemon's memory ceiling is a knob, not traffic;
//   - an optional crash-safe on-disk artifact tier (Config.CacheDir):
//     compile artifacts persist across restarts, written atomically
//     and digest-verified on read (see diskcache.go);
//   - singleflight request coalescing — concurrent identical requests
//     execute the pipeline exactly once and share the result;
//   - per-stage latency histograms and cache hit/miss counters
//     (see Metrics) for the service's /metrics endpoint;
//   - memoized §VI analysis results (see Analyses) so the analyses are
//     run once per process, not once per request.
//
// The composed grammar tables themselves are memoized per extension
// set inside internal/parser; the driver's frontend cache sits above
// that and memoizes whole parse+check results per source text.
package driver

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/ast"
	"repro/internal/cgen"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/vet"
	"repro/internal/vm"
)

// Config bounds a Driver's caches. Zero values select the defaults;
// the caches are always bounded (there is deliberately no "unlimited"
// setting — an unbounded cache under sustained unique traffic is an
// OOM scheduled for later).
type Config struct {
	// MaxCacheEntries caps completed entries per cache (frontend and
	// compile each); default 4096.
	MaxCacheEntries int
	// MaxCacheBytes caps the approximate bytes retained per cache;
	// default 256 MiB. Frontend entries are charged the source length
	// (a proxy for AST size); compile entries the artifact + diagnostic
	// lengths.
	MaxCacheBytes int64
	// CacheDir enables the on-disk artifact tier (see diskcache.go):
	// successful compile artifacts are persisted content-addressed and
	// survive restarts. Empty disables the tier. If the directory is
	// unusable the driver runs memory-only (recorded in
	// DiskWriteErrors).
	CacheDir string
}

// Driver is a concurrency-safe compile/run pipeline with a bounded
// content-addressed cache and an optional on-disk artifact tier. The
// zero value is not usable; call New or NewWith.
type Driver struct {
	metrics Metrics

	front *lruCache // frontend (parse+check) results by content key
	emits *lruCache // emitted artifacts by content key
	vets  *lruCache // vet findings by content key
	vms   *lruCache // compiled bytecode programs by content key
	facts *lruCache // vet.Facts side tables by content key
	disk  *diskCache
}

// New returns a driver with the default cache bounds and no disk tier.
func New() *Driver { return NewWith(Config{}) }

// NewWith returns a driver configured by cfg; see Config for defaults.
func NewWith(cfg Config) *Driver {
	if cfg.MaxCacheEntries <= 0 {
		cfg.MaxCacheEntries = 4096
	}
	if cfg.MaxCacheBytes <= 0 {
		cfg.MaxCacheBytes = 256 << 20
	}
	d := &Driver{}
	d.front = newLRUCache(cfg.MaxCacheEntries, cfg.MaxCacheBytes, &d.metrics.FrontendEvictions)
	d.emits = newLRUCache(cfg.MaxCacheEntries, cfg.MaxCacheBytes, &d.metrics.CompileEvictions)
	d.vets = newLRUCache(cfg.MaxCacheEntries, cfg.MaxCacheBytes, &d.metrics.VetEvictions)
	d.vms = newLRUCache(cfg.MaxCacheEntries, cfg.MaxCacheBytes, &d.metrics.VMEvictions)
	d.facts = newLRUCache(cfg.MaxCacheEntries, cfg.MaxCacheBytes, &d.metrics.FactsEvictions)
	if cfg.CacheDir != "" {
		disk, err := newDiskCache(cfg.CacheDir, &d.metrics)
		if err != nil {
			d.metrics.DiskWriteErrors.Add(1)
		} else {
			d.disk = disk
		}
	}
	return d
}

// Metrics exposes the driver's counters (live; use Snapshot for a
// consistent view).
func (d *Driver) Metrics() *Metrics { return &d.metrics }

// MetricsSnapshot captures the counters plus the cache gauges
// (entries, bytes) that only the driver itself can read.
func (d *Driver) MetricsSnapshot() MetricsSnapshot {
	s := d.metrics.Snapshot()
	fe, fb := d.front.stats()
	ee, eb := d.emits.stats()
	ve, vb := d.vets.stats()
	me, mb := d.vms.stats()
	ke, kb := d.facts.stats()
	s.CacheEntries = int64(fe + ee + ve + me + ke)
	s.CacheBytes = fb + eb + vb + mb + kb
	return s
}

// call is one singleflight cache slot: the first requester executes and
// closes done; later requesters block on done and share res.
type call struct {
	done chan struct{}
	res  any
}

// StageTimings records where a request's time went, in nanoseconds.
// Cached requests carry the stage times of the original execution.
type StageTimings struct {
	ParseNS int64 `json:"parse_ns"`
	CheckNS int64 `json:"check_ns"`
	VetNS   int64 `json:"vet_ns,omitempty"`
	EmitNS  int64 `json:"emit_ns,omitempty"`
	RunNS   int64 `json:"run_ns,omitempty"`
}

// frontResult is a cached parse+check outcome. prog and info are
// immutable after Check and are shared by concurrent consumers.
type frontResult struct {
	prog   *ast.Program
	info   *sem.Info
	diags  []string
	ok     bool
	stages StageTimings
}

// emitResult is a cached back-end artifact (C text or printed AST).
type emitResult struct {
	output string
	diags  []string
	ok     bool
	stages StageTimings
}

// CompileRequest describes one translation.
type CompileRequest struct {
	// Name labels diagnostics (it participates in the cache key, since
	// diagnostics embed it).
	Name   string
	Source string
	Exts   parser.Options
	// Emit selects the artifact: "c" (default) or "ast".
	Emit    string
	Codegen cgen.Options
}

// CompileResult is the outcome of a Compile.
type CompileResult struct {
	// Key is the content address of the artifact.
	Key string
	// Cached reports that the pipeline did not execute for this
	// request: the artifact was already stored, or an identical
	// in-flight request produced it.
	Cached      bool
	OK          bool
	Output      string
	Diagnostics []string
	Stages      StageTimings
	// Canceled reports the request's context was already dead on
	// arrival: no pipeline work was started and nothing was cached.
	// A disconnected client costs nothing.
	Canceled bool
}

// RunRequest describes one interpreter execution.
type RunRequest struct {
	Name   string
	Source string
	Exts   parser.Options
	// Threads is the worker-pool size; <= 0 selects
	// runtime.GOMAXPROCS(0), never a silent sequential fallback.
	Threads  int
	MaxSteps int64
	// MaxCells bounds the cells the program may allocate (0 =
	// unlimited); exceeding it fails with the "oom" trap.
	MaxCells int64
	// Dir is the base directory for readMatrix/writeMatrix; empty with
	// non-nil Files confines file I/O to the in-memory map.
	Dir    string
	Files  map[string]*matrix.Matrix
	Stdout io.Writer
	// Engine selects the execution engine: "vm" (the default, also
	// selected by "") runs the register bytecode machine; "tree" runs
	// the tree-walking interpreter. A program the bytecode compiler
	// declines falls back to the tree walker transparently — the two
	// engines are observably identical by contract.
	Engine string
	// Tenant labels the execution for per-tenant metrics attribution;
	// empty counts as anonymous. It does not participate in cache keys
	// — the artifact a program compiles to is tenant-independent.
	Tenant string
}

// RunResult is the outcome of a Run.
type RunResult struct {
	Key string
	// Cached reports the parse+check half came from the frontend cache.
	Cached      bool
	OK          bool
	Diagnostics []string
	ExitCode    int
	Stages      StageTimings
	// Engine is the engine that actually executed: "vm" or "tree"
	// (the latter also when the bytecode compiler fell back).
	Engine string
}

// hashKey content-addresses a request: a SHA-256 over length-prefixed
// fields, so no field boundary ambiguity.
func hashKey(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func frontKey(name, src string, exts parser.Options) string {
	return hashKey("front", name, src, FormatExtensions(exts))
}

func compileKey(req *CompileRequest) string {
	return hashKey("compile", req.Name, req.Source, FormatExtensions(req.Exts),
		req.Emit, string(req.Codegen.Par), fmt.Sprint(req.Codegen.Optimize))
}

// diagBytes is the retained-size contribution of a diagnostic list.
func diagBytes(diags []string) int64 {
	var n int64
	for _, d := range diags {
		n += int64(len(d))
	}
	return n
}

// frontend returns the parse+check result for (name, src, exts),
// executing at most once per content key. Entries are charged the
// source length as an approximation of the retained AST size.
func (d *Driver) frontend(name, src string, exts parser.Options) (*frontResult, bool) {
	key := frontKey(name, src, exts)
	c, owner, hit := d.front.lookup(key)
	if !owner {
		if hit {
			d.metrics.FrontendHits.Add(1)
		}
		<-c.done
		return c.res.(*frontResult), true
	}
	d.metrics.FrontendMisses.Add(1)
	d.metrics.FrontendExecutions.Add(1)
	res := &frontResult{}
	var diags source.Diagnostics

	t0 := time.Now()
	res.prog = parser.ParseFile(name, src, exts, &diags)
	parseD := time.Since(t0)
	d.metrics.ParseLatency.Observe(parseD)
	res.stages.ParseNS = int64(parseD)

	if res.prog != nil {
		t1 := time.Now()
		res.info = sem.Check(res.prog, &diags)
		checkD := time.Since(t1)
		d.metrics.CheckLatency.Observe(checkD)
		res.stages.CheckNS = int64(checkD)
	}
	for _, diag := range diags.All() {
		res.diags = append(res.diags, diag.String())
	}
	res.ok = res.prog != nil && !diags.HasErrors()

	c.res = res
	close(c.done)
	d.front.complete(key, int64(len(src))+diagBytes(res.diags), true)
	return res, false
}

// Compile translates req.Source, serving repeated identical requests
// from the artifact cache and coalescing concurrent identical requests
// into one pipeline execution. ctx (nil means background) covers the
// caller's interest in the result: a context already dead on arrival
// returns immediately with Canceled set, and a context that dies while
// the disk tier is being read degrades the read to a miss rather than
// pinning the caller behind a hung disk. The pipeline itself, once
// started, always runs to completion — concurrent identical requests
// share the slot, and one caller's disconnect must not fail the
// others.
func (d *Driver) Compile(ctx context.Context, req CompileRequest) *CompileResult {
	t0 := time.Now()
	defer func() { d.metrics.CompileLatency.Observe(time.Since(t0)) }()
	if req.Emit == "" {
		req.Emit = "c"
	}
	key := compileKey(&req)
	out := &CompileResult{Key: key}
	if ctx != nil && ctx.Err() != nil {
		out.Canceled = true
		out.Diagnostics = []string{fmt.Sprintf("%s: error: compile canceled: %v", req.Name, ctx.Err())}
		return out
	}

	c, owner, hit := d.emits.lookup(key)
	if !owner {
		if hit {
			d.metrics.CompileHits.Add(1)
		} else {
			d.metrics.CompileCoalesced.Add(1)
		}
		<-c.done
		res := c.res.(*emitResult)
		out.Cached = true
		out.OK, out.Output, out.Diagnostics, out.Stages = res.ok, res.output, res.diags, res.stages
		return out
	}
	d.metrics.CompileMisses.Add(1)

	// Second tier: a prior process may have left the artifact on disk.
	// A verified disk object skips the whole pipeline; the result is
	// promoted into the in-memory LRU like any other completed entry.
	if d.disk != nil {
		if art, ok := d.disk.get(ctx, key); ok {
			res := &emitResult{output: art.Output, diags: art.Diags, ok: true}
			c.res = res
			close(c.done)
			d.emits.complete(key, int64(len(res.output))+diagBytes(res.diags), true)
			out.Cached = true
			out.OK, out.Output, out.Diagnostics = res.ok, res.output, res.diags
			return out
		}
	}
	d.metrics.CompileExecutions.Add(1)

	res := &emitResult{}
	fr, _ := d.frontend(req.Name, req.Source, req.Exts)
	res.diags = fr.diags
	res.stages = fr.stages
	if fr.ok {
		t1 := time.Now()
		output, err := emit(fr, &req)
		emitD := time.Since(t1)
		d.metrics.EmitLatency.Observe(emitD)
		res.stages.EmitNS = int64(emitD)
		if err != nil {
			res.diags = append(res.diags,
				fmt.Sprintf("%s: error: code generation: %v", fr.prog.Span(), err))
		} else {
			res.output, res.ok = output, true
		}
	}
	c.res = res
	close(c.done)
	d.emits.complete(key, int64(len(res.output))+diagBytes(res.diags), true)
	if d.disk != nil && res.ok {
		d.disk.put(key, &diskArtifact{Output: res.output, Diags: res.diags})
	}

	out.OK, out.Output, out.Diagnostics, out.Stages = res.ok, res.output, res.diags, res.stages
	return out
}

// emit produces the requested artifact from a checked program.
func emit(fr *frontResult, req *CompileRequest) (string, error) {
	switch req.Emit {
	case "ast":
		return ast.Print(fr.prog), nil
	case "c":
		return cgen.Generate(fr.prog, fr.info, req.Codegen)
	default:
		return "", fmt.Errorf("unknown emit kind %q (have: c, ast)", req.Emit)
	}
}

// vmEntry is a cached bytecode compilation outcome. err records a
// compiler bail (a construct the bytecode engine declines), which is
// cached too so the fallback decision is made once per content key.
type vmEntry struct {
	p   *vm.Program
	err error
}

// factsFor returns the vet.Facts side table for an already-checked
// frontend result, computing it at most once per content key. The key
// includes the extension set: the same source parsed under a different
// grammar is a different AST, so its proven facts must not be shared.
func (d *Driver) factsFor(fr *frontResult, name, src string, exts parser.Options) *vet.Facts {
	key := hashKey("facts", name, src, FormatExtensions(exts))
	c, owner, _ := d.facts.lookup(key)
	if !owner {
		d.metrics.FactsHits.Add(1)
		<-c.done
		return c.res.(*vet.Facts)
	}
	d.metrics.FactsMisses.Add(1)
	f := vet.ComputeFacts(fr.prog, fr.info)
	c.res = f
	close(c.done)
	// Charged the source length, like the vm cache: the table holds
	// pointers into the cached AST, so its marginal size is small.
	d.facts.complete(key, int64(len(src)), true)
	return f
}

// vmProgram returns the compiled bytecode for an already-checked
// frontend result, executing the bytecode compiler at most once per
// content key (singleflight + LRU, like every other driver artifact).
// The compiler consumes the cached vet.Facts side table as its
// with-loop compilation oracle.
func (d *Driver) vmProgram(fr *frontResult, name, src string, exts parser.Options) (*vm.Program, error) {
	key := hashKey("vm", name, src, FormatExtensions(exts))
	c, owner, _ := d.vms.lookup(key)
	if !owner {
		d.metrics.VMCacheHits.Add(1)
		<-c.done
		e := c.res.(*vmEntry)
		return e.p, e.err
	}
	d.metrics.VMCacheMisses.Add(1)
	d.metrics.VMCompileTotal.Add(1)
	p, err := vm.CompileWithFacts(fr.prog, fr.info, d.factsFor(fr, name, src, exts))
	if err == nil {
		d.metrics.VMWithSites.Add(int64(p.WithCompiled()))
	}
	c.res = &vmEntry{p: p, err: err}
	close(c.done)
	// Charged the source length: a proxy for code size, consistent
	// with the frontend cache's accounting.
	d.vms.complete(key, int64(len(src)), true)
	return p, err
}

// Run parses and checks req.Source through the frontend cache, then
// executes it — on the register bytecode machine by default, or on the
// tree-walking interpreter when req.Engine says so or the bytecode
// compiler declines the program. The returned error is nil unless
// execution itself failed (including ctx cancellation); frontend
// failures are reported through RunResult.OK and Diagnostics.
func (d *Driver) Run(ctx context.Context, req RunRequest) (*RunResult, error) {
	out := &RunResult{Key: frontKey(req.Name, req.Source, req.Exts)}
	engine := req.Engine
	switch engine {
	case "", "vm":
		engine = "vm"
	case "tree":
	default:
		return out, fmt.Errorf("unknown engine %q (have: vm, tree)", req.Engine)
	}
	fr, cached := d.frontend(req.Name, req.Source, req.Exts)
	out.Cached = cached
	out.Diagnostics = fr.diags
	out.Stages = fr.stages
	if !fr.ok {
		return out, nil
	}
	var prog *vm.Program
	if engine == "vm" {
		p, err := d.vmProgram(fr, req.Name, req.Source, req.Exts)
		if err != nil {
			engine = "tree" // transparent fallback, same observable semantics
		} else {
			prog = p
		}
	}
	out.Engine = engine
	threads := req.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	d.metrics.RunsStarted.Add(1)
	d.metrics.countTenantRun(req.Tenant)
	i := interp.New(fr.prog, fr.info, interp.Options{
		Threads:  threads,
		Stdout:   req.Stdout,
		Dir:      req.Dir,
		MaxSteps: req.MaxSteps,
		MaxCells: req.MaxCells,
		Files:    req.Files,
		Context:  ctx,
	})
	defer i.Close()
	t0 := time.Now()
	var code int
	var err error
	if prog != nil {
		d.metrics.VMExecTotal.Add(1)
		code, err = vm.NewMachine(prog, i).Run()
		d.metrics.VMDispatchNS.Add(int64(time.Since(t0)))
	} else {
		code, err = i.Run()
	}
	runD := time.Since(t0)
	d.metrics.RunLatency.Observe(runD)
	out.Stages.RunNS = int64(runD)
	if err != nil {
		if ctx != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			d.metrics.RunsCancelled.Add(1)
		}
		var rte *interp.RuntimeError
		if errors.As(err, &rte) && rte.Trap != interp.TrapNone {
			d.metrics.RunsTrapped.Add(1)
		}
		return out, err
	}
	out.OK = true
	out.ExitCode = code
	return out, nil
}
