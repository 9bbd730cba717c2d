// Command cmbench is the repository's serving benchmark. It boots, in
// one process on loopback listeners, a cmgate router in front of two
// cmserved shards, drives one workload through the gate from closed-loop
// clients, checks every answer, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures of one untraced
// window. With -trace 1 an untraced and a traced window run back to
// back; the metrics are the per-layer breakdown, taken from spans the
// benchmark records around the calls into each layer, from counters,
// and from a replay of the workload's programs through the layers'
// public functions.
//
// Run from the repository root:
//
//	bash cmbench/run.sh -workload warm_scalar -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// processStart approximates process start for set-up time.
var processStart = time.Now()

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool // no request floor, no repeated set-ups: for tests
	dir      string
}

// workloadSpec is one traffic mix.
type workloadSpec struct {
	clients int
	gen     func(seed int64) generator
}

// workloads: BENCHMARK.json says why warm_matrix and cold_compile
// were chosen. warm_scalar (2 clients, sub-millisecond programs) is
// the workload where the HTTP hops, gate, server and driver cache reads
// do nearly all the work, so its traced run is the one that shows
// whether the layer self times account for the client latency. It is
// not in BENCHMARK.json because on a shared 2-vCPU host its latency
// percentiles spread more across runs than any bound the benchmark may
// set (the p50 and p99 quartile spreads reached 0.25 and 0.32).
var workloads = map[string]workloadSpec{
	"warm_scalar":  {2, func(s int64) generator { return newFixedGen(scalarPrograms, s) }},
	"warm_matrix":  {1, func(s int64) generator { return newFixedGen(matrixPrograms, s) }},
	"cold_compile": {2, func(s int64) generator { return &coldGen{seed: s} }},
}

const (
	minTimedReqs = 1000 // so a p99 has >= 10 samples beyond it
	setupRuns    = 3    // set-ups per run; setup_s is their median
)

func main() {
	var cfg config
	var traceFlag int
	var probe bool
	flag.StringVar(&cfg.workload, "workload", "", "warm_scalar, warm_matrix or cold_compile")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	flag.BoolVar(&probe, "setup-probe", false, "boot, warm up, print the set-up time and exit")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if _, ok := workloads[cfg.workload]; !ok || flag.NArg() != 0 || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: cmbench -workload warm_scalar|warm_matrix|cold_compile [-seed N] [-seconds S] [-trace 0|1]")
		os.Exit(2)
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmbench:", err)
		os.Exit(2)
	}
	cfg.dir = wd

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if probe {
		d, err := setupOnce(ctx, cfg, processStart)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cmbench: setup probe:", err)
			os.Exit(2)
		}
		fmt.Printf("setup_s %v\n", d.Seconds())
		return
	}
	res, err := run(ctx, cfg, processStart, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmbench:", err)
		os.Exit(2)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupOnce boots the fleet, makes the warm-up pass and tears down,
// returning the time from start to a ready fleet.
func setupOnce(ctx context.Context, cfg config, start time.Time) (time.Duration, error) {
	f, d, _, err := boot(ctx, cfg, start)
	if err != nil {
		return 0, err
	}
	f.close()
	return d, nil
}

// boot starts the fleet, fills cold_compile's driver caches to their
// cap and sends the workload's warm-up pass, so caches are full and
// lazy state built before timing. It returns the set-up time and the
// live heap of the fleet before any cache entry.
func boot(ctx context.Context, cfg config, start time.Time) (*fleetUnderTest, time.Duration, int64, error) {
	f, err := bootFleet(ctx, newTracer())
	if err != nil {
		return nil, 0, 0, err
	}
	heapBase := liveHeap()
	gen := workloads[cfg.workload].gen(cfg.seed)
	if cg, ok := gen.(*coldGen); ok {
		if err := f.fill(ctx, cg); err != nil {
			f.close()
			return nil, 0, 0, err
		}
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	for k, req := range gen.warmup() {
		s := do(ctx, client, f, req, uint64(k+1), loopConfig{})
		if s.status != http.StatusOK {
			f.close()
			return nil, 0, 0, fmt.Errorf("warm-up %s %s: status %d %s", req.endpoint, req.label, s.status, s.errText)
		}
	}
	return f, time.Since(start), heapBase, nil
}

// childSetup runs one set-up in a fresh process, so one-time process
// work (grammar tables) is paid again, and returns its set-up time.
func childSetup(ctx context.Context, cfg config) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "-setup-probe", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	fields := strings.Fields(string(out))
	if len(fields) != 2 || fields[0] != "setup_s" {
		return 0, fmt.Errorf("setup probe printed %q", out)
	}
	secs, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	return time.Duration(secs * float64(time.Second)), nil
}

// run executes one benchmark run and reports its metrics; human-readable
// lines go to log.
func run(ctx context.Context, cfg config, start time.Time, log io.Writer) (*result, error) {
	spec := workloads[cfg.workload]
	f, setup0, heapBase, err := boot(ctx, cfg, start)
	if err != nil {
		return nil, err
	}
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	fmt.Fprintf(log, "set-up: %.3fs; driver caches hold %d entries\n", setup0.Seconds(), f.driverTotals().CacheEntries)
	gen := spec.gen(cfg.seed)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	minReqs := minTimedReqs
	if cfg.smoke {
		minReqs = 10
	}
	if cfg.trace {
		dur /= 2 // untraced and traced halves
	}
	lc := loopConfig{clients: spec.clients, minDur: dur, minReqs: minReqs, maxDur: 3 * dur}

	if !cfg.trace {
		var seq atomic.Int64
		var ids atomic.Uint64
		plain, err := runWindow(ctx, f, gen, lc, &seq, &ids)
		if err != nil {
			return nil, err
		}
		f.close()
		f = nil
		res, _, err := judge(ctx, cfg, log, plain.samples)
		if err != nil {
			return nil, err
		}
		setups := []float64{setup0.Seconds()}
		for k := 1; k < setupRuns && !cfg.smoke; k++ {
			d, err := childSetup(ctx, cfg)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
		endToEnd(res.Metrics, plain, setups, log)
		printMetrics(log, res.Metrics)
		return res, nil
	}

	res, err := traced(ctx, cfg, f, gen, lc, log)
	if err != nil {
		return nil, err
	}
	// The windows' samples and spans died with traced's frame, so the
	// live heap above heapBase is the fleet's own: the driver caches and
	// the little the gate and servers keep.
	res.Metrics["driver.retained_kb_per_entry"] = metric{retainedKBPerEntry(f, heapBase), "KiB"}
	printMetrics(log, res.Metrics)
	return res, nil
}

// retainedKBPerEntry is the live heap above heapBase over the number of
// driver cache entries. Call it when the benchmark holds no samples.
func retainedKBPerEntry(f *fleetUnderTest, heapBase int64) float64 {
	return ratio(float64(liveHeap()-heapBase)/1024, float64(f.driverTotals().CacheEntries))
}

// traced runs an untraced and a traced window back to back, judges
// both, replays the workload's programs through the layers' public
// functions and fills every per-layer metric but the retained heap.
func traced(ctx context.Context, cfg config, f *fleetUnderTest, gen generator, lc loopConfig, log io.Writer) (*result, error) {
	var seq atomic.Int64
	var ids atomic.Uint64
	before, err := snapshotCounters(ctx, f)
	if err != nil {
		return nil, err
	}
	plain, err := runWindow(ctx, f, gen, lc, &seq, &ids)
	if err != nil {
		return nil, err
	}
	after, err := snapshotCounters(ctx, f)
	if err != nil {
		return nil, err
	}
	lc.traced, lc.minReqs = true, lc.minReqs/2
	tw, err := runWindow(ctx, f, gen, lc, &seq, &ids)
	if err != nil {
		return nil, err
	}
	spans, background := f.tr.take(), f.tr.background.Load()
	all := append(append([]sample(nil), plain.samples...), tw.samples...)
	res, gcc, err := judge(ctx, cfg, log, all)
	if err != nil {
		return nil, err
	}
	rp, err := replay(replayPrograms(gen, all))
	if err != nil {
		return nil, err
	}
	perLayer(res.Metrics, layerInputs{
		plain: plain, traced: tw, spans: spans, background: background, before: before, after: after,
		replay: rp, gcc: gcc, failedShare: ratio(float64(res.Failed), float64(res.Attempted)),
	}, log)
	return res, nil
}

// judge checks every answer in samples (in place), including the gcc
// cross-check on emitted C, counts failures and prints the environment.
func judge(ctx context.Context, cfg config, log io.Writer, samples []sample) (*result, gccReport, error) {
	checkDeferred(samples)
	gcc, err := gccCheck(ctx, samples, cfg.seed, os.TempDir())
	if err != nil {
		return nil, gcc, err
	}
	res := &result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed = tally(samples, log)
	res.Correct = res.Failed == 0
	envLine, _ := json.Marshal(map[string]any{"env": environment(cfg, gcc.available)})
	fmt.Fprintln(log, string(envLine))
	switch {
	case !gcc.available:
		fmt.Fprintln(log, "gcc: absent, emitted C not compiled")
	case gcc.checked == 0:
		fmt.Fprintln(log, "gcc: no emitted C in this workload")
	default:
		fmt.Fprintf(log, "gcc: compiled and ran %d emitted programs, %d differ from the tree walker\n", gcc.checked, gcc.mismatches)
	}
	return res, gcc, nil
}

// tally counts attempted and failed requests, printing each failure.
// An answer never judged counts as failed.
func tally(samples []sample, log io.Writer) (attempted, failed int) {
	for i := range samples {
		s := &samples[i]
		if s.verdict != verdictOK {
			failed++
			fmt.Fprintf(log, "FAILED %s %s seq %d: %s\n", s.req.endpoint, s.req.label, s.req.seq, s.errText)
		}
	}
	return len(samples), failed
}

// replayPrograms is the workload's fixed set, or for cold_compile the
// first generated /v1/run programs (fixed by the seed).
func replayPrograms(gen generator, samples []sample) []program {
	if set := gen.fixedSet(); set != nil {
		return set
	}
	var out []program
	for _, s := range samples {
		if s.req.endpoint == epRun && len(out) < 12 {
			out = append(out, program{name: fmt.Sprintf("gen_%s_%d", s.req.label, s.req.seq), source: s.req.source})
		}
	}
	return out
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// environment is the record printed with every result.
func environment(cfg config, gcc bool) map[string]any {
	cores := runtime.NumCPU()
	figures := "real"
	if cores == 1 || runtime.GOMAXPROCS(0) == 1 {
		figures = "simulated (one core: parallel figures measure pool overhead, not speed-up)"
	}
	gccState := "absent"
	if gcc {
		gccState = "available"
	}
	return map[string]any{
		"nproc": cores, "gomaxprocs": runtime.GOMAXPROCS(0), "cpu_model": cpuModel(),
		"go_version": runtime.Version(), "commit": commit(cfg.dir), "source_sha256": sourceDigest(cfg.dir),
		"shards":   shardCount,
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace, "parallel_figures": figures, "gcc": gccState,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the code under test where no git metadata
// exists: a SHA-256 over the path and content of every Go source and
// module file, skipping hidden directories.
func sourceDigest(dir string) string {
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != dir && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// commit is the checkout's git HEAD; a directory without its own .git
// (an exported tree) is reported as such rather than resolved against
// an enclosing repository.
func commit(dir string) string {
	if _, err := os.Stat(filepath.Join(dir, ".git")); err != nil {
		return "unknown (not a git checkout)"
	}
	out, err := exec.Command("git", "-C", dir, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}
