package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/driver"
)

// sample is one request as the client saw it.
type sample struct {
	req     request
	id      uint64
	iv      interval // client span on the tracer's clock
	status  int
	errText string // transport error, or why the answer was wrong
	shard   string // X-CM-Shard of the relayed answer
	verdict int    // verdictOK / verdictWrong / verdictPending

	// Parsed answer fields used by checks and per-layer rows.
	cached   bool
	stages   driver.StageTimings
	durMS    float64
	stdout   string
	exitCode int
	codes    []string // vet finding codes
	key      string   // compile key
	output   string   // emitted C (kept only for gcc-sampled requests)
	outLen   int
}

const (
	verdictPending = iota // checked after the timed window
	verdictOK
	verdictWrong
)

// answer is the union of the three endpoints' response bodies.
type answer struct {
	Key        string              `json:"key"`
	Cached     bool                `json:"cached"`
	ExitCode   int                 `json:"exit_code"`
	Stdout     string              `json:"stdout"`
	Stages     driver.StageTimings `json:"stages"`
	DurationMS float64             `json:"duration_ms"`
	Output     string              `json:"output"`
	Findings   []struct {
		Code string `json:"code"`
	} `json:"findings"`
}

// window is one timed closed-loop run.
type window struct {
	samples []sample
	elapsed time.Duration
	buckets []bucket // one per second of the window

	allocBytes    uint64
	gcCPU, allCPU float64 // runtime/metrics CPU seconds over the window
	goroutinesMax int
	peakRSS       int64 // highest sampled resident set, KiB
}

// bucket is one second of a window as the sampler saw it. Per-second
// rates and their median keep a burst of outside load in one second
// from moving a whole run's figure.
type bucket struct {
	end       int64 // close time on the tracer's clock
	dur       time.Duration
	completed int64
	cpu       time.Duration // process user+sys
}

// loopConfig sets how long and how hard a window drives the gate.
type loopConfig struct {
	clients int
	minDur  time.Duration
	minReqs int           // keep going past minDur until this many completed
	maxDur  time.Duration // hard stop even if minReqs is not reached
	traced  bool
}

// keepCSeqs bounds the requests whose emitted C is kept for the gcc
// cross-check: the compile answers among the first keepCSeqs.
const keepCSeqs = 192

// runWindow drives the gate from cfg.clients closed-loop clients.
// Requests come from gen in global sequence order starting at seq0.
func runWindow(ctx context.Context, f *fleetUnderTest, gen generator, cfg loopConfig, seq0 *atomic.Int64, ids *atomic.Uint64) (*window, error) {
	client := newClient(cfg.clients)
	defer client.CloseIdleConnections()
	f.tr.on.Store(cfg.traced)
	defer f.tr.on.Store(false)

	// Every window starts from a collected heap, so the garbage set-up
	// or an earlier window left behind does not set its GC pacing.
	runtime.GC()
	w := &window{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, all0 := cpuClasses()

	var completed atomic.Int64
	start := time.Now()
	stopSampler := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		w.sample(start, f.tr.now, &completed, stopSampler)
	}()

	perClient := make([][]sample, cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				el := time.Since(start)
				if el >= cfg.maxDur || (el >= cfg.minDur && completed.Load() >= int64(cfg.minReqs)) || ctx.Err() != nil {
					return
				}
				seq := seq0.Add(1) - 1
				req := gen.next(seq)
				s := do(ctx, client, f, req, ids.Add(1), cfg)
				perClient[c] = append(perClient[c], s)
				completed.Add(1)
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	close(stopSampler)
	samplerDone.Wait()
	runtime.ReadMemStats(&ms1)
	gc1, all1 := cpuClasses()

	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcCPU, w.allCPU = gc1-gc0, all1-all0
	for _, ps := range perClient {
		w.samples = append(w.samples, ps...)
	}
	sort.Slice(w.samples, func(i, j int) bool { return w.samples[i].req.seq < w.samples[j].req.seq })
	return w, ctx.Err()
}

// sample fills w.buckets, w.goroutinesMax and w.peakRSS every few
// milliseconds until stop is closed. A final bucket shorter than half a
// second is dropped; its samples still count for the two maxima.
func (w *window) sample(start time.Time, clock func() int64, completed *atomic.Int64, stop chan struct{}) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	bStart, bCPU, bDone := start, cpuTime(), int64(0)
	closeBucket := func(now time.Time) {
		cpu, done := cpuTime(), completed.Load()
		w.buckets = append(w.buckets, bucket{end: clock(), dur: now.Sub(bStart), completed: done - bDone, cpu: cpu - bCPU})
		bStart, bCPU, bDone = now, cpu, done
	}
	for {
		w.goroutinesMax = max(w.goroutinesMax, runtime.NumGoroutine())
		w.peakRSS = max(w.peakRSS, rssKiB())
		select {
		case <-stop:
			if now := time.Now(); now.Sub(bStart) >= time.Second/2 {
				closeBucket(now)
			}
			return
		case now := <-tick.C:
			if now.Sub(bStart) >= time.Second {
				closeBucket(now)
			}
		}
	}
}

// newClient is the benchmark's own HTTP client, kept apart from
// http.DefaultTransport, which the gate forwards through.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// do sends one request through the gate and parses the answer.
func do(ctx context.Context, client *http.Client, f *fleetUnderTest, req request, id uint64, cfg loopConfig) sample {
	s := sample{req: req, id: id}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, f.gateURL+req.endpoint, bytes.NewReader(req.body))
	if err != nil {
		s.errText = err.Error()
		s.verdict = verdictWrong
		return s
	}
	hr.Header.Set("Content-Type", "application/json")
	if cfg.traced {
		hr.Header.Set(idHeader, strconv.FormatUint(id, 10))
	}
	s.iv.start = f.tr.now()
	resp, err := client.Do(hr)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.iv.end = f.tr.now()
	if err != nil {
		s.errText = "transport: " + err.Error()
		s.verdict = verdictWrong
		return s
	}
	s.status = resp.StatusCode
	s.shard = resp.Header.Get("X-CM-Shard")
	var a answer
	if err := json.Unmarshal(raw, &a); err != nil {
		s.errText = fmt.Sprintf("status %d, undecodable body: %v", s.status, err)
		s.verdict = verdictWrong
		return s
	}
	s.cached, s.stages, s.durMS = a.Cached, a.Stages, a.DurationMS
	s.stdout, s.exitCode, s.key, s.outLen = a.Stdout, a.ExitCode, a.Key, len(a.Output)
	for _, fd := range a.Findings {
		s.codes = append(s.codes, fd.Code)
	}
	if req.endpoint == epCompile && req.seq < keepCSeqs {
		s.output = a.Output
	}
	return s
}

// latencyMS is the client-observed latency.
func (s *sample) latencyMS() float64 { return float64(s.iv.end-s.iv.start) / 1e6 }

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssKiB is the process's current resident set, or 0 where
// /proc/self/statm is unreadable.
func rssKiB() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize()) / 1024
}

// cpuClasses reads the runtime's GC and total CPU estimates (seconds).
func cpuClasses() (gc, total float64) {
	ss := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ss)
	if ss[0].Value.Kind() != metrics.KindFloat64 || ss[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return ss[0].Value.Float64(), ss[1].Value.Float64()
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
