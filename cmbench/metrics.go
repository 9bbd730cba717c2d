package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"

	"repro/internal/driver"
	"repro/internal/matrix"
)

// counters is a snapshot of the fleet's own counters.
type counters struct {
	gate     gateCounters
	runsShed int64
	drv      driver.MetricsSnapshot
}

func snapshotCounters(ctx context.Context, f *fleetUnderTest) (counters, error) {
	var c counters
	var err error
	if c.gate, err = f.gateCounters(ctx); err != nil {
		return c, err
	}
	if c.runsShed, err = f.shardRunsShed(ctx); err != nil {
		return c, err
	}
	c.drv = f.driverTotals()
	return c, nil
}

// liveHeap is the heap still in use after full collections, with the
// matrix buffer free lists emptied first: they are a process-wide pool
// (up to 64 MiB) that runs refill and no cache owns. The second
// collection frees what sync.Pools held over from the first.
func liveHeap() int64 {
	matrix.DrainFreeLists()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func latencies(samples []sample) []float64 {
	out := make([]float64, 0, len(samples))
	for i := range samples {
		out = append(out, samples[i].latencyMS())
	}
	return out
}

// endToEnd fills the end-to-end metrics from one untraced window.
// Throughput, CPU per request and median latency are medians over the
// window's one-second buckets; the p99 comes from every request, since
// no one second holds enough samples for it; the peak resident set is
// the highest sampled over the whole window.
func endToEnd(ms map[string]metric, w *window, setups []float64, log io.Writer) {
	lat := sortedCopy(latencies(w.samples))
	n := len(w.samples)
	ok := 0
	for i := range w.samples {
		if w.samples[i].verdict == verdictOK {
			ok++
		}
	}
	okShare := ratio(float64(ok), float64(n))
	var rps, cpu []float64
	for _, b := range w.buckets {
		rps = append(rps, okShare*float64(b.completed)/b.dur.Seconds())
		if b.completed > 0 {
			cpu = append(cpu, float64(b.cpu)/1e6/float64(b.completed))
		}
	}
	if !supported(n, 0.99) {
		fmt.Fprintf(log, "warning: %d requests leave %d beyond p99 (want >= %d); highest supported percentile is p%g\n",
			n, beyond(n, 0.99), minBeyond, 100*tailQuantile(n))
	}
	fmt.Fprintf(log, "window: %d requests in %.3fs (%d one-second buckets); p99 has %d samples beyond it; set-ups %v s\n",
		n, w.elapsed.Seconds(), len(w.buckets), beyond(n, 0.99), setups)
	ms["throughput_rps"] = metric{median(rps), "req/s"}
	ms["latency_p50_ms"] = metric{median(bucketMedians(w)), "ms"}
	ms["latency_p99_ms"] = metric{percentile(lat, 0.99), "ms"}
	ms["cpu_ms_per_req"] = metric{median(cpu), "ms"}
	ms["max_rss_mb"] = metric{float64(w.peakRSS) / 1024, "MiB"}
	ms["setup_s"] = metric{median(setups), "s"}
}

// bucketMedians is the median latency of the requests completed in
// each of w's buckets.
func bucketMedians(w *window) []float64 {
	per := make([][]float64, len(w.buckets))
	for i := range w.samples {
		s := &w.samples[i]
		k := sort.Search(len(w.buckets), func(k int) bool { return w.buckets[k].end >= s.iv.end })
		if k < len(w.buckets) {
			per[k] = append(per[k], s.latencyMS())
		}
	}
	var out []float64
	for _, xs := range per {
		if len(xs) > 0 {
			out = append(out, median(xs))
		}
	}
	return out
}

// layerInputs is everything the per-layer rows are computed from.
type layerInputs struct {
	plain, traced *window
	spans         []span
	background    int64    // forwards without a request ID in the traced window
	before, after counters // around the untraced window
	replay        *replayResult
	gcc           gccReport
	failedShare   float64
}

// attribution is one traced request split into layer self times (ms).
type attribution struct {
	client, net, fleet, server, driver, vm float64
	front                                  float64 // parse + check, on a frontend miss
	attempts                               int
	isRun                                  bool
}

// attribute splits a traced sample's client span over the layers it
// crossed. net is the two loopback hops: client minus gate span, plus
// the forward attempts minus the answering shard's span. fleet is the
// gate span minus the union of its attempts (a hedge racing its primary
// counts once). server is the answering shard's span minus the
// handler's own duration_ms; driver is duration_ms minus the stages it
// reports as run in this request (parse and check only on a frontend
// miss); vm is the run stage. ok is false when a span is missing.
func attribute(s *sample, gate []interval, attempts []interval, shardSpans []interval) (a attribution, ok bool) {
	if len(gate) != 1 || len(shardSpans) == 0 {
		return a, false
	}
	g := gate[0]
	// The answering attempt's shard span: the latest to end on the shard
	// that answered.
	w := shardSpans[0]
	for _, sp := range shardSpans[1:] {
		if sp.end > w.end {
			w = sp
		}
	}
	covered := unionWithin(attempts, g.start, g.end)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	a.client = s.latencyMS()
	a.fleet = ms(g.end - g.start - covered)
	a.net = a.client - ms(g.end-g.start) + ms(covered-(w.end-w.start))
	a.attempts = len(attempts)
	if s.req.endpoint != epRun {
		a.server = ms(w.end - w.start)
		return a, true
	}
	a.isRun = true
	a.server = ms(w.end-w.start) - s.durMS
	if !s.cached {
		a.front = ms(s.stages.ParseNS + s.stages.CheckNS)
	}
	a.vm = ms(s.stages.RunNS)
	a.driver = s.durMS - a.front - a.vm
	return a, true
}

// perLayer fills the per-layer metrics of a traced run.
func perLayer(out map[string]metric, in layerInputs, log io.Writer) {
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// Spans by request ID; a shard span counts for the shard that
	// answered.
	type reqSpans struct {
		gate, attempts []interval
		shard          map[int][]interval
	}
	byID := map[uint64]*reqSpans{}
	for _, sp := range in.spans {
		r := byID[sp.id]
		if r == nil {
			r = &reqSpans{shard: map[int][]interval{}}
			byID[sp.id] = r
		}
		switch sp.layer {
		case layerGate:
			r.gate = append(r.gate, sp.iv)
		case layerAttempt:
			r.attempts = append(r.attempts, sp.iv)
		case layerShard:
			r.shard[sp.shard] = append(r.shard[sp.shard], sp.iv)
		}
	}
	var netMS, fleetMS, serverMS, driverMS, attempts []float64
	var sum attribution // over traced /v1/run requests
	var runCount, complete int
	for i := range in.traced.samples {
		s := &in.traced.samples[i]
		r := byID[s.id]
		var shard int
		if r == nil {
			continue
		}
		if _, err := fmt.Sscanf(s.shard, "shard-%d", &shard); err != nil {
			continue
		}
		a, ok := attribute(s, r.gate, r.attempts, r.shard[shard])
		if !ok {
			continue
		}
		complete++
		netMS = append(netMS, a.net)
		fleetMS = append(fleetMS, a.fleet)
		attempts = append(attempts, float64(a.attempts))
		if a.isRun {
			serverMS = append(serverMS, a.server)
			driverMS = append(driverMS, a.driver)
			runCount++
			sum.client += a.client
			sum.net += a.net
			sum.fleet += a.fleet
			sum.server += a.server
			sum.driver += a.driver
			sum.vm += a.vm
			sum.front += a.front
		}
	}
	put("net.self_ms_p50", median(netMS), "ms")
	put("fleet.self_ms_p50", median(fleetMS), "ms")
	put("server.self_ms_p50", median(serverMS), "ms")
	put("driver.self_ms_p50", median(driverMS), "ms")
	put("fleet.attempts_per_req", mean(attempts), "count")
	put("trace.complete_share", ratio(float64(complete), float64(len(in.traced.samples))), "ratio")
	put("fleet.background_forwards", float64(in.background), "count")
	plainP50 := median(latencies(in.plain.samples))
	put("trace.overhead_share", ratio(median(latencies(in.traced.samples))-plainP50, plainP50), "ratio")
	// The self times partition each request's client span (every
	// boundary is a measured span), so their means sum to the mean
	// client latency; the line shows the split. Parse and check count
	// only on a frontend miss, so on warm workloads the first five sum
	// alone.
	n := float64(runCount)
	fmt.Fprintf(log, "trace: %d /v1/run requests with complete spans; mean client %.4f ms = net %.4f + fleet %.4f + server %.4f + driver %.4f + vm %.4f + parse/check %.4f (five layers %.1f%%, all %.1f%%)\n",
		runCount, ratio(sum.client, n), ratio(sum.net, n), ratio(sum.fleet, n), ratio(sum.server, n),
		ratio(sum.driver, n), ratio(sum.vm, n), ratio(sum.front, n),
		100*ratio(sum.net+sum.fleet+sum.server+sum.driver+sum.vm, sum.client),
		100*ratio(sum.net+sum.fleet+sum.server+sum.driver+sum.vm+sum.front, sum.client))

	// Gate counters and shard placement over the untraced window.
	b, a := in.before, in.after
	put("fleet.hedges_fired", float64(a.gate.HedgesFired-b.gate.HedgesFired), "count")
	put("fleet.hedge_won_share", ratio(float64(a.gate.HedgesWon-b.gate.HedgesWon), float64(a.gate.HedgesFired-b.gate.HedgesFired)), "ratio")
	put("fleet.retries_total", float64(a.gate.RetriesTotal-b.gate.RetriesTotal), "count")
	perShard := map[string]int{}
	busiest := 0
	for i := range in.plain.samples {
		perShard[in.plain.samples[i].shard]++
		if c := perShard[in.plain.samples[i].shard]; c > busiest {
			busiest = c
		}
	}
	put("fleet.busiest_shard_share", ratio(float64(busiest), float64(len(in.plain.samples))), "ratio")
	put("server.runs_shed", float64(a.runsShed-b.runsShed), "count")

	// Driver caches over the untraced window.
	dh := float64(a.drv.FrontendHits - b.drv.FrontendHits)
	dm := float64(a.drv.FrontendMisses - b.drv.FrontendMisses)
	vh := float64(a.drv.VMCacheHits - b.drv.VMCacheHits)
	vmiss := float64(a.drv.VMCacheMisses - b.drv.VMCacheMisses)
	put("driver.frontend_hit_ratio", ratio(dh, dh+dm), "ratio")
	put("driver.vm_hit_ratio", ratio(vh, vh+vmiss), "ratio")
	put("driver.cache_evictions", float64(a.drv.CacheEvictions-b.drv.CacheEvictions), "count")

	// Stage times the answers report, over both windows; parse, check,
	// vet and emit count only where this request ran them (a miss).
	var parse, checkT, vetT, emit, run, cKB []float64
	for _, w := range []*window{in.plain, in.traced} {
		for i := range w.samples {
			s := &w.samples[i]
			if !s.cached {
				if s.stages.ParseNS > 0 {
					parse = append(parse, float64(s.stages.ParseNS)/1e6)
					checkT = append(checkT, float64(s.stages.CheckNS)/1e6)
				}
				if s.req.endpoint == epVet {
					vetT = append(vetT, float64(s.stages.VetNS)/1e6)
				}
				if s.req.endpoint == epCompile {
					emit = append(emit, float64(s.stages.EmitNS)/1e6)
				}
			}
			if s.req.endpoint == epCompile {
				cKB = append(cKB, float64(s.outLen)/1024)
			}
			if s.req.endpoint == epRun {
				run = append(run, float64(s.stages.RunNS)/1e6)
			}
		}
	}
	put("parser.parse_ms_p50", median(parse), "ms")
	put("sem.check_ms_p50", median(checkT), "ms")
	put("vet.vet_ms_p50", median(vetT), "ms")
	put("cgen.emit_ms_p50", median(emit), "ms")
	put("cgen.c_kb_per_program", mean(cKB), "KiB")
	put("vm.run_ms_p50", median(run), "ms")
	put("cgen.gcc_checked", float64(in.gcc.checked), "count")
	put("cgen.gcc_mismatches", float64(in.gcc.mismatches), "count")

	// Replay through the layers' public functions.
	rp := in.replay
	runs := float64(rp.runs)
	put("vet.facts_ms_p50", median(rp.factsMS), "ms")
	put("vm.compile_ms_p50", median(rp.compileMS), "ms")
	put("vm.fused_loops_per_run", ratio(float64(rp.fusedLoops), runs), "count")
	put("vm.with_flat_runs_per_run", ratio(float64(rp.withFlat), runs), "count")
	put("par.pool_setup_us_p50", median(rp.poolSetupUS), "us")
	put("par.speedup_all_cores", ratio(float64(rp.oneThread), float64(rp.allThreads)), "x")
	// E4, the paper's scaling claim, per warm_matrix program: VM run
	// time at one thread over run time on every core.
	threads := runtime.GOMAXPROCS(0)
	cores := "real cores"
	if runtime.NumCPU() == 1 || threads == 1 {
		cores = "simulated: one core"
	}
	for _, p := range matrixPrograms {
		sp := rp.speedup[p.name]
		put("par.speedup_all_cores."+p.name, sp, "x")
		fmt.Fprintf(log, "E4 %s: speed-up %.3fx on %d threads, efficiency %.3f (%s)\n", p.name, sp, threads, sp/float64(threads), cores)
	}
	calls := float64(rp.kernelPar + rp.kernelSer)
	put("matrix.kernel_calls_per_run", ratio(calls, runs), "count")
	put("matrix.parallel_share", ratio(float64(rp.kernelPar), calls), "ratio")
	put("matrix.buffers_reused_per_run", ratio(float64(rp.kernelReused), runs), "count")

	// Process health over the untraced window.
	pw := in.plain
	put("process.alloc_kb_per_req", ratio(float64(pw.allocBytes)/1024, float64(len(pw.samples))), "KiB")
	put("process.gc_cpu_share", ratio(pw.gcCPU, pw.allCPU), "ratio")
	put("process.goroutines_max", float64(pw.goroutinesMax), "count")
	put("failed_share", in.failedShare, "ratio")
}
