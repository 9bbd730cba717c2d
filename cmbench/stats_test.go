package main

import (
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/server"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

// A p99 needs ten samples beyond it: 1000 samples support it, 999 do
// not, and tailQuantile falls back to the highest supported quantile.
func TestTenBeyondRule(t *testing.T) {
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("beyond(1000, p99) = %d, want 10", b)
	}
	if !supported(1000, 0.99) || supported(999, 0.99) {
		t.Errorf("p99 support: 1000 -> %v, 999 -> %v; want true, false", supported(1000, 0.99), supported(999, 0.99))
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 0.999}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {100, 0.9}, {20, 0.5}, {19, 0}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestUnionWithinOverlappingAttempts(t *testing.T) {
	for _, c := range []struct {
		name   string
		ivs    []interval
		lo, hi int64
		want   int64
	}{
		{"hedge overlaps primary", []interval{{0, 10}, {5, 15}}, 0, 20, 15},
		{"clipped to parent", []interval{{0, 10}, {5, 15}}, 2, 12, 10},
		{"disjoint retries", []interval{{0, 3}, {5, 7}}, 0, 10, 5},
		{"nested", []interval{{0, 10}, {2, 4}}, 0, 10, 10},
		{"unsorted", []interval{{8, 9}, {0, 2}, {1, 3}}, 0, 10, 4},
		{"outside parent", []interval{{20, 30}}, 0, 10, 0},
		{"none", nil, 0, 10, 0},
	} {
		if got := unionWithin(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("%s: unionWithin = %d, want %d", c.name, got, c.want)
		}
	}
}

// The layer self times of one request partition its client span, with
// a hedge racing the primary counted once in the gate's children.
func TestAttributeHedgedRequest(t *testing.T) {
	ms := int64(time.Millisecond)
	s := &sample{
		req:    request{endpoint: epRun},
		iv:     interval{0, 30 * ms},
		durMS:  12,
		cached: true,
		stages: driver.StageTimings{ParseNS: 5 * ms, CheckNS: 1 * ms, RunNS: 10 * ms},
	}
	gate := []interval{{2 * ms, 28 * ms}}
	attempts := []interval{{3 * ms, 26 * ms}, {23 * ms, 27 * ms}} // primary, then a hedge
	shard := []interval{{4 * ms, 25 * ms}}
	a, ok := attribute(s, gate, attempts, shard)
	if !ok {
		t.Fatal("attribute refused a complete span set")
	}
	want := attribution{client: 30, net: 4 + 3, fleet: 2, server: 9, driver: 2, vm: 10, attempts: 2, isRun: true}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"net", a.net, want.net}, {"fleet", a.fleet, want.fleet}, {"server", a.server, want.server},
		{"driver", a.driver, want.driver}, {"vm", a.vm, want.vm},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s self = %g ms, want %g", c.name, c.got, c.want)
		}
	}
	if sum := a.net + a.fleet + a.server + a.driver + a.vm; math.Abs(sum-a.client) > 1e-9 {
		t.Errorf("layers sum to %g ms, client saw %g", sum, a.client)
	}

	// On a frontend miss the request ran parse and check itself; they
	// are not driver self time.
	s.cached = false
	s.durMS = 18
	a, _ = attribute(s, gate, attempts, shard)
	if math.Abs(a.driver-2) > 1e-9 || math.Abs(a.front-6) > 1e-9 {
		t.Errorf("on a miss driver self = %g ms and parse+check = %g ms, want 2 and 6", a.driver, a.front)
	}
	if _, ok := attribute(s, nil, attempts, shard); ok {
		t.Error("attribute accepted a request without a gate span")
	}
}

func TestEndToEndRatios(t *testing.T) {
	sec := int64(time.Second)
	w := &window{peakRSS: 4096, buckets: []bucket{
		{end: sec, dur: time.Second, completed: 4, cpu: 400 * time.Millisecond},
		{end: 2 * sec, dur: time.Second, completed: 8, cpu: 400 * time.Millisecond},
		{end: 5 * sec / 2, dur: time.Second / 2, completed: 2, cpu: 300 * time.Millisecond},
	}}
	// Latencies 1..4 ms, ending in buckets 1, 2, 2 and 3.
	for i, end := range []int64{sec / 2, 3 * sec / 2, 8 * sec / 5, 11 * sec / 5} {
		v := verdictOK
		if i == 3 {
			v = verdictWrong
		}
		lat := int64(i+1) * int64(time.Millisecond)
		w.samples = append(w.samples, sample{verdict: v, iv: interval{end - lat, end}})
	}
	ms := map[string]metric{}
	endToEnd(ms, w, []float64{3, 1, 2}, io.Discard)
	for name, want := range map[string]float64{
		"throughput_rps": 3,   // bucket rates 4, 8, 4 per second, three of four answers correct
		"cpu_ms_per_req": 100, // bucket CPU per request 100, 50, 150 ms
		"max_rss_mb":     4,   // the window's highest sample, in KiB
		"setup_s":        2,
		"latency_p50_ms": 2, // bucket medians 1, 2, 4 ms
		"latency_p99_ms": 4,
	} {
		if got := ms[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio over zero = %g, want 0", got)
	}
}

func TestTallyFailures(t *testing.T) {
	samples := []sample{{verdict: verdictOK}, {verdict: verdictWrong}, {verdict: verdictPending}, {verdict: verdictOK}}
	attempted, failed := tally(samples, io.Discard)
	if attempted != 4 || failed != 2 {
		t.Errorf("tally = %d attempted, %d failed; want 4, 2 (an unjudged answer is a failure)", attempted, failed)
	}
	if share := ratio(float64(failed), float64(attempted)); share != 0.5 {
		t.Errorf("failed share = %g, want 0.5", share)
	}
	// A compile answer the server got right can still fail the gcc
	// cross-check; it then counts as failed.
	var rep gccReport
	gccWrong(&samples[3], &rep, "compiled C printed 1, tree walker 2")
	if _, failed := tally(samples, io.Discard); failed != 3 || rep.mismatches != 1 {
		t.Errorf("after a gcc mismatch: %d failed, %d mismatches; want 3, 1", failed, rep.mismatches)
	}
}

func TestVerdicts(t *testing.T) {
	run := sample{req: request{endpoint: epRun}, status: 200, stdout: "3\n", exitCode: 0}
	checkRun(&run, treeResult{stdout: "3\n"})
	if run.verdict != verdictOK {
		t.Errorf("matching run judged %d: %s", run.verdict, run.errText)
	}
	bad := sample{req: request{endpoint: epRun}, status: 200, stdout: "4\n"}
	checkRun(&bad, treeResult{stdout: "3\n"})
	if bad.verdict != verdictWrong {
		t.Error("wrong stdout judged correct")
	}

	for _, c := range []struct {
		want   []string
		status int
		codes  []string
		ok     bool
	}{
		{nil, 200, nil, true},
		{nil, 200, []string{defectRace}, false},
		{[]string{defectRace}, 200, []string{defectRace, defectRace}, true},
		{[]string{defectShape}, 422, []string{defectShape}, true},
		{[]string{defectShape}, 200, []string{defectShape}, false},
		{[]string{defectRC}, 422, []string{defectShape}, false},
	} {
		s := sample{req: request{endpoint: epVet, wantCodes: c.want}, status: c.status, codes: c.codes}
		checkVet(&s)
		if (s.verdict == verdictOK) != c.ok {
			t.Errorf("vet want %v, got status %d codes %v: verdict %d, want ok=%v", c.want, c.status, c.codes, s.verdict, c.ok)
		}
	}

	body := []byte(`{"name":"a.xc","source":"int main() { return 0; }","emit":"c","optimize":true}`)
	key, _ := server.CompileKeyForBody(body)
	good := sample{req: request{endpoint: epCompile, body: body}, status: 200, key: key, outLen: 10}
	checkCompile(&good)
	if good.verdict != verdictOK {
		t.Errorf("good compile judged wrong: %s", good.errText)
	}
	wrongKey := sample{req: request{endpoint: epCompile, body: body}, status: 200, key: "x", outLen: 10}
	checkCompile(&wrongKey)
	if wrongKey.verdict != verdictWrong {
		t.Error("compile with a foreign key judged correct")
	}
}

func TestSameOutput(t *testing.T) {
	for _, c := range []struct {
		a, b string
		want bool
	}{
		{"1\n2\n", "1\n2\n", true},
		{"432.00000000000006\n", "432\n", true},
		{"381.6\n", "432\n", false},
		{"2.8 x\n", "2.8 y\n", false},
		{"1\n", "1\n2\n", false},
	} {
		if got := sameOutput(c.a, c.b); got != c.want {
			t.Errorf("sameOutput(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
