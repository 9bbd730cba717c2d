package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/driver"
	"repro/internal/fleet"
	"repro/internal/server"
)

// shardCount is the number of cmserved shards behind the gate.
const shardCount = 2

// idHeader carries the benchmark's request ID from the client to the
// gate and, stamped by the tracing RoundTripper, on to the shard.
const idHeader = "X-Bench-Id"

type idKey struct{}

// Span layers recorded from outside the program.
const (
	layerGate    = iota // benchmark wrapper around Router.Handler()
	layerAttempt        // one forward attempt, timed by the RoundTripper
	layerShard          // benchmark wrapper around a shard's Handler()
)

type span struct {
	id    uint64
	layer int
	shard int
	iv    interval
}

// tracer keeps spans in memory while enabled. Disabled (or for a
// request without an ID) every hook is a pass-through.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
	// background counts forwards with no request ID: probes and
	// replication, which run on background contexts.
	background atomic.Int64
	healthz    [shardCount]atomic.Int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns and clears the recorded spans.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

func reqID(h http.Header) uint64 {
	id, _ := strconv.ParseUint(h.Get(idHeader), 10, 64)
	return id
}

// gate wraps the router's handler: one span per traced request, and
// the ID placed in the request context for the RoundTripper.
func (t *tracer) gate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := reqID(r.Header)
		if id == 0 || !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), idKey{}, id)))
		t.add(span{id: id, layer: layerGate, shard: -1, iv: interval{start, t.now()}})
	})
}

// shard wraps shard i's handler: one span per traced request, and a
// count of answered health probes for readiness.
func (t *tracer) shard(i int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := reqID(r.Header)
		if id == 0 || !t.on.Load() {
			next.ServeHTTP(w, r)
			if r.URL.Path == "/healthz" {
				t.healthz[i].Add(1)
			}
			return
		}
		start := t.now()
		next.ServeHTTP(w, r)
		t.add(span{id: id, layer: layerShard, shard: i, iv: interval{start, t.now()}})
	})
}

// RoundTrip times one forward attempt, from the call until its body is
// read or closed, and stamps the request ID on it. It delegates to
// http.DefaultTransport, so the gate behaves as with no transport set.
func (t *tracer) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := req.Context().Value(idKey{}).(uint64)
	if id == 0 || !t.on.Load() {
		if t.on.Load() {
			t.background.Add(1)
		}
		return http.DefaultTransport.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(idHeader, strconv.FormatUint(id, 10))
	start := t.now()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.add(span{id: id, layer: layerAttempt, shard: -1, iv: interval{start, t.now()}})
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		t.add(span{id: id, layer: layerAttempt, shard: -1, iv: interval{start, t.now()}})
	}}
	return resp, nil
}

// CloseIdleConnections lets Router.Close release pooled connections.
func (t *tracer) CloseIdleConnections() {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// spanBody ends an attempt span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// fleetUnderTest is a gate in front of shardCount shards, all in this
// process on loopback listeners.
type fleetUnderTest struct {
	tr      *tracer
	drivers []*driver.Driver
	shards  []http.Handler // each shard's handler, as served
	router  *fleet.Router
	srvs    []*http.Server
	done    sync.WaitGroup
	gateURL string
	urls    []string // shard base URLs
}

// listen serves h on a fresh loopback port.
func (f *fleetUnderTest) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	f.srvs = append(f.srvs, srv)
	f.done.Add(1)
	go func() {
		defer f.done.Done()
		srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// bootFleet starts shards and gate with their daemons' flag defaults
// (hedging and replication on, no tenant keys, memory-only caches,
// grammar warm-up on) and returns once the gate has seen every shard
// answer a health probe.
func bootFleet(ctx context.Context, tr *tracer) (*fleetUnderTest, error) {
	f := &fleetUnderTest{tr: tr}
	var shards []*server.Server
	for i := 0; i < shardCount; i++ {
		d := driver.NewWith(driver.Config{})
		s := server.New(server.Config{
			Driver:         d,
			DefaultTimeout: 10 * time.Second,
			MaxTimeout:     60 * time.Second,
			DefaultEngine:  "vm",
			ShardID:        fmt.Sprintf("shard-%d", i),
		})
		f.drivers = append(f.drivers, d)
		shards = append(shards, s)
	}
	// cmserved -warm: grammar composition and §VI analyses.
	driver.Analyses()
	for i, s := range shards {
		f.shards = append(f.shards, tr.shard(i, s.Handler()))
		u, err := f.listen(f.shards[i])
		if err != nil {
			f.close()
			return nil, err
		}
		f.urls = append(f.urls, u)
	}
	rt, err := fleet.New(fleet.Config{
		Shards:           f.urls,
		ProbeInterval:    time.Second,
		BreakerThreshold: 3,
		Retry:            fleet.RetryPolicy{Max: 2},
		HedgeAfterMin:    20 * time.Millisecond,
		HedgeAfterMax:    2 * time.Second,
		Transport:        tr,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	rt.Start()
	if f.gateURL, err = f.listen(tr.gate(rt.Handler())); err != nil {
		f.close()
		return nil, err
	}
	if err := f.waitHealthy(ctx); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// waitHealthy waits for every shard to answer a gate probe and for the
// gate's own /healthz to report ok.
func (f *fleetUnderTest) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		probed := true
		for i := range f.urls {
			if f.tr.healthz[i].Load() == 0 {
				probed = false
			}
		}
		if probed {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.gateURL+"/healthz", nil)
			if err != nil {
				return err
			}
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("fleet did not become healthy within 10s")
}

// fill sends each shard its set-up fill (see coldGen.fill) straight to
// the shard's handler, one worker per core. It bypasses the gate so
// each program lands on the shard it is meant for and the fill pays no
// loopback hops.
func (f *fleetUnderTest) fill(ctx context.Context, g *coldGen) error {
	var next atomic.Int64
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= shardCount*cacheCap || ctx.Err() != nil {
					return
				}
				shard := i % shardCount
				for _, req := range g.fill(shard, i/shardCount) {
					rec := httptest.NewRecorder()
					hr := httptest.NewRequest(http.MethodPost, req.endpoint, bytes.NewReader(req.body)).WithContext(ctx)
					f.shards[shard].ServeHTTP(rec, hr)
					if rec.Code != http.StatusOK {
						mu.Lock()
						if first == nil {
							first = fmt.Errorf("fill %s %s on shard %d: status %d %s", req.endpoint, req.label, shard, rec.Code, rec.Body.String())
						}
						mu.Unlock()
						next.Store(shardCount * cacheCap)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}

// close stops the gate and shards and waits for their goroutines.
func (f *fleetUnderTest) close() {
	for _, s := range f.srvs {
		s.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	f.done.Wait()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// shardRunsShed sums runs_shed over the shards' /metrics documents.
func (f *fleetUnderTest) shardRunsShed(ctx context.Context) (int64, error) {
	var total int64
	for _, u := range f.urls {
		var m struct {
			RunsShed int64 `json:"runs_shed"`
		}
		if err := getJSON(ctx, u+"/metrics", &m); err != nil {
			return 0, err
		}
		total += m.RunsShed
	}
	return total, nil
}

// gateCounters is the slice of gate /metrics the per-layer rows use.
type gateCounters struct {
	HedgesFired  int64 `json:"hedges_fired"`
	HedgesWon    int64 `json:"hedges_won"`
	RetriesTotal int64 `json:"retries_total"`
}

func (f *fleetUnderTest) gateCounters(ctx context.Context) (gateCounters, error) {
	var g gateCounters
	err := getJSON(ctx, f.gateURL+"/metrics", &g)
	return g, err
}

// driverTotals sums the driver counters of every shard.
func (f *fleetUnderTest) driverTotals() driver.MetricsSnapshot {
	var t driver.MetricsSnapshot
	for _, d := range f.drivers {
		s := d.MetricsSnapshot()
		t.FrontendHits += s.FrontendHits
		t.FrontendMisses += s.FrontendMisses
		t.VMCacheHits += s.VMCacheHits
		t.VMCacheMisses += s.VMCacheMisses
		t.CacheEvictions += s.CacheEvictions
		t.CacheEntries += s.CacheEntries
	}
	return t
}
