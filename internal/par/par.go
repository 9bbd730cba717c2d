// Package par implements the paper's enhanced fork-join execution
// model (§III-C, adopted from SAC): worker threads are spawned once at
// program start and sent "straight into a spin lock where they sit
// idle until some parallel work is to be done". When the main thread
// encounters a parallel construct it releases all workers at once;
// each worker passes through a stop barrier when done and returns to
// the spin lock, while the main thread waits in the stop barrier until
// all workers have finished.
//
// Workers are goroutines pinned conceptually to cores; the spin uses
// atomic generation counters with a Gosched backoff so a pool larger
// than GOMAXPROCS still makes progress.
//
// The pool is panic-isolated: a panic inside a worker body is
// recovered into a *PanicError, the stop barrier is still reached (the
// pool never hangs and never leaks workers), and the remaining
// iteration space of the current construct is abandoned through a
// cooperative abort flag. Long-lived services rely on this to turn a
// crashing request body into an error return instead of a process
// death.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic recovered from a pool worker (or from the
// inline fast path of the ParallelFor family), carrying the worker id,
// the original panic value and the stack at the panic site.
type PanicError struct {
	Worker int
	Value  any
	Stack  []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: panic in worker %d: %v", e.Worker, e.Value)
}

// Unwrap exposes the panic value when it was itself an error, so
// errors.As can classify what crashed (rc violations, shape errors).
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// TestHookInjectPanic, when non-nil, is invoked by every worker at the
// start of each released work item, before the body runs. Fault-
// injection tests point it at a function that panics for a chosen
// worker id to exercise the recovery and abort paths; it must be nil
// in production. It is a plain package variable (no build tag) so the
// crash-only suite can flip it around a live server.
var TestHookInjectPanic func(worker int)

// Pool is a spawn-once worker pool.
type Pool struct {
	nWorkers int
	gen      atomic.Uint64 // work generation; bumped to release workers
	done     atomic.Int64  // stop barrier: workers done with current gen
	stop     atomic.Bool

	body func(worker, n int) // current work item

	// Per-construct failure state, reset by RunErr. abort is the
	// cooperative early-abort flag the chunk loops poll; firstErr is
	// the first body error or recovered panic.
	abort    atomic.Bool
	errMu    sync.Mutex
	firstErr error
}

// NewPool spawns n workers (n < 1 means GOMAXPROCS). The workers spin
// until work arrives or the pool is shut down.
func NewPool(n int) *Pool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{nWorkers: n}
	for w := 0; w < n; w++ {
		go p.worker(w)
	}
	return p
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.nWorkers }

// worker is the spin-lock loop of §III-C.
func (p *Pool) worker(id int) {
	lastGen := uint64(0)
	for {
		// Spin lock: wait for the generation counter to advance.
		spins := 0
		for {
			if p.stop.Load() {
				return
			}
			g := p.gen.Load()
			if g != lastGen {
				lastGen = g
				break
			}
			spins++
			if spins%64 == 0 {
				// Backoff so oversubscribed pools still progress.
				runtime.Gosched()
			}
		}
		// Execute this worker's share of the released work.
		p.runBody(id)
	}
}

// runBody executes the current work item for one worker. The stop
// barrier is reached unconditionally — a deferred done.Add — so a
// panicking body can never leave the main thread (or the pool) hung.
func (p *Pool) runBody(id int) {
	defer p.done.Add(1)
	defer func() {
		if r := recover(); r != nil {
			p.fail(&PanicError{Worker: id, Value: r, Stack: debug.Stack()})
		}
	}()
	if hook := TestHookInjectPanic; hook != nil {
		hook(id)
	}
	p.body(id, p.nWorkers)
}

// fail records the construct's first error and raises the abort flag
// so other workers skip their remaining iteration space.
func (p *Pool) fail(err error) {
	p.abort.Store(true)
	p.errMu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.errMu.Unlock()
}

// Aborted reports whether the current construct has failed (or been
// cancelled); bodies partitioning their own iteration space poll it to
// abandon remaining work early.
func (p *Pool) Aborted() bool { return p.abort.Load() }

// RunErr releases the workers on body and waits in the stop barrier
// until all have completed, even if some bodies panic. It returns the
// first body error or recovered *PanicError. body(worker, nWorkers)
// must partition its own iteration space by worker id (see
// ParallelForErr for the common case) and should poll Aborted to honor
// early abort. RunErr is not reentrant: with-loop nests parallelize
// the outermost construct, inner constructs run sequentially inside a
// worker (the generated C of §III-C behaves the same way).
func (p *Pool) RunErr(body func(worker, n int) error) error {
	p.abort.Store(false)
	p.errMu.Lock()
	p.firstErr = nil
	p.errMu.Unlock()
	p.body = func(worker, n int) {
		if err := body(worker, n); err != nil {
			p.fail(err)
		}
	}
	p.done.Store(0)
	p.gen.Add(1) // release the spin lock
	// Main thread waits in the stop barrier.
	spins := 0
	for p.done.Load() < int64(p.nWorkers) {
		spins++
		if spins%64 == 0 {
			runtime.Gosched()
		}
	}
	p.errMu.Lock()
	err := p.firstErr
	p.errMu.Unlock()
	return err
}

// Shutdown terminates the workers. It is idempotent and safe to call
// at any time outside a RunErr: workers finish the current work item
// (bounded because bodies honor abort/panic recovery) and exit.
func (p *Pool) Shutdown() { p.stop.Store(true) }

// protect runs f, converting a panic into a *PanicError attributed to
// worker id. Used on the inline (single-element) fast paths so they
// fail the same way pool workers do.
func protect(id int, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Worker: id, Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}

// pollCancel reports ctx cancellation without blocking; a nil done
// channel (no context) never cancels.
func pollCancel(ctx context.Context, done <-chan struct{}) error {
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return ctx.Err()
	default:
		return nil
	}
}

// ParallelFor executes f(i) for i in [lo, hi) across the pool using a
// block distribution, matching the static scheduling of the generated
// pthread code. A panicking f re-panics in the caller as *PanicError.
func (p *Pool) ParallelFor(lo, hi int, f func(i int)) {
	if err := p.ParallelForErr(lo, hi, func(i int) error {
		f(i)
		return nil
	}); err != nil {
		panic(err)
	}
}

// ParallelForErr is ParallelFor with an error-returning body: the
// first error (or recovered worker panic) aborts the construct — every
// worker skips its remaining iterations via the abort flag — and is
// returned after the stop barrier.
func (p *Pool) ParallelForErr(lo, hi int, f func(i int) error) error {
	return p.parallelFor(nil, lo, hi, f)
}

// ParallelForCtx is ParallelForErr that additionally observes ctx
// inside the construct: workers poll the deadline between iterations,
// so a long parallel loop aborts mid-construct, not only at its next
// sequential statement. A nil ctx never cancels.
func (p *Pool) ParallelForCtx(ctx context.Context, lo, hi int, f func(i int) error) error {
	return p.parallelFor(ctx, lo, hi, f)
}

func (p *Pool) parallelFor(ctx context.Context, lo, hi int, f func(i int) error) error {
	if hi <= lo {
		return nil
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	n := hi - lo
	if n == 1 {
		if err := pollCancel(ctx, done); err != nil {
			return err
		}
		return protect(0, func() error { return f(lo) })
	}
	return p.RunErr(func(worker, workers int) error {
		chunk := (n + workers - 1) / workers
		start := lo + worker*chunk
		end := start + chunk
		if end > hi {
			end = hi
		}
		for i := start; i < end; i++ {
			if p.abort.Load() {
				return nil
			}
			if err := pollCancel(ctx, done); err != nil {
				return err
			}
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	})
}

// NaiveSpawn is the fork-join model the paper contrasts against:
// spawn fresh goroutines for each parallel region and join them.
// Kept for benchmark E8 (pool vs naive overhead).
func NaiveSpawn(workers, lo, hi int, f func(i int)) {
	if hi <= lo {
		return
	}
	n := hi - lo
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	ch := make(chan struct{}, workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		go func(w int) {
			start := lo + w*chunk
			end := start + chunk
			if end > hi {
				end = hi
			}
			for i := start; i < end; i++ {
				f(i)
			}
			ch <- struct{}{}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-ch
	}
}
