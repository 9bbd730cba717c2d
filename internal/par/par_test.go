package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestParallelForCoversRange(t *testing.T) {
	p := NewPool(4)
	defer p.Shutdown()
	const n = 1000
	var hits [n]atomic.Int32
	p.ParallelFor(0, n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d executed %d times", i, hits[i].Load())
		}
	}
}

func TestParallelForEmptyAndSingle(t *testing.T) {
	p := NewPool(3)
	defer p.Shutdown()
	ran := 0
	p.ParallelFor(5, 5, func(i int) { ran++ })
	if ran != 0 {
		t.Error("empty range should not run")
	}
	p.ParallelFor(7, 8, func(i int) {
		if i != 7 {
			t.Errorf("i = %d", i)
		}
		ran++
	})
	if ran != 1 {
		t.Error("single-element range should run once inline")
	}
}

func TestPoolReuse(t *testing.T) {
	p := NewPool(2)
	defer p.Shutdown()
	var total atomic.Int64
	for round := 0; round < 50; round++ {
		p.ParallelFor(0, 100, func(i int) { total.Add(1) })
	}
	if total.Load() != 5000 {
		t.Errorf("total = %d, want 5000", total.Load())
	}
}

func TestWorkersCount(t *testing.T) {
	p := NewPool(6)
	defer p.Shutdown()
	if p.Workers() != 6 {
		t.Errorf("Workers = %d", p.Workers())
	}
	q := NewPool(0)
	defer q.Shutdown()
	if q.Workers() < 1 {
		t.Error("default pool must have at least one worker")
	}
	// Negative counts must not construct an empty (deadlocking) pool.
	r := NewPool(-4)
	defer r.Shutdown()
	if r.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("NewPool(-4).Workers() = %d, want GOMAXPROCS", r.Workers())
	}
}

func TestNaiveSpawnCoversRange(t *testing.T) {
	const n = 500
	var hits [n]atomic.Int32
	NaiveSpawn(4, 0, n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d executed %d times", i, hits[i].Load())
		}
	}
}
