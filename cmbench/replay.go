package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/vet"
	"repro/internal/vm"
)

// The replay calls the layers' public functions directly on the
// workload's programs, after the fleet is down, so the process-wide
// counters it reads move for these calls alone.

type replayResult struct {
	factsMS, compileMS []float64 // per program, per repetition
	poolSetupUS        []float64

	runs                  int
	fusedLoops, withFlat  int64
	kernelPar, kernelSer  int64
	kernelReused          int64
	oneThread, allThreads time.Duration // summed VM run times
	speedup               map[string]float64
}

const (
	replayReps    = 5   // timed facts and compile repetitions per program
	speedupReps   = 9   // timed runs per program and thread count
	poolSetupReps = 200 // interp.New + Close pairs
)

// replay runs the replay over progs (the workload's programs) and
// the per-program speed-up over matrixPrograms.
func replay(progs []program) (*replayResult, error) {
	r := &replayResult{speedup: map[string]float64{}}
	threads := runtime.GOMAXPROCS(0)
	for _, p := range progs {
		c, err := check(p.name+".xc", p.source)
		if err != nil {
			return nil, err
		}
		var facts *vet.Facts
		var vmp *vm.Program
		for k := 0; k < replayReps; k++ {
			t0 := time.Now()
			facts = vet.ComputeFacts(c.prog, c.info)
			t1 := time.Now()
			vmp, err = vm.CompileWithFacts(c.prog, c.info, facts)
			t2 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("vm compile %s: %w", p.name, err)
			}
			r.factsMS = append(r.factsMS, float64(t1.Sub(t0))/1e6)
			r.compileMS = append(r.compileMS, float64(t2.Sub(t1))/1e6)
		}
		// Counters over one run at the server's default pool size.
		fl0, wf0 := vm.FusedLoopsRun(), vm.WithFlatLoopsRun()
		kp0, ks0, kr0 := matrix.KernelStats()
		if _, err := vmRun(c, vmp, threads); err != nil {
			return nil, fmt.Errorf("replay run %s: %w", p.name, err)
		}
		kp1, ks1, kr1 := matrix.KernelStats()
		r.runs++
		r.fusedLoops += vm.FusedLoopsRun() - fl0
		r.withFlat += vm.WithFlatLoopsRun() - wf0
		r.kernelPar += kp1 - kp0
		r.kernelSer += ks1 - ks0
		r.kernelReused += kr1 - kr0

		one, all, err := speedup(c, vmp, threads)
		if err != nil {
			return nil, err
		}
		r.oneThread += one
		r.allThreads += all
	}
	for _, p := range matrixPrograms {
		c, err := check(p.name+".xc", p.source)
		if err != nil {
			return nil, err
		}
		vmp, err := vm.CompileWithFacts(c.prog, c.info, vet.ComputeFacts(c.prog, c.info))
		if err != nil {
			return nil, fmt.Errorf("vm compile %s: %w", p.name, err)
		}
		one, all, err := speedup(c, vmp, threads)
		if err != nil {
			return nil, err
		}
		r.speedup[p.name] = ratio(float64(one), float64(all))
	}
	// Pool setup: what every /v1/run pays before its first instruction.
	c, err := check("pool.xc", scalarPrograms[0].source)
	if err != nil {
		return nil, err
	}
	for k := 0; k < poolSetupReps; k++ {
		t0 := time.Now()
		it := interp.New(c.prog, c.info, interp.Options{Threads: threads, Stdout: io.Discard})
		it.Close()
		r.poolSetupUS = append(r.poolSetupUS, float64(time.Since(t0))/1e3)
	}
	return r, nil
}

// vmRun executes vmp once on a fresh interpreter, as the driver does.
func vmRun(c checked, vmp *vm.Program, threads int) (time.Duration, error) {
	it := interp.New(c.prog, c.info, interp.Options{
		Threads: threads, Stdout: io.Discard, Files: map[string]*matrix.Matrix{},
	})
	defer it.Close()
	t0 := time.Now()
	_, err := vm.NewMachine(vmp, it).Run()
	return time.Since(t0), err
}

// speedup returns the median VM run time at one thread and at
// threads; their ratio is the speed-up (efficiency is speed-up ÷
// threads).
func speedup(c checked, vmp *vm.Program, threads int) (one, all time.Duration, err error) {
	med := func(n int) (time.Duration, error) {
		var xs []float64
		for k := 0; k < speedupReps; k++ {
			d, err := vmRun(c, vmp, n)
			if err != nil {
				return 0, err
			}
			xs = append(xs, float64(d))
		}
		return time.Duration(median(xs)), nil
	}
	if one, err = med(1); err != nil {
		return 0, 0, err
	}
	all, err = med(threads)
	return one, all, err
}
