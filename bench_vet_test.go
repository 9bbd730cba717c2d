// Vet facts benchmark: the cost of proving with-loop compilation facts
// (vet.ComputeFacts) — the pass a driver facts-cache miss pays before
// bytecode compilation.
//
// Run with: go test -bench VetFacts -benchmem
// Results are committed in BENCH_vet.json.
package repro_test

import (
	"testing"

	"repro/internal/vet"
)

// BenchmarkVetFacts times the facts pass alone on withBenchSrc, whose
// four with-loops (generator, transpose, stencil, fold) are all
// provable.
func BenchmarkVetFacts(b *testing.B) {
	bp := compileBench(b, withBenchSrc)
	b.ReportAllocs()
	var withs int
	for i := 0; i < b.N; i++ {
		f := vet.ComputeFacts(bp.prog, bp.info)
		withs = f.WithCount()
	}
	if withs != 4 {
		b.Fatalf("WithCount = %d, want 4", withs)
	}
}
