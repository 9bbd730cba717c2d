// The vet.Facts side table is a driver-cached artifact like any other:
// content-addressed by (name, source, extension set), computed once,
// and invalidated by an extension-set change — the same source under a
// different grammar is a different AST, so with-loop plans proven
// against one must never drive bytecode compiled from the other.
package driver_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/driver"
)

const withLoopSrc = `
int main() {
	int n = 8;
	Matrix float <1> r;
	r = with ([0] <= [i] < [n]) genarray([n], (float)i * 0.5 + 1.0);
	print(r[n - 1]);
	return 0;
}`

func TestFactsCacheKeysOnExtensionSet(t *testing.T) {
	d := driver.New()
	run := func(exts string) {
		t.Helper()
		o, err := driver.ParseExtensions(exts)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		res, err := d.Run(context.Background(), driver.RunRequest{
			Name: "with.xc", Source: withLoopSrc, Exts: o, Threads: 1, Stdout: &out,
		})
		if err != nil || !res.OK {
			t.Fatalf("run(-ext %s): err=%v res=%+v diags=%v", exts, err, res, res.Diagnostics)
		}
		if res.Engine != "vm" {
			t.Fatalf("run(-ext %s): engine = %q, want vm", exts, res.Engine)
		}
	}
	m := d.Metrics()

	run("matrix")
	if got := m.FactsMisses.Load(); got != 1 {
		t.Fatalf("after first run: FactsMisses = %d, want 1", got)
	}
	if got := m.VMWithSites.Load(); got != 1 {
		t.Fatalf("after first run: VMWithSites = %d, want 1 (with-loop must be proven and emitted)", got)
	}

	// Identical request: the facts table (and the compiled program that
	// consumed it) must be reused, not recomputed.
	run("matrix")
	if got := m.FactsMisses.Load(); got != 1 {
		t.Fatalf("after identical rerun: FactsMisses = %d, want 1 (must hit)", got)
	}

	// Same source, different -ext set: different content key, so the
	// facts must be recomputed against the new parse.
	run("all")
	if got := m.FactsMisses.Load(); got != 2 {
		t.Fatalf("after -ext change: FactsMisses = %d, want 2 (must not share across ext sets)", got)
	}
	if got := m.VMWithSites.Load(); got != 2 {
		t.Fatalf("after -ext change: VMWithSites = %d, want 2 (recompiled with fresh facts)", got)
	}

	// Note FactsHits stays 0 here: an identical rerun is absorbed by the
	// compiled-program cache one layer up and never re-reads the facts.
	s := d.MetricsSnapshot()
	if s.FactsMisses != 2 {
		t.Errorf("snapshot facts_cache_misses = %d, want 2", s.FactsMisses)
	}
	if s.VMWithFlatRuns == 0 {
		t.Errorf("snapshot with_loops_flat_runs = 0, want > 0 (three flat executions ran)")
	}
}
