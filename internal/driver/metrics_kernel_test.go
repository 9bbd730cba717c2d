package driver

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/parser"
)

// TestSnapshotKernelCounters: the matrix kernel counters ride along on
// every metrics snapshot under the /metrics JSON keys the dashboards
// scrape, and a VM run of a transposing program moves the transpose
// counter end to end.
func TestSnapshotKernelCounters(t *testing.T) {
	matrix.ResetKernelStats()
	a := matrix.New(matrix.Float, 512)
	if _, err := matrix.ElementwiseExec(matrix.OpAdd, a, a, matrix.Exec{}); err != nil {
		t.Fatal(err)
	}
	var m Metrics
	s := m.Snapshot()
	if s.KernelSerial == 0 {
		t.Error("kernel_serial_total not populated from matrix.KernelStats")
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly these kernel_* keys: every kernel counter is live, and no
	// counter of a removed kernel lingers at a constant 0.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var kernelKeys []string
	for k := range keys {
		if strings.HasPrefix(k, "kernel_") {
			kernelKeys = append(kernelKeys, k)
		}
	}
	sort.Strings(kernelKeys)
	want := []string{"kernel_buffers_reused", "kernel_parallel_total", "kernel_serial_total", "kernel_transpose_total"}
	if strings.Join(kernelKeys, ",") != strings.Join(want, ",") {
		t.Errorf("metrics JSON kernel keys = %v, want %v", kernelKeys, want)
	}

	src, err := os.ReadFile("../../testdata/transpose_roundtrip.xc")
	if err != nil {
		t.Fatal(err)
	}
	d := New()
	before := d.MetricsSnapshot().KernelTranspose
	if _, err := d.Run(context.Background(), RunRequest{Name: "transpose_roundtrip.xc", Source: string(src),
		Exts: parser.AllExtensions(), Threads: 1, Stdout: io.Discard, Files: map[string]*matrix.Matrix{}}); err != nil {
		t.Fatal(err)
	}
	if got := d.MetricsSnapshot().KernelTranspose - before; got < 2 {
		t.Errorf("kernel_transpose_total advanced by %d over a VM run of two transposes, want >= 2", got)
	}
}
