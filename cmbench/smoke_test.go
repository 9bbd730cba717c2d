package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// TestSmoke runs every workload briefly, untraced and traced, through
// a real in-process fleet: every answer must check, and every metric
// BENCHMARK.json lists for the mode must be reported. warm_scalar runs
// too, though BENCHMARK.json does not gate on it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet per workload")
	}
	dir := t.TempDir()
	spec := loadSpec(t)
	for _, wl := range spec.workloads {
		if _, ok := workloads[wl]; !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which cmbench does not define", wl)
		}
	}
	names := make([]string, 0, len(workloads))
	for wl := range workloads {
		names = append(names, wl)
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: wl, seed: 7, seconds: 0.3, trace: traced, smoke: true, dir: dir}
			res, err := run(context.Background(), cfg, time.Now(), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.endToEnd
			if traced {
				want = spec.perLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", wl, traced, m.Name, got, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json lists %d", wl, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestRetainedIgnoresRequestCount pins driver.retained_kb_per_entry to
// the fleet's own memory: on warm_scalar the cache entries are fixed
// (a few dozen), so a window ten times longer, with ten times the
// samples, must not report more heap per entry. Counting the
// benchmark's own samples would add over 100 KiB per entry to the long
// run; the slack allows for the few hundred KiB the idle fleet's
// connections and counters vary by.
func TestRetainedIgnoresRequestCount(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two fleets")
	}
	per := map[float64]float64{}
	for _, secs := range []float64{0.4, 4} {
		cfg := config{workload: "warm_scalar", seed: 3, seconds: secs, trace: true, smoke: true, dir: t.TempDir()}
		res, err := run(context.Background(), cfg, time.Now(), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("%gs run failed %d of %d requests", secs, res.Failed, res.Attempted)
		}
		per[secs] = res.Metrics["driver.retained_kb_per_entry"].Value
	}
	short, long := per[0.4], per[4]
	t.Logf("retained per entry: %.2f KiB after a 0.4s run, %.2f KiB after a 4s run", short, long)
	if short <= 0 || long <= 0 || long > 2*short+4 {
		t.Errorf("retained per entry %.2f KiB after a 4s run, %.2f KiB after a 0.4s run: it grows with the request count", long, short)
	}
}

type benchSpec struct {
	workloads          []string
	endToEnd, perLayer []specMetric
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	s := benchSpec{endToEnd: doc.EndToEnd, perLayer: doc.PerLayer}
	for _, w := range doc.Workloads {
		s.workloads = append(s.workloads, w.Name)
	}
	return s
}
