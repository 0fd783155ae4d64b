package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// tinyConfig is a short run of one workload over the tiny world.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 3, window: 1500 * time.Millisecond, trace: trace,
		scale: "tiny", setups: 1, warmup: 300 * time.Millisecond, workdir: t.TempDir(),
	}
}

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEveryMetricPrinted runs each workload briefly, untraced and
// traced, and checks that every metric BENCHMARK.json names is printed
// with its unit and nothing else is.
func TestEveryMetricPrinted(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, workload := range []string{"explore", "fanout", "feed"} {
		for _, trace := range []bool{false, true} {
			rep, err := run(tinyConfig(t, workload, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", workload, trace, err)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d",
					workload, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s",
						workload, trace, m.Name, got, ok, m.Unit)
				}
			}
			if rep.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d", workload, trace, rep.Attempted)
			}
			if workload != "fanout" && rep.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", workload, trace, rep.Failed, rep.Attempted)
			}
		}
	}
}

// TestWrongBodyCountsAsFailed proves the body check can fail: one
// corrupted answer must show up as a failed operation.
func TestWrongBodyCountsAsFailed(t *testing.T) {
	cfg := tinyConfig(t, "explore", false)
	cfg.faults.wrongBody = true
	rep, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed < 1 || rep.Correct {
		t.Fatalf("corrupted body not counted: %+v", rep)
	}
}

// TestDroppedAlertCountsAsFailed proves the alert-stream check can
// fail: one alert lost between the stream and the benchmark must show
// up as a failed operation.
func TestDroppedAlertCountsAsFailed(t *testing.T) {
	cfg := tinyConfig(t, "feed", false)
	cfg.window = 3 * time.Second
	cfg.faults.dropAlert = true
	rep, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed < 1 || rep.Correct {
		t.Fatalf("dropped alert not counted: %+v", rep)
	}
}

// TestSliceStatistics pins the slice-median estimators.
func TestSliceStatistics(t *testing.T) {
	var xs []sample
	for i := 0; i < 400; i++ {
		xs = append(xs, sample{at: float64(i) / 100, v: float64(i % 100)})
	}
	// Four seconds in two-second slices: each slice holds 0..99 twice.
	if got := sliceQuantile(xs, 4*time.Second, 0.5); got != 49 {
		t.Errorf("slice median = %v, want 49", got)
	}
	if got := sliceRate(xs, 4*time.Second); got != 100 {
		t.Errorf("slice rate = %v, want 100", got)
	}
}
