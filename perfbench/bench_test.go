package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"mob4x4/internal/fleet"
)

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// TestEveryMetricEmitted runs each workload of BENCHMARK.json at test
// size, untraced and traced, and checks that the result names exactly
// the metrics of the matching set, each with its declared unit, and that
// every output check passed.
func TestEveryMetricEmitted(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			cfg := config{workload: w.Name, seed: 7, seconds: time.Millisecond, trace: trace, small: true}
			res, err := run(cfg, io.Discard, os.Stderr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestSparseFingerprintInvariant pins the storm fingerprint as a pure
// function of the simulated inputs: identical with one worker or two,
// and from run to run.
func TestSparseFingerprintInvariant(t *testing.T) {
	var prints []string
	for _, workers := range []int{1, 2, 2} {
		opts := shrink(storms["storm_sparse"])
		opts.Seed, opts.Workers = 11, workers
		r := fleet.New(opts).Run()
		if len(r.Violations) != 0 {
			t.Fatalf("workers=%d: violations %v", workers, r.Violations)
		}
		prints = append(prints, fingerprint(r))
	}
	if prints[0] != prints[1] || prints[1] != prints[2] {
		t.Errorf("fingerprints differ (workers 1, 2, 2): %v", prints)
	}
}

// TestLayerOf pins the package→layer table on symbol shapes the
// profiler emits: methods, generic instantiations whose type arguments
// carry paths, runtime map and allocation internals, and collector
// stacks.
func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"mob4x4/internal/netsim.(*Segment).deliver"}, "netsim"},
		{[]string{"mob4x4/internal/vtime.(*heap[go.shape.*mob4x4/internal/netsim.job]).push"}, "vtime"},
		{[]string{"slices.SortFunc[go.shape.[]mob4x4/internal/arp.Entry]"}, "other"},
		{[]string{"mob4x4/internal/core.(*Selector).Choose"}, "mob4x4_other"},
		{[]string{"internal/runtime/maps.(*Map).putSlot", "mob4x4/internal/arp.(*Cache).Learn"}, "rt_map"},
		{[]string{"runtime.mapassign_fast64"}, "rt_map"},
		{[]string{"runtime.mallocgc", "mob4x4/internal/netsim.GetBuf"}, "rt_alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "rt_gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc"}, "rt_gc"},
		{[]string{"runtime.memmove"}, "rt_other"},
		{[]string{"math/rand.(*rngSource).Seed"}, "rand"},
		{[]string{"crypto/sha256.block"}, "crypto"},
		{[]string{"internal/sync.(*Mutex).Unlock"}, "sync"},
		{nil, "other"},
	} {
		if got := layerOfStack(c.frames); got != c.want {
			t.Errorf("layerOfStack(%q) = %s, want %s", c.frames, got, c.want)
		}
	}
}
