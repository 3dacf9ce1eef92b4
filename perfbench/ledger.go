package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// blockLen is the least wall time one traced block of scenario passes
// covers. Stopping a CPU profile waits for the profiler's next flush, so
// profiling must not toggle on every ~60 ms pass.
const blockLen = time.Second

// tracer runs the traced half of a --trace 1 run. Work is cut into
// blocks that alternate between profiled and unprofiled (the first of a
// storm seed's two executions, or about blockLen of scenario passes);
// the profiled blocks feed the layer ledger, and the unprofiled ones
// give the timings, so the gap between the two is the tracing overhead.
type tracer struct {
	enabled  bool
	workload string
	dir      string
	buf      bytes.Buffer
	active   bool
	blocks   int
	layerNs  map[string]int64
	labelled int64 // CPU ns in samples that carry the harness's labels
	total    int64
}

func newTracer(cfg config) *tracer {
	return &tracer{enabled: cfg.trace, workload: cfg.workload, dir: cfg.profDir, layerNs: map[string]int64{}}
}

// begin starts a block, under the CPU profiler when profiled is set.
func (t *tracer) begin(profiled bool) error {
	if !profiled {
		return nil
	}
	t.buf.Reset()
	if err := pprof.StartCPUProfile(&t.buf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	t.active = true
	return nil
}

func (t *tracer) end() error {
	if !t.active {
		return nil
	}
	pprof.StopCPUProfile()
	t.active = false
	data := t.buf.Bytes()
	if t.dir != "" {
		name := filepath.Join(t.dir, fmt.Sprintf("%s-%03d.pb.gz", t.workload, t.blocks))
		if err := os.MkdirAll(t.dir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(name, data, 0o644); err != nil {
			return err
		}
	}
	t.blocks++
	samples, err := parseProfile(data)
	if err != nil {
		return err
	}
	for _, s := range samples {
		t.layerNs[layerOfStack(s.frames)] += s.cpuNs
		t.total += s.cpuNs
		if s.labels["workload"] == t.workload {
			t.labelled += s.cpuNs
		}
	}
	return nil
}

// report adds cpu.<layer> for every layer, plus cpu.labelled: the share
// of sampled CPU that ran inside the harness's labelled calls (the rest
// is the collector and the harness itself).
func (t *tracer) report(res *result) {
	share := func(ns int64) float64 {
		if t.total == 0 {
			return 0
		}
		return float64(ns) / float64(t.total)
	}
	for _, l := range layers {
		res.set("cpu."+l, share(t.layerNs[l]), "share")
	}
	res.set("cpu.labelled", share(t.labelled), "share")
}

// labelled runs f with pprof labels set, so a kept profile can be cut by
// workload, phase and scenario.
func labelled(f func(), kv ...string) {
	pprof.Do(context.Background(), pprof.Labels(kv...), func(context.Context) { f() })
}

// seedStream derives the per-operation seeds of a run from --seed
// (splitmix64), so one seed fixes every input of the run. It avoids
// math/rand, whose cost the ledger charges to the rand layer.
type seedStream uint64

func (s *seedStream) next() int64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 33) // 31 bits: positive, and small like hand-picked seeds
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile interpolates linearly between the closest ranks of a sorted
// copy of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// totalAlloc returns the bytes allocated by the process so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// usage returns the process's CPU time so far and its peak resident
// set in bytes.
func usage() (time.Duration, float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

const mb = 1 << 20
