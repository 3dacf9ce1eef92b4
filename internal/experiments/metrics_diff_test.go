package experiments

import (
	"strings"
	"testing"
)

// Differential tests: the metrics pipeline must be a pure function of
// the experiment inputs. Serial and parallel execution, and re-execution,
// must produce byte-identical reports — any divergence means a counter
// is shared across scenarios or depends on scheduling.

func TestGridReportIdenticalAcrossWorkers(t *testing.T) {
	serial := gridReport(gridCells(5, 1)).JSON()
	if !strings.Contains(serial, `"out": "Out-IE"`) {
		t.Fatalf("report JSON missing cells:\n%s", serial)
	}
	for _, workers := range []int{4, 8} {
		if got := gridReport(gridCells(5, workers)).JSON(); got != serial {
			t.Errorf("report with %d workers differs from serial run:\nserial:\n%s\nparallel:\n%s", workers, serial, got)
		}
	}
}

func TestGridReportIdenticalAcrossSeeds(t *testing.T) {
	// The grid exchange involves no randomness — topology, latencies and
	// the single echo are all deterministic — so the report is the same
	// for every seed, which is what makes it a regression artifact.
	a := gridReport(gridCells(1, 4)).JSON()
	b := gridReport(gridCells(0x5eed, 4)).JSON()
	if a != b {
		t.Errorf("grid report depends on the seed:\nseed 1:\n%s\nseed 0x5eed:\n%s", a, b)
	}
}

func TestChaosMetricsSnapshotDeterministic(t *testing.T) {
	a := RunChaos(11)
	b := RunChaos(11)
	aj, bj := string(a.Metrics.JSON()), string(b.Metrics.JSON())
	if aj != bj {
		t.Errorf("chaos metrics snapshots diverged for the same seed:\n%s\nvs:\n%s", aj, bj)
	}
	if len(a.Series) == 0 || len(a.Series) != len(b.Series) {
		t.Fatalf("sampler series lengths = %d/%d, want equal and nonzero", len(a.Series), len(b.Series))
	}
	for i := range a.Series {
		if a.Series[i].At != b.Series[i].At {
			t.Fatalf("sample %d at %v vs %v", i, a.Series[i].At, b.Series[i].At)
		}
		if string(a.Series[i].Snap.JSON()) != string(b.Series[i].Snap.JSON()) {
			t.Errorf("sample %d snapshot differs", i)
		}
	}
	// And the parallel trial runner hands back the same per-trial
	// snapshot the serial call produces.
	rows := eachTrial(Config{Seed: 11, Trials: 2, Parallel: 2}, RunChaos)
	if got := string(rows[0].Metrics.JSON()); got != aj {
		t.Errorf("parallel trial 0 metrics differ from serial RunChaos(11):\n%s\nvs:\n%s", got, aj)
	}
}
