package experiments

import (
	"strings"
	"testing"

	"mob4x4/internal/metrics"
)

// TestRegistry checks the table every consumer iterates: names and
// aliases are unique, every entry is documented and runnable, and the
// paper's name for the grid resolves to it.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.Name == "" {
			t.Errorf("entry with no name: %+v", e)
		}
		for _, name := range []string{e.Name, e.Alias} {
			if name != "" && seen[name] {
				t.Errorf("%q registered twice", name)
			}
			seen[name] = true
		}
		if strings.TrimSpace(e.Doc) == "" || strings.Contains(e.Doc, "\n") {
			t.Errorf("%s: doc %q must be one non-empty line", e.Name, e.Doc)
		}
		if e.Run == nil {
			t.Errorf("%s: no Run", e.Name)
		}
	}
	if seen["all"] {
		t.Error(`"all" is the CLI's run of every InAll entry, not an entry`)
	}
	if e, ok := Lookup("fig10"); !ok || e.Name != "grid" {
		t.Errorf(`Lookup("fig10") = %q, %v; want the grid entry`, e.Name, ok)
	}
	if _, ok := Lookup("nosuch"); ok {
		t.Error(`Lookup("nosuch") found an entry`)
	}
}

// TestFinishTrials pins the shared closing block of the fan-out
// experiments: per-trial metrics in the requested form, then an error
// naming the reproduce command of the first trial that failed.
func TestFinishTrials(t *testing.T) {
	var snap metrics.Snapshot
	trials := []trialOut{
		{header: "fleet seed=4", seed: 4, snap: &snap},
		{header: "fleet seed=5", seed: 5, snap: &snap, failed: true},
		{header: "fleet seed=6", seed: 6, snap: &snap, failed: true},
	}
	cfg := Config{Nodes: 60, Cells: 6, Model: "markov"}
	for _, mode := range []MetricsMode{MetricsOff, MetricsText, MetricsJSON} {
		cfg.Metrics = mode
		var b strings.Builder
		err := finishTrials(&b, cfg, "fleet", true, trials)
		want := "fleet invariant violations (reproduce: mob4x4 -seed 5 -nodes 60 -cells 6 -model markov fleet)"
		if err == nil || err.Error() != want {
			t.Errorf("mode %d: err = %v, want %q", mode, err, want)
		}
		if got, want := strings.Count(b.String(), "== fleet seed="), map[MetricsMode]int{MetricsOff: 0, MetricsText: 3, MetricsJSON: 3}[mode]; got != want {
			t.Errorf("mode %d: %d trial headers, want %d:\n%s", mode, got, want, b.String())
		}
	}
	if err := finishTrials(&strings.Builder{}, Config{}, "chaos", false, trials[:1]); err != nil {
		t.Errorf("no failed trial, got %v", err)
	}
	err := finishTrials(&strings.Builder{}, Config{}, "chaos", false, trials[1:2])
	if want := "chaos invariant violations (reproduce: mob4x4 -seed 5 chaos)"; err == nil || err.Error() != want {
		t.Errorf("chaos: err = %v, want %q", err, want)
	}
}

// TestTrialEntriesParallelIdentical runs every trial entry through its
// registry Run at CI size, metrics on, serially and on three workers:
// the bytes the CLI prints must not depend on the worker count.
func TestTrialEntriesParallelIdentical(t *testing.T) {
	for _, e := range Experiments() {
		if !e.Trials || !e.OwnMetrics {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			cfg := Config{Seed: 31, Trials: 2, Nodes: 24, Cells: 4, Model: "waypoint", Shards: 1, Metrics: MetricsJSON}
			out := func(workers int) string {
				cfg.Parallel = workers
				var b strings.Builder
				if err := e.Run(&b, cfg); err != nil {
					t.Fatalf("parallel=%d: %v", workers, err)
				}
				return b.String()
			}
			serial := out(1)
			if got := strings.Count(serial, "== "+e.Name+" seed="); got < cfg.Trials {
				t.Errorf("%d trial metric dumps, want at least %d", got, cfg.Trials)
			}
			if out(3) != serial {
				t.Error("output differs between 1 and 3 workers")
			}
		})
	}
}
