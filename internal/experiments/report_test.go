package experiments

import (
	"strings"
	"testing"
)

// TestReportCoversEverything smoke-tests the all-experiments document:
// it must run to completion and contain a section for every entry that
// "all" runs, headed by its registry doc, with the grid's headline
// agreement intact.
func TestReportCoversEverything(t *testing.T) {
	report := func() string {
		var b strings.Builder
		if err := Report(&b, Config{Seed: 3, Parallel: 2, Trials: 1}); err != nil {
			t.Fatalf("report: %v", err)
		}
		return b.String()
	}
	out := report()
	sections := 0
	for _, e := range Experiments() {
		if !e.InAll {
			continue
		}
		sections++
		if want := "## " + e.Name + " — " + e.Doc + "\n"; !strings.Contains(out, want) {
			t.Errorf("report missing heading %q", want)
		}
	}
	if got := strings.Count(out, "\n## "); got != sections {
		t.Errorf("report has %d sections, want %d (one per entry of all)", got, sections)
	}
	if !strings.Contains(out, "agreement with paper classification: 16/16") {
		t.Error("report lost the grid's 16/16 agreement line")
	}
	// Deterministic per seed: the reproduction's core guarantee.
	if report() != out {
		t.Error("report not deterministic for a fixed seed")
	}
}
