package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Report renders every InAll entry as one markdown document, each under
// a heading taken from its doc — the machine-generated companion to
// EXPERIMENTS.md. The entries run as under "all", with metrics off.
func Report(w io.Writer, cfg Config) error {
	cfg.Metrics = MetricsOff
	fmt.Fprintf(w, "# Internet Mobility 4x4 — measured results (seed %d)\n\n", cfg.Seed)
	for _, e := range Experiments() {
		if !e.InAll {
			continue
		}
		var body strings.Builder
		if err := e.Run(&body, cfg); err != nil {
			return err
		}
		fmt.Fprintf(w, "## %s — %s\n\n```\n%s```\n\n", e.Name, e.Doc, body.String())
	}
	return nil
}
