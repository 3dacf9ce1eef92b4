package experiments

import (
	"fmt"
	"io"

	"mob4x4/internal/metrics"
)

// The experiment registry: one table lists every experiment the
// reproduction runs. cmd/mob4x4's dispatch, usage text and flag help,
// the "all" and "report" runs, and the runtime determinism gate
// (scripts/determinismdiff.go) all iterate it, so an experiment added
// here is reachable, documented and gated everywhere at once.

// MetricsMode selects the machine-readable dump that follows an
// experiment's output.
type MetricsMode int

const (
	MetricsOff MetricsMode = iota
	MetricsText
	MetricsJSON
)

// Config carries the knobs an experiment run may honour; the flags of
// cmd/mob4x4 fill it one to one.
type Config struct {
	Seed     int64
	Parallel int // worker goroutines for independent trials
	Trials   int // independent trials, seeds Seed..Seed+Trials-1
	Nodes    int // fleet: mobile node count
	Cells    int // fleet: visited cell count
	Model    string
	Shards   int // fleet: worker goroutines driving one trial's region shards
	Metrics  MetricsMode
}

func (c Config) fleetSpec() FleetSpec {
	return FleetSpec{Nodes: c.Nodes, Cells: c.Cells, Model: c.Model, Shards: c.Shards}
}

// Experiment is one registry entry.
type Experiment struct {
	Name  string
	Alias string // another name that runs this entry
	Doc   string // one line; the usage text and the report headings use it

	Parallel bool // fans independent trials over Config.Parallel workers
	Trials   bool // runs Config.Trials independent trials
	Fleet    bool // sized by Config.Nodes, Cells and Model
	// Shards promises byte-identical output for any Config.Shards; the
	// determinism gate checks it. Fleet entries drive region shards, the
	// others run single-region scenarios and ignore the count.
	Shards bool
	// InAll entries make up "mob4x4 all" and the report, in table order.
	InAll bool
	// OwnMetrics entries print their own metrics form when Config.Metrics
	// is on; for the rest the caller dumps the collected registries.
	OwnMetrics bool

	// Run writes the experiment's output to w. It returns an error when
	// a checked invariant fails.
	Run func(w io.Writer, cfg Config) error
}

// Experiments returns the registry in its canonical order.
func Experiments() []Experiment {
	return []Experiment{
		{Name: "fig1", Doc: "E1, Figure 1: basic Mobile IP, asymmetric routing via the home agent", InAll: true,
			Run: text(func(s int64) string { return RunFig1(s).String() })},
		{Name: "fig2", Doc: "E2, Figure 2: source-address filtering drops Out-DH (filter on, then off)", InAll: true,
			Run: text(func(s int64) string { return RunFig2(s, true).String() + "\n" + RunFig2(s, false).String() })},
		{Name: "fig3", Doc: "E3, Figure 3: the filter-on half of fig2, where Out-IE still gets through",
			Run: text(func(s int64) string { return RunFig2(s, true).String() })},
		// Beyond d=16 the doubled triangle path exceeds the default TTL
		// (64) and In-IE stops delivering at all — a real deployment
		// consequence of triangle routing, but beyond the figure's sweep.
		{Name: "fig4", Doc: "E4, Figure 4: triangle routing vs home-agent distance sweep", InAll: true,
			Run: text(func(s int64) string { return Fig4Table(RunFig4(s, []int{0, 1, 2, 4, 8, 16})) })},
		{Name: "fig5", Doc: "E5, Figure 5: smart correspondent, ICMP + DNS care-of discovery", InAll: true,
			Run: text(func(s int64) string { return RunFig5(s).String() })},
		{Name: "formats", Doc: "E6/E7, Figures 6-9: packet formats (s/d/S/D table)", InAll: true,
			Run: text(func(int64) string { return FormatsTable(RunFormats()) })},
		{Name: "grid", Alias: "fig10", Doc: "E8, Figure 10: the 4x4 matrix, checked against the paper's classification",
			Parallel: true, InAll: true, OwnMetrics: true, Run: runGridEntry},
		{Name: "overhead", Doc: "E9, §3.3: encapsulation size overhead and MTU crossing", InAll: true,
			Run: text(func(s int64) string {
				fr := RunTunnelFragmentation(s, 1460)
				return OverheadTable(RunOverhead([]int{64, 512, 1400, 1456, 1460, 1470, 1475, 1480, 1500, 4000, 8192}, 1500)) +
					fmt.Sprintf("\nend-to-end: %dB payload crossed the backbone in %d packets plain, %d tunneled (delivered=%v)\n",
						fr.PayloadBytes, fr.PlainPackets, fr.TunnelPackets, fr.Delivered)
			})},
		{Name: "adaptive", Doc: "E10, §7.1.2: start-strategy comparison, with and without filtering",
			Parallel: true, InAll: true, Run: func(w io.Writer, cfg Config) error {
				_, err := io.WriteString(w, AdaptiveTable(adaptiveRows(cfg.Seed, true, cfg.Parallel))+"\n"+
					AdaptiveTable(adaptiveRows(cfg.Seed, false, cfg.Parallel)))
				return err
			}},
		{Name: "durability", Doc: "E11, §2: connection survival across movement, home vs temporary address",
			Parallel: true, InAll: true, Run: func(w io.Writer, cfg Config) error {
				rows := fanOut(cfg.Parallel, 2, func(i int) DurabilityResult { return RunDurability(cfg.Seed, i == 0, 3) })
				_, err := io.WriteString(w, DurabilityTable(rows))
				return err
			}},
		{Name: "webbrowse", Doc: "Row D: Out-DT port heuristic vs full Mobile IP for web browsing",
			Parallel: true, InAll: true, Run: func(w io.Writer, cfg Config) error {
				const fetches = 10
				rows := fanOut(cfg.Parallel, 2, func(i int) WebBrowseResult { return RunWebBrowse(cfg.Seed, fetches, i == 0) })
				fmt.Fprintf(w, "Row D — web browsing, %d sequential fetches of 8KiB:\n", fetches)
				for _, r := range rows {
					fmt.Fprintf(w, "  %-9s completed=%d/%d  time=%-12v backbone=%dB\n",
						r.Mode, r.Completed, r.Fetches, r.TotalTime, r.BackboneBytes)
				}
				return nil
			}},
		{Name: "fa", Doc: "§2: foreign-agent vs self-sufficient attachment", InAll: true,
			Run: text(func(s int64) string {
				return FATable([]FAResult{RunForeignAgent(s, false), RunForeignAgent(s, true)})
			})},
		{Name: "transitions", Doc: "E12, §7.2: correspondent-side mode transitions", InAll: true,
			Run: text(func(s int64) string { return RunCorrespondentTransitions(s).String() + "\n" })},
		{Name: "multicast", Doc: "§6.4: local group join vs home-agent relay", InAll: true,
			Run: text(func(s int64) string {
				return MulticastTable([]MulticastResult{RunMulticast(s, true, 10), RunMulticast(s, false, 10)})
			})},
		{Name: "trace", Doc: "tunnel opacity: traceroute to the home address, at home vs roamed", InAll: true,
			Run: text(func(s int64) string { return TraceTable(RunTraceroutes(s)) })},
		{Name: "httpgrid", Doc: "E16: unmodified net/http + DNS over the socket facade in all 16 (Out,In) pairs, with capture hashes",
			Parallel: true, Shards: true, InAll: true, Run: func(w io.Writer, cfg Config) error {
				_, err := io.WriteString(w, HTTPGridTable(httpGridCells(cfg.Seed, cfg.Parallel)))
				return err
			}},
		{Name: "dualmobile", Doc: "§1: both endpoints mobile, the session survives both roaming", InAll: true,
			Run: text(func(s int64) string { return RunDualMobile(s).String() })},
		{Name: "asymmetry", Doc: "§2: latency/bandwidth asymmetry of the two path directions", InAll: true,
			Run: text(func(s int64) string { return RunAsymmetry(s).String() })},
		{Name: "savings", Doc: "§3.2: shared-resource load per correspondent capability", InAll: true,
			Run: text(func(s int64) string { return SavingsTable(RunSavings(s)) })},
		{Name: "chaos", Doc: "E13: fault injection and self-healing soak",
			Parallel: true, Trials: true, Shards: true, InAll: true, OwnMetrics: true, Run: runChaosEntry},
		{Name: "fleet", Doc: "E14: fleet-scale handoff storm",
			Parallel: true, Trials: true, Fleet: true, Shards: true, OwnMetrics: true, Run: runFleetEntry},
		{Name: "adversary", Doc: "E15: authenticated fleet vs attack storm",
			Parallel: true, Trials: true, Fleet: true, Shards: true, OwnMetrics: true, Run: runAdversaryEntry},
		{Name: "routeopt", Doc: "E17: route optimization, pushed updates vs compact encapsulation vs hierarchical registration",
			Parallel: true, Trials: true, Fleet: true, Shards: true, OwnMetrics: true, Run: runRouteOptEntry},
		{Name: "report", Doc: "every experiment of all, rendered as one markdown document",
			Parallel: true, Trials: true, Run: Report},
	}
}

// Lookup finds the entry registered under name or as its alias.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name || (e.Alias != "" && e.Alias == name) {
			return e, true
		}
	}
	return Experiment{}, false
}

// text adapts an experiment that only renders a seed-determined string.
func text(render func(seed int64) string) func(io.Writer, Config) error {
	return func(w io.Writer, cfg Config) error {
		_, err := io.WriteString(w, render(cfg.Seed))
		return err
	}
}

func runGridEntry(w io.Writer, cfg Config) error {
	cells := gridCells(cfg.Seed, cfg.Parallel)
	m, t, mismatches := GridAgreement(cells)
	if cfg.Metrics != MetricsOff {
		// The machine-readable report: deterministic JSON, byte-identical
		// for any seed and worker count.
		io.WriteString(w, gridReport(cells).JSON())
	} else {
		io.WriteString(w, GridTable(cells))
		fmt.Fprintf(w, "agreement with paper classification: %d/%d\n", m, t)
		for _, c := range mismatches {
			fmt.Fprintf(w, "  MISMATCH %s: class=%v in=%v out=%v consistent=%v\n",
				c.Combo, c.Class, c.DeliveredIn, c.DeliveredOut, c.Consistent)
		}
	}
	if m != t {
		return fmt.Errorf("grid agrees with the paper's classification in %d/%d cells", m, t)
	}
	return nil
}

func runChaosEntry(w io.Writer, cfg Config) error {
	rows := eachTrial(cfg, RunChaos)
	io.WriteString(w, ChaosTable(rows))
	out := make([]trialOut, len(rows))
	for i := range rows {
		r := &rows[i]
		out[i] = trialOut{fmt.Sprintf("chaos seed=%d", r.Seed), r.Seed, &r.Metrics, r.Series, len(r.Violations) > 0}
	}
	return finishTrials(w, cfg, "chaos", false, out)
}

func runFleetEntry(w io.Writer, cfg Config) error {
	rows := eachTrial(cfg, func(seed int64) FleetResult { return RunFleet(seed, cfg.fleetSpec()) })
	io.WriteString(w, FleetTable(rows))
	out := make([]trialOut, len(rows))
	for i := range rows {
		r := &rows[i]
		out[i] = trialOut{fmt.Sprintf("fleet seed=%d", r.Seed), r.Seed, &r.Metrics, nil, len(r.Violations) > 0}
	}
	return finishTrials(w, cfg, "fleet", true, out)
}

func runAdversaryEntry(w io.Writer, cfg Config) error {
	rows := eachTrial(cfg, func(seed int64) AdversaryResult { return RunAdversary(seed, cfg.fleetSpec()) })
	io.WriteString(w, AdversaryTable(rows))
	out := make([]trialOut, len(rows))
	for i := range rows {
		a := &rows[i].Attack
		out[i] = trialOut{fmt.Sprintf("adversary seed=%d (attacked run)", a.Seed), a.Seed, &a.Metrics, nil, len(rows[i].Violations) > 0}
	}
	return finishTrials(w, cfg, "adversary", true, out)
}

func runRouteOptEntry(w io.Writer, cfg Config) error {
	var rows []RouteOptResult
	if cfg.Trials == 1 {
		// A single set gets the whole worker budget for its configurations.
		rows = []RouteOptResult{RunRouteOpt(cfg.Seed, cfg.Parallel, cfg.fleetSpec())}
	} else {
		rows = eachTrial(cfg, func(seed int64) RouteOptResult { return RunRouteOpt(seed, 1, cfg.fleetSpec()) })
	}
	io.WriteString(w, RouteOptTable(rows))
	var out []trialOut
	for i := range rows {
		for j := range rows[i].Trials {
			tr := &rows[i].Trials[j]
			// A set's violations are checked once, on its first trial.
			failed := j == 0 && len(rows[i].Violations) > 0
			out = append(out, trialOut{fmt.Sprintf("routeopt seed=%d config=%s", tr.Seed, tr.Name), tr.Seed, &tr.Metrics, nil, failed})
		}
	}
	return finishTrials(w, cfg, "routeopt", true, out)
}

// trialOut is one trial's share of a fan-out experiment's closing
// output: its metrics snapshot and whether it broke an invariant.
type trialOut struct {
	header string // printed as "== header =="
	seed   int64
	snap   *metrics.Snapshot
	series []metrics.Sample // written as TSV after the snapshot when non-nil
	failed bool
}

// finishTrials dumps each trial's metrics when cfg asks for them, then
// fails on the first trial that broke an invariant, naming the command
// that reproduces it.
func finishTrials(w io.Writer, cfg Config, name string, fleetFlags bool, trials []trialOut) error {
	if cfg.Metrics != MetricsOff {
		for _, t := range trials {
			fmt.Fprintf(w, "== %s ==\n", t.header)
			if cfg.Metrics == MetricsJSON {
				w.Write(t.snap.JSON())
			} else if err := t.snap.WriteText(w); err != nil {
				return fmt.Errorf("write metrics: %w", err)
			}
			if t.series != nil {
				err := metrics.WriteTSV(w, t.series, "ip/delivered", "drop/gilbert_elliott", "drop/blackhole", "drop/down")
				if err != nil {
					return fmt.Errorf("write series: %w", err)
				}
			}
		}
	}
	for _, t := range trials {
		if !t.failed {
			continue
		}
		flags := ""
		if fleetFlags {
			flags = fmt.Sprintf(" -nodes %d -cells %d -model %s", cfg.Nodes, cfg.Cells, cfg.Model)
		}
		return fmt.Errorf("%s invariant violations (reproduce: mob4x4 -seed %d%s %s)", name, t.seed, flags, name)
	}
	return nil
}
