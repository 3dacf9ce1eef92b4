// Command mob4x4 runs the reproduction experiments for "Internet Mobility
// 4x4" (Cheshire & Baker, SIGCOMM '96) and prints the tables and paths
// that regenerate each figure.
//
// Usage:
//
//	mob4x4 [flags] <experiment> [flags]
//
// `mob4x4 -h` lists the flags and every experiment in the registry
// (internal/experiments/registry.go); `all` runs the paper's experiments
// in order and `report` renders them as one markdown document.
//
// -parallel runs independent trials concurrently; -shards parallelizes
// the region shards inside each fleet trial (both byte-identical for any
// value, and freely combined). -pcap writes the packet captures of
// capture-aware experiments (httpgrid) into the given directory as
// classic .pcap files. -cpuprofile/-memprofile write pprof profiles for
// the run.
// With -metrics (text) or -metrics-json, the run's metrics registries
// are dumped after the experiment output; grid/fig10 instead emit the
// machine-readable 4x4 grid report (deterministic JSON, byte-identical
// for any seed and worker count), and the trial experiments emit each
// trial's final snapshot (chaos adds its 2s-period drop-counter series).
//
// Exit status: 0 on success, 1 when an experiment's invariant check
// fails (grid: agreement with the paper below 16/16), 2 on bad usage.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mob4x4/internal/experiments"
	"mob4x4/internal/fleet"
	"mob4x4/internal/metrics"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs one experiment (or all)
// and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	registry := experiments.Experiments()
	names := func(honours func(experiments.Experiment) bool) string {
		var out []string
		for _, e := range registry {
			if honours(e) {
				out = append(out, e.Name)
			}
		}
		return strings.Join(out, "/")
	}
	fleetNames := names(func(e experiments.Experiment) bool { return e.Fleet })

	var cfg experiments.Config
	fs := flag.NewFlagSet("mob4x4", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&cfg.Seed, "seed", 1, "simulation seed")
	fs.IntVar(&cfg.Parallel, "parallel", 1, "worker goroutines for independent trials ("+
		names(func(e experiments.Experiment) bool { return e.Parallel })+")")
	fs.IntVar(&cfg.Trials, "trials", 1, "independent trials, seeds seed..seed+N-1 ("+
		names(func(e experiments.Experiment) bool { return e.Trials })+")")
	fs.IntVar(&cfg.Nodes, "nodes", 2000, fleetNames+": mobile node count")
	fs.IntVar(&cfg.Cells, "cells", 32, fleetNames+": visited cell count")
	fs.StringVar(&cfg.Model, "model", fleet.ModelWaypoint, fleetNames+": movement model (waypoint | markov)")
	fs.IntVar(&cfg.Shards, "shards", 1, fleetNames+": worker goroutines driving the region shards inside one trial (output is byte-identical for any value; other experiments accept and ignore it)")
	metricsText := fs.Bool("metrics", false, "dump metrics after the experiment (grid/fig10: the machine-readable 4x4 report)")
	metricsJSON := fs.Bool("metrics-json", false, "like -metrics, as JSON")
	pcapDir := fs.String("pcap", "", "write capture-aware experiments' packet captures into `dir` (httpgrid)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to `file`")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile (post-run, after GC) to `file`")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mob4x4 [flags] <experiment> [flags]\n\nflags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nexperiments:\n")
		for _, e := range registry {
			name := e.Name
			if e.Alias != "" {
				name += "|" + e.Alias
			}
			fmt.Fprintf(stderr, "  %-12s %s\n", name, e.Doc)
		}
		fmt.Fprintf(stderr, "  %-12s %s\n", "all", "every entry the report renders, in this order")
	}
	usageErr := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "mob4x4: "+format+"\n", a...)
		fs.Usage()
		return 2
	}

	// Flags may also follow the experiment name: mob4x4 fig10 -metrics.
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	if fs.NArg() < 1 {
		return usageErr("no experiment named")
	}
	name := fs.Arg(0)
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return parseStatus(err)
	}
	if fs.NArg() != 0 {
		return usageErr("unexpected arguments after %s: %q", name, fs.Args())
	}
	if cfg.Trials < 1 {
		return usageErr("-trials must be at least 1, got %d", cfg.Trials)
	}
	if cfg.Model != fleet.ModelWaypoint && cfg.Model != fleet.ModelMarkov {
		return usageErr("unknown -model %q", cfg.Model)
	}
	switch {
	case *metricsJSON:
		cfg.Metrics = experiments.MetricsJSON
	case *metricsText:
		cfg.Metrics = experiments.MetricsText
	}
	entry, ok := experiments.Lookup(name)
	if !ok && name != "all" {
		return usageErr("unknown experiment %q", name)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err == nil {
			defer f.Close()
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(stderr, "mob4x4: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	// Every scenario built below registers its registry here; the dump
	// after the experiment is sorted, so it is deterministic for any
	// worker count.
	var coll metrics.Collector
	if cfg.Metrics != experiments.MetricsOff {
		experiments.SetCollector(&coll)
		defer experiments.SetCollector(nil)
	}
	if *pcapDir != "" {
		experiments.SetCaptureDir(*pcapDir)
		defer experiments.SetCaptureDir("")
	}

	if err := runExperiment(stdout, cfg, name, entry, &coll); err != nil {
		fmt.Fprintf(stderr, "mob4x4: %v\n", err)
		return 1
	}
	// Capture files land after the experiment; the note goes to stderr so
	// stdout stays byte-comparable across runs.
	if *pcapDir != "" {
		n, err := experiments.WriteCaptures()
		if err != nil {
			fmt.Fprintf(stderr, "mob4x4: write captures: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "mob4x4: wrote %d capture(s) to %s\n", n, *pcapDir)
	}
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintf(stderr, "mob4x4: memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}

// runExperiment runs entry (or, for "all", every InAll entry with a blank
// line after each) and then dumps the collected registries unless the
// entry printed its own metrics form.
func runExperiment(w io.Writer, cfg experiments.Config, name string, entry experiments.Experiment, coll *metrics.Collector) error {
	if name != "all" {
		if err := entry.Run(w, cfg); err != nil || entry.OwnMetrics {
			return err
		}
	} else {
		for _, e := range experiments.Experiments() {
			if !e.InAll {
				continue
			}
			if err := e.Run(w, cfg); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	switch cfg.Metrics {
	case experiments.MetricsJSON:
		b, err := json.MarshalIndent(coll.Snapshots(), "", "  ")
		if err != nil {
			return fmt.Errorf("marshal metrics: %w", err)
		}
		fmt.Fprintln(w, string(b))
	case experiments.MetricsText:
		if err := coll.WriteText(w); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
	}
	return nil
}

// parseStatus maps a flag parse error (already reported, with the usage,
// by the flag set) to the exit status: -h is a successful run.
func parseStatus(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// writeHeapProfile settles the live set with a GC, so the profile shows
// retained memory, and writes it to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
