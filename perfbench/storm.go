package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"

	"mob4x4/internal/experiments"
	"mob4x4/internal/fleet"
)

// storms are the two E14 handoff-storm workloads. Both keep 2000 nodes;
// they differ in cell density, which decides whether a run is bound by
// broadcast fan-out inside a cell or by the sharded engine and the
// stack's routing.
var storms = map[string]fleet.Options{
	// ~250 nodes per cell, serial: every broadcast reaches a crowd, so
	// ARP learning (map inserts) and segment delivery dominate.
	"storm_dense": {Nodes: 2000, Cells: 8},
	// ~16 nodes per cell on 129 region shards driven by two workers,
	// with authenticated registration, pushed binding updates and the
	// Compact codec: the engine's horizon scans and route lookup
	// dominate, and it is the only load on HMAC, routeopt and Compact.
	"storm_sparse": {
		Nodes: 2000, Cells: 128, Workers: 2, Auth: true,
		RouteOpt: fleet.RouteOptOptions{PushUpdates: true, Compact: true},
	},
}

// shrink scales a storm down to test size: 64 nodes over at most 8
// cells, the size of the fleet package's own tests.
func shrink(opts fleet.Options) fleet.Options {
	opts.Nodes = 64
	opts.Cells = min(opts.Cells, 8)
	return opts
}

// stormExec is one execution of a storm: fleet.New then Run.
type stormExec struct {
	setup, run time.Duration
	cpu        time.Duration // process CPU time during Run
	alloc      uint64        // bytes allocated during Run
	events     uint64        // scheduler events processed during Run
	workers    int
	endAt      time.Duration // simulated length of the storm
	res        fleet.Result
}

func execStorm(workload string, opts fleet.Options) stormExec {
	var e stormExec
	var f *fleet.Fleet
	t0 := time.Now()
	labelled(func() { f = fleet.New(opts) }, "workload", workload, "phase", "setup")
	e.setup = time.Since(t0)
	e.workers, e.endAt = f.Opts.Workers, f.Opts.EndAt
	ev0 := f.Net.Group().Processed()
	alloc0 := totalAlloc()
	cpu0, _ := usage()
	t1 := time.Now()
	labelled(func() { e.res = f.Run() }, "workload", workload, "phase", "run")
	e.run = time.Since(t1)
	cpu1, _ := usage()
	e.cpu = cpu1 - cpu0
	e.alloc = totalAlloc() - alloc0
	e.events = f.Net.Group().Processed() - ev0
	return e
}

// runStorm runs the storm for one seed after another from the run's
// stream until the time is up (at least two seeds). Each seed runs
// twice: the simulation is deterministic, so both executions do the
// same work — their fingerprints must match — and the faster one is
// the timing, which sheds interference from other tenants of the host.
// In a traced run the first execution is profiled and the second is
// not.
func runStorm(cfg config, opts fleet.Options, out, log io.Writer) (result, error) {
	if cfg.small {
		opts = shrink(opts)
	}
	var (
		res        result
		tr         = newTracer(cfg)
		seeds      = seedStream(cfg.seed)
		setupS     []float64
		runS       []float64
		allocMB    []float64
		p95Ms      []float64
		overhead   []float64
		nsPerEvent []float64
		cpuUtil    []float64
		nodeSPerS  []float64
		counts     counters
		events     uint64
	)
	for i, start := 0, time.Now(); i < 2 || time.Since(start) < cfg.seconds; i++ {
		opts.Seed = seeds.next()
		// Start every execution from the same heap state, so one Run
		// does not pay for collecting the previous one's fleet.
		runtime.GC()
		if err := tr.begin(tr.enabled); err != nil {
			return res, err
		}
		a := execStorm(cfg.workload, opts)
		if err := tr.end(); err != nil {
			return res, err
		}
		runtime.GC()
		b := execStorm(cfg.workload, opts)

		fp := fingerprint(a.res)
		for _, e := range []stormExec{a, b} {
			res.Attempted++
			switch {
			case len(e.res.Violations) != 0 || e.res.PendingAfterDrain != 0:
				res.fail(log, "%s seed=%d: violations %v, %d events pending after drain",
					cfg.workload, opts.Seed, e.res.Violations, e.res.PendingAfterDrain)
			case fingerprint(e.res) != fp:
				res.fail(log, "%s seed=%d: the repeat execution simulated differently", cfg.workload, opts.Seed)
			}
		}
		fmt.Fprintf(out, "fingerprint %s seed=%d workers=%d sha256=%s\n", cfg.workload, opts.Seed, a.workers, fp)

		if i == 0 {
			counts = sumSnapshots(b.res.Metrics)
			events = b.events
		}
		setupS = append(setupS, min(a.setup, b.setup).Seconds())
		runS = append(runS, min(a.run, b.run).Seconds())
		allocMB = append(allocMB, float64(b.alloc)/mb)
		p95Ms = append(p95Ms, float64(b.res.HandoffP95)/1e6)
		overhead = append(overhead, a.run.Seconds()/b.run.Seconds()-1)
		nsPerEvent = append(nsPerEvent, float64(b.run.Nanoseconds())/float64(b.events))
		cpuUtil = append(cpuUtil, float64(b.cpu)/float64(b.run))
		nodeSPerS = append(nodeSPerS, float64(opts.Nodes)*b.endAt.Seconds()/b.run.Seconds())
	}

	fmt.Fprintf(out, "%s: %d seeds, each run twice\n", cfg.workload, len(runS))
	if !cfg.trace {
		_, rss := usage()
		res.set("run_s", median(runS), "s")
		res.set("setup_s", median(setupS), "s")
		res.set("ops_per_s", 1/mean(runS), "1/s")
		res.set("op_p50_ms", median(runS)*1e3, "ms")
		res.set("op_p99_ms", quantile(runS, 0.99)*1e3, "ms")
		res.set("alloc_mb", median(allocMB), "MB")
		res.set("max_rss_mb", rss/mb, "MB")
		return res, nil
	}
	tr.report(&res)
	res.set("trace_overhead", median(overhead), "ratio")
	res.set("vtime.events", float64(events), "count")
	res.set("vtime.ns_per_event", median(nsPerEvent), "ns")
	res.set("vtime.cpu_util", median(cpuUtil), "cores")
	res.set("node_s_per_s", median(nodeSPerS), "node_s/s")
	res.set("handoff_p95_ms", median(p95Ms), "ms")
	res.set("fail_frac", float64(res.Failed)/float64(res.Attempted), "share")
	counts.report(&res)
	for _, sc := range rotation {
		res.set("scen."+sc.name+"_p50_ms", 0, "ms")
	}
	return res, nil
}

// fingerprint hashes everything a storm simulated: the rendered E14
// table and the merged metrics snapshot. It is a pure function of the
// options minus Workers, so a change to the simulator's speed alone
// must leave it unchanged.
func fingerprint(r fleet.Result) string {
	h := sha256.New()
	io.WriteString(h, experiments.FleetTable([]fleet.Result{r}))
	h.Write(r.Metrics.JSON())
	return hex.EncodeToString(h.Sum(nil))
}
