package main

import (
	"fmt"
	"io"
	"time"

	"mob4x4/internal/core"
	"mob4x4/internal/experiments"
	"mob4x4/internal/metrics"
)

// warmupPasses is how many passes precede the measured ones, each call
// executed once; their median wall time is the workload's setup_s.
const warmupPasses = 5

// repeats is how often a measured call is executed; its time is the
// fastest. Three rather than the storms' two: a call lasts milliseconds,
// so a burst of interference can cover a whole execution, and with two
// the p99 still swung by a quarter from run to run.
const repeats = 3

// runScenarios cycles the rotation, each pass with the next seed of the
// run's stream: warm-up passes, then measured passes until the time is
// up. In a measured pass every call is executed repeats times with the
// same seed: the simulation is deterministic, so all do the same work,
// and the fastest is the call's time, which sheds interference from
// other tenants of the host. A traced run adds one pass with a metrics
// collector installed for the simulator counts; the collector keeps
// every registry, so it stays out of the timed passes.
func runScenarios(cfg config, out, log io.Writer) (result, error) {
	var (
		res     result
		tr      = newTracer(cfg)
		seeds   = seedStream(cfg.seed)
		opMs    []float64 // unprofiled calls
		scenMs  = map[string][]float64{}
		passS   []float64 // unprofiled passes: the sum of their calls' times
		profS   []float64
		allocMB []float64
		cpuUtil []float64
	)
	// call runs one scenario and checks its output.
	call := func(sc scenario, seed int64, phase string) time.Duration {
		var err error
		t0 := time.Now()
		labelled(func() { err = sc.run(seed) }, "workload", cfg.workload, "phase", phase, "scenario", sc.name)
		d := time.Since(t0)
		res.Attempted++
		if err != nil {
			res.fail(log, "%s seed=%d: %v", sc.name, seed, err)
		}
		return d
	}

	var setupS []float64
	for i := 0; i < warmupPasses; i++ {
		seed := seeds.next()
		t0 := time.Now()
		for _, sc := range rotation {
			call(sc, seed, "setup")
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	var measured time.Duration
	for block := 0; measured < cfg.seconds || (cfg.trace && block < 2); block++ {
		profiled := cfg.trace && block%2 == 0
		if err := tr.begin(profiled); err != nil {
			return res, err
		}
		b0 := time.Now()
		for time.Since(b0) < blockLen || !cfg.trace {
			seed := seeds.next()
			alloc0 := totalAlloc()
			cpu0, _ := usage()
			t0 := time.Now()
			var pass time.Duration
			for _, sc := range rotation {
				d := call(sc, seed, "run")
				for r := 1; r < repeats; r++ {
					d = min(d, call(sc, seed, "run"))
				}
				pass += d
				if !profiled {
					ms := float64(d.Nanoseconds()) / 1e6
					opMs = append(opMs, ms)
					scenMs[sc.name] = append(scenMs[sc.name], ms)
				}
			}
			wall := time.Since(t0)
			cpu1, _ := usage()
			if profiled {
				profS = append(profS, pass.Seconds())
			} else {
				passS = append(passS, pass.Seconds())
				allocMB = append(allocMB, float64(totalAlloc()-alloc0)/repeats/mb)
				cpuUtil = append(cpuUtil, float64(cpu1-cpu0)/float64(wall))
			}
			if !cfg.trace && measured+time.Since(b0) >= cfg.seconds {
				break
			}
		}
		measured += time.Since(b0)
		if err := tr.end(); err != nil {
			return res, err
		}
	}

	fmt.Fprintf(out, "scenarios: %d timed calls in %d unprofiled passes, each call run %d times\n", len(opMs), len(passS), repeats)
	if !cfg.trace {
		_, rss := usage()
		res.set("run_s", median(passS), "s")
		res.set("setup_s", median(setupS), "s")
		res.set("ops_per_s", 1e3/mean(opMs), "1/s")
		res.set("op_p50_ms", median(opMs), "ms")
		res.set("op_p99_ms", quantile(opMs, 0.99), "ms")
		res.set("alloc_mb", median(allocMB), "MB")
		res.set("max_rss_mb", rss/mb, "MB")
		return res, nil
	}

	coll := &metrics.Collector{}
	experiments.SetCollector(coll)
	seed := seeds.next()
	for _, sc := range rotation {
		call(sc, seed, "collect")
	}
	experiments.SetCollector(nil)
	var snaps []metrics.Snapshot
	for _, ls := range coll.Snapshots() {
		snaps = append(snaps, ls.Snap)
	}
	counts := sumSnapshots(snaps...)

	tr.report(&res)
	res.set("trace_overhead", median(profS)/median(passS)-1, "ratio")
	res.set("vtime.events", 0, "count")
	res.set("vtime.ns_per_event", 0, "ns")
	res.set("vtime.cpu_util", median(cpuUtil), "cores")
	res.set("node_s_per_s", 0, "node_s/s")
	// No fleet here: the mobile nodes' registration round trip is the
	// simulated handoff latency the rotation has.
	res.set("handoff_p95_ms", counts.quantile("mn/reg_rtt_ns", 0.95)/1e6, "ms")
	res.set("fail_frac", float64(res.Failed)/float64(res.Attempted), "share")
	counts.report(&res)
	for _, sc := range rotation {
		res.set("scen."+sc.name+"_p50_ms", median(scenMs[sc.name]), "ms")
	}
	return res, nil
}

// scenario is one paper experiment in the rotation: a call into an
// experiments.Run* entry point plus the check of its output. The checks
// restate each experiment's headline claim (the same claims its unit
// tests pin), so a run whose simulation went wrong counts as failed.
type scenario struct {
	name string
	run  func(seed int64) error
}

// rotation is the fixed order the scenarios workload cycles through:
// the sixteen small paper experiments. httpgrid is left out on purpose —
// its wall time is mostly the socket driver's real-time settle sleeps.
var rotation = []scenario{
	{"fig1", func(s int64) error {
		r := experiments.RunFig1(s)
		if !r.Ping.Delivered {
			return fmt.Errorf("ping not delivered")
		}
		if r.HATunneled != 1 || r.MHDetunneled != 1 {
			return fmt.Errorf("tunnel counts %d/%d, want 1/1", r.HATunneled, r.MHDetunneled)
		}
		if r.Ping.RequestHops <= r.Ping.ReplyHops {
			return fmt.Errorf("request hops %d not above reply hops %d", r.Ping.RequestHops, r.Ping.ReplyHops)
		}
		return nil
	}},
	{"fig2", func(s int64) error {
		for _, filterOn := range []bool{true, false} {
			for _, row := range experiments.RunFig2(s, filterOn).Rows {
				want := row.Sent
				if filterOn && row.Mode == core.OutDH {
					want = 0
				}
				if row.Delivered != want {
					return fmt.Errorf("filter=%v %s delivered %d/%d, want %d", filterOn, row.Mode, row.Delivered, row.Sent, want)
				}
			}
		}
		return nil
	}},
	{"fig4", func(s int64) error {
		rows := experiments.RunFig4(s, []int{0, 1, 2, 4, 8, 16})
		for i, r := range rows {
			if r.InIERTT <= r.InDERTT {
				return fmt.Errorf("d=%d: In-IE RTT %v not above In-DE RTT %v", r.HADistance, r.InIERTT, r.InDERTT)
			}
			if i > 0 && (r.InIERTT <= rows[i-1].InIERTT || r.InDERTT != rows[i-1].InDERTT) {
				return fmt.Errorf("d=%d: triangle penalty does not grow with home-agent distance", r.HADistance)
			}
		}
		return nil
	}},
	{"fig5", func(s int64) error {
		r := experiments.RunFig5(s)
		if len(r.Hops) < 2 || r.SwitchedAt < 0 || r.Hops[0] <= r.Hops[len(r.Hops)-1] || !r.ViaDNSWorked {
			return fmt.Errorf("correspondent discovery failed: hops=%v switched=%d dns=%v", r.Hops, r.SwitchedAt, r.ViaDNSWorked)
		}
		return nil
	}},
	{"grid", func(s int64) error {
		if m, t, _ := experiments.GridAgreement(experiments.RunGrid(s)); m != 16 || t != 16 {
			return fmt.Errorf("grid agreement %d/%d, want 16/16", m, t)
		}
		return nil
	}},
	{"adaptive", func(s int64) error {
		for _, filtering := range []bool{true, false} {
			for _, r := range experiments.RunAdaptive(s, filtering) {
				if !r.Completed {
					return fmt.Errorf("filtering=%v %s: transfer did not complete", filtering, r.Strategy)
				}
			}
		}
		return nil
	}},
	{"durability", func(s int64) error {
		home := experiments.RunDurability(s, true, 3)
		temp := experiments.RunDurability(s, false, 3)
		if !home.Survived || home.EchoesAfterMoves == 0 || temp.Survived {
			return fmt.Errorf("home session survived=%v (echoes %d), temporary survived=%v",
				home.Survived, home.EchoesAfterMoves, temp.Survived)
		}
		return nil
	}},
	{"webbrowse", func(s int64) error {
		for _, mip := range []bool{true, false} {
			if r := experiments.RunWebBrowse(s, 10, mip); r.Completed != r.Fetches {
				return fmt.Errorf("%s: %d/%d fetches completed", r.Mode, r.Completed, r.Fetches)
			}
		}
		return nil
	}},
	{"fa", func(s int64) error {
		for _, viaFA := range []bool{false, true} {
			if r := experiments.RunForeignAgent(s, viaFA); !r.Registered || !r.PingDelivered {
				return fmt.Errorf("%s: registered=%v ping=%v", r.Attachment, r.Registered, r.PingDelivered)
			}
		}
		return nil
	}},
	{"transitions", func(s int64) error {
		r := experiments.RunCorrespondentTransitions(s)
		if r.BeforeDiscovery != core.InIE || r.AfterNotice != core.InDE || r.AfterExpiry != core.InIE || r.TempReply != core.InDT {
			return fmt.Errorf("unexpected mode sequence: %s", r.String())
		}
		return nil
	}},
	{"multicast", func(s int64) error {
		for _, local := range []bool{true, false} {
			if r := experiments.RunMulticast(s, local, 10); r.PacketsGot != r.PacketsSent {
				return fmt.Errorf("%s: %d/%d packets", r.Mode, r.PacketsGot, r.PacketsSent)
			}
		}
		return nil
	}},
	{"trace", func(s int64) error {
		rows := experiments.RunTraceroutes(s)
		if len(rows) != 2 {
			return fmt.Errorf("%d traceroutes, want 2", len(rows))
		}
		for _, r := range rows {
			if n := len(r.Hops); n == 0 || !r.Hops[n-1].Reached {
				return fmt.Errorf("traceroute %q did not reach its target", r.Label)
			}
		}
		return nil
	}},
	{"dualmobile", func(s int64) error {
		if r := experiments.RunDualMobile(s); !r.Established || !r.Survived {
			return fmt.Errorf("established=%v survived=%v", r.Established, r.Survived)
		}
		return nil
	}},
	{"asymmetry", func(s int64) error {
		r := experiments.RunAsymmetry(s)
		if !r.Delivered || r.Ratio < 3 || r.InboundBps == 0 || r.OutboundBps < 2*r.InboundBps {
			return fmt.Errorf("asymmetry not reproduced: %s", r.String())
		}
		return nil
	}},
	{"savings", func(s int64) error {
		rows := experiments.RunSavings(s)
		if len(rows) != 3 {
			return fmt.Errorf("%d setups, want 3", len(rows))
		}
		for _, r := range rows {
			if r.Delivered != 20 {
				return fmt.Errorf("%s: delivered %d/20", r.Setup, r.Delivered)
			}
		}
		return nil
	}},
	{"chaos", func(s int64) error {
		r := experiments.RunChaos(s)
		if len(r.Violations) != 0 || r.PendingAfterDrain != 0 {
			return fmt.Errorf("violations %v, %d events pending after drain", r.Violations, r.PendingAfterDrain)
		}
		return nil
	}},
}
