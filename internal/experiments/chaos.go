package experiments

import (
	"fmt"
	"strings"

	"mob4x4/internal/assert"
	"mob4x4/internal/core"
	"mob4x4/internal/faults"
	"mob4x4/internal/icmp"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/stack"
	"mob4x4/internal/tcplite"
	"mob4x4/internal/vtime"
)

// The chaos experiment (E13): the standard topology under a scripted
// storm of the failures Section 3 warns about — burst loss and
// corruption on the backbone, an ingress filter blackholing the care-of
// source mid-conversation, the home agent dying and restarting, the
// visited domain's uplink going dark, and the mobile host's own radio
// bouncing. The stack must limp through where it can and heal completely
// once the faults lift; the result is byte-reproducible per seed, so the
// whole run doubles as a determinism fixture under fault load.

// ChaosResult is one chaos trial's deterministic outcome: counters, the
// vtime-stamped fault log, and any invariant violations. Every field is
// a pure function of the seed.
type ChaosResult struct {
	Seed int64

	// FaultLog is the injector's record of what fired when.
	FaultLog []string

	// Interactive TCP session (home address; must survive everything).
	TCPEchoes   int
	TCPRetrans  uint64
	TCPSurvived bool

	// DT probe stream (port heuristic; demoted while blackholed).
	ProbesSent       int
	ProbeReplies     int
	RepliesAfterHeal int
	DTDemotions      uint64
	DTUsableAtEnd    bool

	// Registration machinery across the agent crash.
	Renewals          uint64
	RegistrationFails uint64
	RecoveryProbes    uint64
	RegisteredAtEnd   bool
	BindingsAtEnd     int

	// Link-level damage tally, read from the sim registry's drop-cause
	// vector at end of run (the faults no longer keep private counts).
	GEDrops        uint64
	BlackholeDrops uint64
	DownDrops      uint64

	// Metrics is the registry snapshot after cleanup and drain; Series
	// is the 2s-vtime sampler's trajectory through the storm. Both are
	// pure functions of the seed, so the determinism and parallelism
	// fixtures cover them for free.
	Metrics metrics.Snapshot
	Series  []metrics.Sample

	// PostHealPing reports whether an echo to the home address completed
	// after every fault lifted.
	PostHealPing bool

	// PendingAfterDrain is the scheduler's event count after cleanup and
	// a full drain — nonzero means a leaked (self-rearming) timer.
	PendingAfterDrain int

	// Violations lists every broken invariant (empty on a healthy run).
	Violations []string
}

// RunChaos executes one chaos trial.
func RunChaos(seed int64) ChaosResult {
	res := ChaosResult{Seed: seed}
	sel := core.NewSelector(core.StartOptimistic)
	s := Build(Options{
		Seed:     seed,
		Selector: sel,
		// Short lifetime + bounded retries + probing: the agent crash is
		// discovered, given up on, and healed inside the run.
		RegLifetime:      10,
		RegMaxRetries:    3,
		RegProbeInterval: 4 * Second,
	})
	// Chaos reads counters and the fault log, never trace events.
	s.Net.Sim.Trace.Discard()
	// Sample the registry every 2s of vtime for the recovery trajectory.
	samp := metrics.NewSampler(s.Net.Sched(), s.Net.Sim.Metrics, 2*Second)
	// Enough retransmission budget to outlast the longest outage window.
	s.MHTCP.MaxRetries = 12
	s.CHFarTCP.MaxRetries = 12
	s.MHTCP.Feedback = &mobileip.SelectorFeedback{Selector: sel}

	s.Roam()
	t0 := s.Net.Sim.Now()
	at := func(d vtime.Duration) vtime.Time { return t0.Add(d) }
	chFar := s.CHFar.FirstAddr()

	// --- Workload 1: interactive TCP echo over the home address. ---
	if _, err := s.CHFarTCP.Listen(23, func(c *tcplite.Conn) {
		c.OnData = func(p []byte) { _ = c.Write(p) }
	}); err != nil {
		assert.Unreachable("chaos: start echo server: %v", err)
	}
	conn, err := s.MHTCP.Dial(s.MN.Home(), chFar, 23)
	assert.NoError(err, "chaos: dial echo server")
	tcpAlive := true
	conn.OnData = func(p []byte) { res.TCPEchoes++ }
	conn.OnError = func(error) { tcpAlive = false }
	conn.OnEstablished = func() { _ = conn.Write([]byte("k")) }
	writersOn := true
	var keystroke func()
	keystroke = func() {
		if !writersOn || !tcpAlive || conn.State() == tcplite.StateClosed {
			return
		}
		_ = conn.Write([]byte("k"))
		s.Net.Sched().After(500*Millisecond, keystroke)
	}
	s.Net.Sched().After(500*Millisecond, keystroke)

	// --- Workload 2: a DT-eligible UDP probe stream (dst port 53). The
	// port heuristic elects Out-DT; missing replies feed the selector, so
	// a blackholed DT path demotes and — via the prober — recovers. The
	// probe correspondent is deliberately NOT the TCP correspondent: the
	// selector state is per destination, and the healthy TCP session's
	// success feedback would mask the probe stream's DT losses. ---
	probeDst := s.CHHome.FirstAddr()
	var srv *stack.UDPSocket
	srv, err = s.CHHome.OpenUDP(ipv4.Zero, 53,
		func(src ipv4.Addr, srcPort uint16, _ ipv4.Addr, payload []byte) {
			_ = srv.SendTo(src, srcPort, payload)
		})
	assert.NoError(err, "chaos: open probe server")

	awaiting := false
	probeSock, err := s.MHHost.OpenUDP(ipv4.Zero, 0,
		func(ipv4.Addr, uint16, ipv4.Addr, []byte) {
			awaiting = false
			res.ProbeReplies++
		})
	assert.NoError(err, "chaos: open probe socket")
	var probe func()
	probe = func() {
		if !writersOn {
			return
		}
		if awaiting {
			// Last probe unanswered: application-level feedback, the same
			// signal a transport retransmission would send.
			sel.ReportRetransmission(probeDst)
		}
		awaiting = true
		res.ProbesSent++
		_ = probeSock.SendTo(probeDst, 53, []byte("probe"))
		s.Net.Sched().After(1*Second, probe)
	}
	s.Net.Sched().After(1*Second, probe)

	// The prober keeps retrying demoted paths (including Out-DT).
	prober := mobileip.NewAutoProber(s.MN, 2*Second)
	prober.RetryTemporary = true
	prober.Track(chFar)
	prober.Track(probeDst)

	// --- The fault schedule. ---
	inj := faults.NewInjector(s.Net.Sim)
	backbone := s.Net.Sim.SegmentByName("p2p-bb0-bb1")
	uplink := s.Net.Sim.SegmentByName("p2p-visitGWA-bb2")
	if backbone == nil || uplink == nil {
		assert.Unreachable("chaos: fault-target segments missing")
	}

	var ge *faults.LinkFault
	inj.At(at(1*Second), "impair backbone (gilbert-elliott)", func() {
		ge = faults.ImpairLink(s.Net.Sim, backbone, faults.LinkFaultOpts{
			PGoodBad: 0.05, PBadGood: 0.3, GoodLoss: 0.01, BadLoss: 0.5,
			DupRate: 0.02, CorruptRate: 0.01,
			ReorderRate: 0.05, ReorderMax: 20 * Millisecond,
		})
	})
	var bh *faults.Blackhole
	inj.At(at(4*Second), "blackhole care-of source at visited uplink", func() {
		bh = faults.BlackholeSource(uplink, s.MN.CareOf())
	})
	inj.CrashHomeAgent(at(6*Second), s.HA)
	inj.At(at(10*Second), "heal backbone", func() { ge.Remove() })
	inj.At(at(14*Second), "remove blackhole", func() { bh.Remove() })
	inj.RestartHomeAgent(at(16*Second), s.HA)
	inj.CutLink(at(18*Second), uplink, 4*Second)
	inj.BounceInterface(at(24*Second), s.MN.Iface(), 500*Millisecond, s.MN.Reregister)

	healMark := 0
	inj.At(at(26*Second), "all faults healed; measuring recovery", func() {
		healMark = res.ProbeReplies
	})
	inj.At(at(30*Second), "stop writers", func() { writersOn = false })

	s.Net.Sim.Sched.RunUntil(at(31 * Second))
	res.RepliesAfterHeal = res.ProbeReplies - healMark

	// --- Post-heal verification: transparent delivery works again. The
	// prober is stopped and the correspondent's mode state dropped first:
	// the ping models a FRESH conversation after the storm, not whatever
	// probing state the now-idle flows left mid-flight. ---
	prober.Stop()
	sel.Forget(chFar)
	prevReply := s.CHFarIC.OnEchoReply
	s.CHFarIC.OnEchoReply = func(src ipv4.Addr, _ icmp.Message) {
		if src == s.MN.Home() {
			res.PostHealPing = true
		}
	}
	_ = s.CHFarIC.Ping(ipv4.Zero, s.MN.Home(), 0x4343, 1, []byte("heal"))
	s.Net.RunFor(5 * Second)
	s.CHFarIC.OnEchoReply = prevReply

	res.TCPSurvived = tcpAlive && conn.State() != tcplite.StateClosed
	res.TCPRetrans = s.MHTCP.Stats.Retransmissions
	res.DTDemotions = sel.DTDemotions
	res.DTUsableAtEnd = sel.TemporaryUsable(probeDst)
	res.Renewals = s.MN.Stats.Renewals
	res.RegistrationFails = s.MN.Stats.RegistrationFails
	res.RecoveryProbes = s.MN.Stats.RecoveryProbes
	res.RegisteredAtEnd = s.MN.Registered()
	res.BindingsAtEnd = s.HA.Bindings()
	// Per-mechanism drop counts come from the one drop-cause vector the
	// faults and the link layer share — no fault-object bookkeeping.
	reg := s.Net.Sim.Metrics
	res.GEDrops = reg.DropCount(metrics.DropGilbertElliott)
	res.BlackholeDrops = reg.DropCount(metrics.DropBlackhole)
	res.DownDrops = reg.DropCount(metrics.DropDown)
	res.FaultLog = inj.Log()

	// --- Cleanup: everything the run started must wind down. ---
	samp.Stop() // before the drain: a rearming sampler never drains
	conn.Close()
	probeSock.Close()
	srv.Close()
	s.MN.GoHome(s.HomeLAN.Seg, s.HomeLAN.Gateway)
	s.Net.Run() // drain every remaining timer (reassembly, ARP, FINs)
	res.PendingAfterDrain = s.Net.Sched().Pending()
	res.Metrics = reg.Snapshot()
	res.Series = samp.Samples()

	res.Violations = chaosInvariants(res)
	return res
}

// chaosInvariants checks a finished trial against the self-healing
// contract and returns the list of violations.
func chaosInvariants(r ChaosResult) []string {
	var v []string
	bad := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }
	if !r.TCPSurvived {
		bad("interactive TCP session died (echoes=%d retrans=%d)", r.TCPEchoes, r.TCPRetrans)
	}
	if !r.RegisteredAtEnd {
		bad("mobile node not registered after all faults healed")
	}
	if r.BindingsAtEnd != 1 {
		bad("home agent holds %d bindings at end, want 1", r.BindingsAtEnd)
	}
	if !r.PostHealPing {
		bad("post-heal ping to the home address failed")
	}
	if r.DTDemotions == 0 {
		bad("blackholed DT path was never demoted")
	}
	if !r.DTUsableAtEnd {
		bad("DT path still demoted after blackhole removal + probing")
	}
	if r.RepliesAfterHeal == 0 {
		bad("no probe replies after the heal point")
	}
	if r.BlackholeDrops == 0 {
		bad("blackhole dropped nothing; DT path never exercised")
	}
	if r.DownDrops == 0 {
		bad("link-cut window dropped nothing")
	}
	if r.PendingAfterDrain != 0 {
		bad("%d scheduler events leaked after cleanup", r.PendingAfterDrain)
	}
	return v
}

// ChaosTable renders chaos trials, one block per trial.
func ChaosTable(rows []ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E13 — fault injection & self-healing\n")
	fmt.Fprintf(&b, "  %-6s %7s %8s %8s %7s %8s %7s %7s %6s %5s %5s\n",
		"seed", "echoes", "retrans", "probes", "replies", "demoted", "gedrop", "bhdrop", "regOK", "ping", "viol")
	for i := range rows {
		r := &rows[i]
		fmt.Fprintf(&b, "  %-6d %7d %8d %8d %7d %8d %7d %7d %6v %5v %5d\n",
			r.Seed, r.TCPEchoes, r.TCPRetrans, r.ProbesSent, r.ProbeReplies,
			r.DTDemotions, r.GEDrops, r.BlackholeDrops,
			r.RegisteredAtEnd, r.PostHealPing, len(r.Violations))
	}
	for i := range rows {
		r := &rows[i]
		for _, viol := range r.Violations {
			fmt.Fprintf(&b, "  seed %d VIOLATION: %s\n", r.Seed, viol)
		}
	}
	if len(rows) == 1 {
		fmt.Fprintf(&b, "  fault log (vtime ns):\n")
		for _, line := range rows[0].FaultLog {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}
