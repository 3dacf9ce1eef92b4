// Package experiments builds the scenarios and runs the measurements that
// regenerate every figure of the paper (see DESIGN.md's per-experiment
// index). Each experiment returns structured rows so the same code backs
// the unit tests, the benchmark harness (bench_test.go) and the CLI
// (cmd/mob4x4, which runs the entries of registry.go).
package experiments

import (
	"fmt"

	"mob4x4/internal/assert"
	"mob4x4/internal/core"
	"mob4x4/internal/dhcpsim"
	"mob4x4/internal/dnssim"
	"mob4x4/internal/encap"
	"mob4x4/internal/icmp"
	"mob4x4/internal/icmphost"
	"mob4x4/internal/inet"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/tcplite"
	"mob4x4/internal/vtime"
)

// Handy durations.
const (
	Millisecond = vtime.Duration(1e6)
	Second      = vtime.Duration(1e9)
)

// Options parameterizes the standard scenario topology.
type Options struct {
	Seed int64
	// HomeFilter enables ingress+egress source filtering at the home
	// domain boundary (the Figure 2 situation).
	HomeFilter bool
	// VisitFilter enables egress+ingress source filtering at the first
	// visited domain boundary (the anti-transit policy of Section 3.1).
	VisitFilter bool
	// Notices makes the home agent send ICMP binding notices (Fig 5).
	Notices bool
	// HADistance inserts this many extra routers between the home
	// domain and the backbone, lengthening every indirect path (the
	// Figure 4 sweep parameter). 0 = directly on the backbone.
	HADistance int
	// Codec selects tunnel encapsulation everywhere (default IPIP).
	Codec encap.Codec
	// Selector overrides the mobile node's mode selector.
	Selector *core.Selector
	// CHAware / CHDecap configure the far correspondent's capability
	// level (Row B vs Row A of the grid).
	CHAware bool
	CHDecap bool
	// WithServices adds the DNS server (home LAN) and DHCP server
	// (visited LAN A).
	WithServices bool
	// SecondMobile adds a second mobile host whose home is the far LAN
	// (with its own home agent there), for the §1 "both hosts are
	// mobile" experiments.
	SecondMobile bool
	// LANLatency and BackboneLatency tune link delays (defaults 1ms and
	// 5ms).
	LANLatency      vtime.Duration
	BackboneLatency vtime.Duration
	// Registration-robustness knobs for the mobile node, passed through
	// to MobileNodeConfig (zero = that package's defaults). The chaos
	// experiment shortens the lifetime and enables recovery probing so
	// agent crashes are felt — and healed — within the run.
	RegLifetime      uint16
	RegMaxRetries    int
	RegProbeInterval vtime.Duration
	// MetricsLabel names this scenario's registry when a collector is
	// installed with SetCollector (default "seed=<Seed>").
	MetricsLabel string
}

// collector, when non-nil, receives every scenario registry built in
// this process. Install it once at startup (cmd tools) before any
// Build; Register itself is safe under the parallel runners.
var collector *metrics.Collector

// SetCollector routes the registries of all subsequently built
// scenarios into c (nil disables). Not safe to call concurrently with
// Build.
func SetCollector(c *metrics.Collector) { collector = c }

// Scenario is the standard experiment topology:
//
//	homeLAN ─ homeGW ─[HADistance routers]─ bb0 ─ bb1 ─ bb2 ─ visitGW-A ─ visitLAN-A
//	  │ HA, chHome, (DNS)                    │                             │ MH (roams here), chNear, (DHCP)
//	  │ MH starts here                      farGW ─ farLAN                bb2 ─ visitGW-B ─ visitLAN-B
//	                                          │ chFar
type Scenario struct {
	Opts Options
	Net  *inet.Network

	HomeLAN, VisitA, VisitB, FarLAN   *inet.LAN
	HomeGW, VisitGWA, VisitGWB, FarGW *stack.Host
	Backbone                          []*stack.Host

	HAHost *stack.Host
	HA     *mobileip.HomeAgent

	MHHost *stack.Host
	MHIfc  *stack.Iface
	MN     *mobileip.MobileNode
	MHICMP *icmphost.ICMP
	MHTCP  *tcplite.Endpoint

	CHFar    *stack.Host // distant correspondent (far LAN)
	CHFarIC  *icmphost.ICMP
	CHFarC   *mobileip.Correspondent
	CHFarTCP *tcplite.Endpoint

	CHNear    *stack.Host // correspondent on the visited LAN A
	CHNearIC  *icmphost.ICMP
	CHNearC   *mobileip.Correspondent
	CHNearTCP *tcplite.Endpoint

	CHHome    *stack.Host // correspondent inside the home domain
	CHHomeIC  *icmphost.ICMP
	CHHomeC   *mobileip.Correspondent
	CHHomeTCP *tcplite.Endpoint

	DNSHost *stack.Host
	DNS     *dnssim.Server
	DHCP    *dhcpsim.Server

	// Second mobile host (Options.SecondMobile): home on the far LAN.
	HA2Host *stack.Host
	HA2     *mobileip.HomeAgent
	MH2Host *stack.Host
	MH2Ifc  *stack.Iface
	MN2     *mobileip.MobileNode
	MH2TCP  *tcplite.Endpoint
}

// Build constructs the scenario.
func Build(opts Options) *Scenario {
	if opts.LANLatency == 0 {
		opts.LANLatency = 1 * Millisecond
	}
	if opts.BackboneLatency == 0 {
		opts.BackboneLatency = 5 * Millisecond
	}
	s := &Scenario{Opts: opts, Net: inet.New(opts.Seed + 1)}
	n := s.Net
	if collector != nil {
		label := opts.MetricsLabel
		if label == "" {
			label = fmt.Sprintf("seed=%d", opts.Seed)
		}
		collector.Register(label, n.Sim.Metrics)
	}

	lanOpts := netsim.SegmentOpts{Latency: opts.LANLatency}
	s.HomeLAN = n.AddLAN("home", "36.1.1.0/24", lanOpts)
	s.VisitA = n.AddLAN("visitA", "128.9.1.0/24", lanOpts)
	s.VisitB = n.AddLAN("visitB", "130.5.1.0/24", lanOpts)
	s.FarLAN = n.AddLAN("far", "17.5.0.0/24", lanOpts)

	s.HomeGW = n.AddRouter("homeGW")
	s.VisitGWA = n.AddRouter("visitGWA")
	s.VisitGWB = n.AddRouter("visitGWB")
	s.FarGW = n.AddRouter("farGW")
	s.Backbone = n.Chain("bb", 3, opts.BackboneLatency)

	n.AttachRouter(s.HomeGW, s.HomeLAN)
	n.AttachRouter(s.VisitGWA, s.VisitA)
	n.AttachRouter(s.VisitGWB, s.VisitB)
	n.AttachRouter(s.FarGW, s.FarLAN)

	// Home domain to backbone, optionally through a chain of extra
	// routers (Figure 4's "home agent is at MIT" distance knob).
	if opts.HADistance > 0 {
		chain := n.Chain("hd", opts.HADistance, opts.BackboneLatency)
		n.Link(s.HomeGW, chain[0], opts.BackboneLatency)
		n.Link(chain[len(chain)-1], s.Backbone[0], opts.BackboneLatency)
	} else {
		n.Link(s.HomeGW, s.Backbone[0], opts.BackboneLatency)
	}
	n.Link(s.VisitGWA, s.Backbone[2], opts.BackboneLatency)
	n.Link(s.VisitGWB, s.Backbone[2], opts.BackboneLatency)
	n.Link(s.FarGW, s.Backbone[0], opts.BackboneLatency)

	// Hosts.
	s.HAHost = n.AddHost("ha", s.HomeLAN)
	mh, mhIfc := n.AddMobileHost("mh", s.HomeLAN)
	s.MHHost, s.MHIfc = mh, mhIfc
	s.CHHome = n.AddHost("chHome", s.HomeLAN)
	s.CHFar = n.AddHost("chFar", s.FarLAN)
	s.CHNear = n.AddHost("chNear", s.VisitA)

	if opts.HomeFilter {
		n.SetBoundaryFilter(s.HomeGW, true, true, "36.1.1.0/24")
	}
	if opts.VisitFilter {
		n.SetBoundaryFilter(s.VisitGWA, true, true, "128.9.1.0/24")
	}
	n.ComputeRoutes()

	var err error
	s.HA, err = mobileip.NewHomeAgent(s.HAHost, s.HAHost.Ifaces()[0], mobileip.HomeAgentConfig{
		Codec:              opts.Codec,
		SendBindingNotices: opts.Notices,
	})
	assert.NoError(err, "experiments: create home agent")

	s.MHICMP = icmphost.Install(s.MHHost)
	s.MHTCP = tcplite.New(s.MHHost)
	s.MN, err = mobileip.NewMobileNode(s.MHHost, s.MHIfc, mobileip.MobileNodeConfig{
		Home:             s.MHIfc.Addr(),
		HomePrefix:       s.HomeLAN.Prefix,
		HomeAgent:        s.HAHost.Ifaces()[0].Addr(),
		Codec:            opts.Codec,
		Selector:         opts.Selector,
		Lifetime:         opts.RegLifetime,
		RegMaxRetries:    opts.RegMaxRetries,
		RegProbeInterval: opts.RegProbeInterval,
	})
	assert.NoError(err, "experiments: create mobile node")

	s.CHFarIC = icmphost.Install(s.CHFar)
	s.CHFarTCP = tcplite.New(s.CHFar)
	s.CHFarC = mobileip.NewCorrespondent(s.CHFar, s.CHFarIC, mobileip.CorrespondentConfig{
		Codec:          opts.Codec,
		CanDecapsulate: opts.CHDecap,
		MobileAware:    opts.CHAware,
	})
	s.CHNearIC = icmphost.Install(s.CHNear)
	s.CHNearTCP = tcplite.New(s.CHNear)
	s.CHNearC = mobileip.NewCorrespondent(s.CHNear, s.CHNearIC, mobileip.CorrespondentConfig{
		Codec:          opts.Codec,
		CanDecapsulate: opts.CHDecap,
		MobileAware:    opts.CHAware,
	})
	s.CHHomeIC = icmphost.Install(s.CHHome)
	s.CHHomeTCP = tcplite.New(s.CHHome)
	s.CHHomeC = mobileip.NewCorrespondent(s.CHHome, s.CHHomeIC, mobileip.CorrespondentConfig{
		Codec:          opts.Codec,
		CanDecapsulate: opts.CHDecap,
		MobileAware:    false, // the home-domain correspondent stays conventional
	})

	if opts.SecondMobile {
		s.HA2Host = n.AddHost("ha2", s.FarLAN)
		mh2, mh2Ifc := n.AddMobileHost("mh2", s.FarLAN)
		s.MH2Host, s.MH2Ifc = mh2, mh2Ifc
		n.ComputeRoutes()
		s.HA2, err = mobileip.NewHomeAgent(s.HA2Host, s.HA2Host.Ifaces()[0], mobileip.HomeAgentConfig{
			Codec: opts.Codec,
		})
		if err != nil {
			assert.Unreachable("experiments: create second home agent: %v", err)
		}
		icmphost.Install(s.MH2Host)
		s.MH2TCP = tcplite.New(s.MH2Host)
		s.MN2, err = mobileip.NewMobileNode(s.MH2Host, s.MH2Ifc, mobileip.MobileNodeConfig{
			Home:       s.MH2Ifc.Addr(),
			HomePrefix: s.FarLAN.Prefix,
			HomeAgent:  s.HA2Host.Ifaces()[0].Addr(),
			Codec:      opts.Codec,
			Selector:   core.NewSelector(core.StartOptimistic),
		})
		if err != nil {
			assert.Unreachable("experiments: create second mobile node: %v", err)
		}
	}

	if opts.WithServices {
		s.DNSHost = n.AddHost("dns", s.HomeLAN)
		s.DNS, err = dnssim.NewServer(s.DNSHost)
		if err != nil {
			assert.Unreachable("experiments: create DNS server: %v", err)
		}
		s.DNS.AddA("mh.mosquitonet.stanford.edu", s.MN.Home())
		s.DHCP, err = dhcpsim.NewServer(n.AddHost("dhcp", s.VisitA),
			s.VisitA.Prefix, s.VisitA.Gateway, 100, 150)
		if err != nil {
			assert.Unreachable("experiments: create DHCP server: %v", err)
		}
		n.ComputeRoutes() // refresh for the service hosts
	}
	return s
}

// Roam moves the MH to visited LAN A with a manually assigned care-of
// address and waits for registration. It panics if registration fails
// (experiments require a working binding).
func (s *Scenario) Roam() ipv4.Addr {
	careOf := s.VisitA.NextAddr()
	s.MN.MoveTo(s.VisitA.Seg, careOf, s.VisitA.Prefix, s.VisitA.Gateway)
	s.Net.RunFor(3 * Second)
	if !s.MN.Registered() {
		assert.Unreachable("experiments: registration failed (care-of %s)", careOf)
	}
	return careOf
}

// RoamB moves the MH to visited LAN B (second move).
func (s *Scenario) RoamB() ipv4.Addr {
	careOf := s.VisitB.NextAddr()
	s.MN.MoveTo(s.VisitB.Seg, careOf, s.VisitB.Prefix, s.VisitB.Gateway)
	s.Net.RunFor(3 * Second)
	if !s.MN.Registered() {
		assert.Unreachable("experiments: registration failed (care-of %s)", careOf)
	}
	return careOf
}

// RoamDHCP moves the MH to visited LAN A and acquires the care-of address
// via DHCP (requires WithServices). Returns the leased address.
func (s *Scenario) RoamDHCP() (ipv4.Addr, error) {
	if s.DHCP == nil {
		return ipv4.Zero, fmt.Errorf("experiments: scenario built without services")
	}
	// Attach with no address and run the client.
	s.MHIfc.Attach(s.VisitA.Seg)
	s.MHIfc.SetAddr(ipv4.Zero, ipv4.Prefix{})
	client, err := dhcpsim.NewClient(s.MHHost, s.MHIfc)
	if err != nil {
		return ipv4.Zero, err
	}
	var lease dhcpsim.Lease
	var acquireErr error
	gotLease := false
	client.Acquire(func(l dhcpsim.Lease, err error) {
		lease, acquireErr, gotLease = l, err, true
	})
	s.Net.RunFor(5 * Second)
	if !gotLease {
		return ipv4.Zero, fmt.Errorf("experiments: DHCP did not complete")
	}
	if acquireErr != nil {
		return ipv4.Zero, acquireErr
	}
	s.MN.MoveTo(s.VisitA.Seg, lease.Addr, lease.Prefix, lease.Gateway)
	s.Net.RunFor(3 * Second)
	if !s.MN.Registered() {
		return ipv4.Zero, fmt.Errorf("experiments: registration after DHCP failed")
	}
	return lease.Addr, nil
}

// PingResult describes one echo round trip (or its failure).
type PingResult struct {
	Delivered   bool
	RTT         vtime.Duration
	RequestHops int // router forwardings for the request
	ReplyHops   int // router forwardings for the reply
	RequestPath string
	ReplyPath   string
	ReplySource ipv4.Addr
	// One-way transit times reconstructed from the trace (send to final
	// delivery), exposing the paper's §2 point that the two directions
	// of a Mobile IP conversation can differ wildly.
	RequestOneWay vtime.Duration
	ReplyOneWay   vtime.Duration
}

// PingFrom sends one echo request from the given host's ICMP endpoint to
// dst and reports the outcome. The tracer must be enabled.
func (s *Scenario) PingFrom(ic *icmphost.ICMP, host *stack.Host, dst ipv4.Addr, timeout vtime.Duration) PingResult {
	tr := s.Net.Sim.Trace
	startEvents := len(tr.Events())
	start := s.Net.Sim.Now()

	var res PingResult
	seq := uint16(len(tr.Events())%60000 + 1)
	done := false
	prev := ic.OnEchoReply
	ic.OnEchoReply = func(src ipv4.Addr, msg icmp.Message) {
		if msg.Seq != seq || done {
			return
		}
		done = true
		res.Delivered = true
		res.RTT = s.Net.Sim.Now().Sub(start)
		res.ReplySource = src
	}
	defer func() { ic.OnEchoReply = prev }()

	_ = ic.Ping(ipv4.Zero, dst, 0x4d4d, seq, []byte("probe"))
	s.Net.RunFor(timeout)

	// Reconstruct per-direction hop counts from the trace: the request
	// is the first send from this host in the window; the reply is the
	// send whose destination is this host... simpler: count forwards per
	// packet id attributed to request vs reply by looking at send order.
	evs := tr.Events()[startEvents:]
	var reqID, repID uint64
	for _, e := range evs {
		if e.Kind == netsim.EventSend && e.Where == host.Name() && reqID == 0 {
			reqID = e.PktID
		}
	}
	if reqID != 0 {
		for _, e := range evs {
			if e.Kind == netsim.EventSend && e.PktID > reqID && e.Where != host.Name() && repID == 0 {
				repID = e.PktID
			}
		}
		res.RequestHops = tr.Hops(reqID)
		res.RequestPath = tr.Path(reqID)
		res.RequestOneWay = packetTransit(tr.PacketEvents(reqID))
		if repID != 0 {
			res.ReplyHops = tr.Hops(repID)
			res.ReplyPath = tr.Path(repID)
			res.ReplyOneWay = packetTransit(tr.PacketEvents(repID))
		}
	}
	return res
}

// packetTransit returns the time between a packet's first send and its
// last delivery event (zero if it was never delivered).
func packetTransit(evs []netsim.Event) vtime.Duration {
	var sent, delivered vtime.Time
	haveSent := false
	for _, e := range evs {
		switch e.Kind {
		case netsim.EventSend:
			if !haveSent {
				sent = e.Time
				haveSent = true
			}
		case netsim.EventDeliver:
			delivered = e.Time
		}
	}
	if !haveSent || delivered.Before(sent) {
		return 0
	}
	return delivered.Sub(sent)
}
