package stack

import (
	"bytes"
	"testing"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
)

// lanPair builds two hosts on one segment: a at .1, b at .2.
func lanPair(t testing.TB, opts netsim.SegmentOpts) (*netsim.Sim, *Host, *Host) {
	t.Helper()
	sim := netsim.NewSim(1)
	seg := sim.NewSegment("lan", opts)
	prefix := ipv4.MustParsePrefix("10.0.0.0/24")
	a := NewHost(sim, "a")
	a.AddIface("eth0", seg, prefix.Host(1), prefix)
	b := NewHost(sim, "b")
	b.AddIface("eth0", seg, prefix.Host(2), prefix)
	return sim, a, b
}

// capture installs a protocol handler that records delivered packets.
func capture(h *Host, proto uint8) *[]ipv4.Packet {
	var got []ipv4.Packet
	h.Handle(proto, func(_ *Iface, pkt ipv4.Packet) {
		got = append(got, pkt)
	})
	return &got
}

func TestOnLinkDeliveryWithARP(t *testing.T) {
	sim, a, b := lanPair(t, netsim.SegmentOpts{Latency: 1e6})
	got := capture(b, 99)

	err := a.SendIP(ipv4.Packet{
		Header:  ipv4.Header{Protocol: 99, Dst: b.FirstAddr()},
		Payload: []byte("direct"),
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Sched.Run()

	if len(*got) != 1 {
		t.Fatalf("delivered %d packets", len(*got))
	}
	pkt := (*got)[0]
	if pkt.Src != a.FirstAddr() {
		t.Errorf("source not auto-filled: %s", pkt.Src)
	}
	if !bytes.Equal(pkt.Payload, []byte("direct")) {
		t.Error("payload mismatch")
	}
	// ARP resolved and cached: a second send must not broadcast again.
	arpBefore := a.Ifaces()[0].NIC().TxFrames
	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: b.FirstAddr()}})
	sim.Sched.Run()
	if tx := a.Ifaces()[0].NIC().TxFrames - arpBefore; tx != 1 {
		t.Errorf("second send transmitted %d frames, want 1 (cached ARP)", tx)
	}
	if len(*got) != 2 {
		t.Errorf("second packet lost")
	}
}

func TestLoopbackDelivery(t *testing.T) {
	sim, a, _ := lanPair(t, netsim.SegmentOpts{})
	got := capture(a, 99)
	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: a.FirstAddr()}})
	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: ipv4.MustParseAddr("127.0.0.1")}})
	sim.Sched.Run()
	if len(*got) != 2 {
		t.Errorf("loopback delivered %d, want 2", len(*got))
	}
}

func TestARPFailureDropsQueuedPackets(t *testing.T) {
	sim, a, _ := lanPair(t, netsim.SegmentOpts{})
	// Target address exists in the prefix but no host owns it.
	ghost := ipv4.MustParseAddr("10.0.0.99")
	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: ghost}})
	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: ghost}})
	sim.Sched.Run()
	if a.Stats.DropNoARP != 2 {
		t.Errorf("DropNoARP = %d, want 2", a.Stats.DropNoARP)
	}
	// Exactly ARPRetries requests were broadcast.
	if tx := a.Ifaces()[0].NIC().TxFrames; tx != uint64(a.ARPRetries) {
		t.Errorf("sent %d ARP requests, want %d", tx, a.ARPRetries)
	}
}

func TestNoRouteDrop(t *testing.T) {
	sim, a, _ := lanPair(t, netsim.SegmentOpts{})
	err := a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: ipv4.MustParseAddr("192.168.1.1")}})
	if err == nil {
		t.Error("expected no-route error")
	}
	sim.Sched.Run()
	if a.Stats.DropNoRoute != 1 {
		t.Errorf("DropNoRoute = %d", a.Stats.DropNoRoute)
	}
}

// threeNets builds a - r - b across two segments with r forwarding.
func threeNets(t testing.TB) (*netsim.Sim, *Host, *Host, *Host) {
	t.Helper()
	sim := netsim.NewSim(1)
	s1 := sim.NewSegment("s1", netsim.SegmentOpts{Latency: 1e6})
	s2 := sim.NewSegment("s2", netsim.SegmentOpts{Latency: 1e6})
	p1 := ipv4.MustParsePrefix("10.1.0.0/24")
	p2 := ipv4.MustParsePrefix("10.2.0.0/24")

	r := NewHost(sim, "r")
	r.Forwarding = true
	r.AddIface("if1", s1, p1.Host(1), p1)
	r.AddIface("if2", s2, p2.Host(1), p2)

	a := NewHost(sim, "a")
	ai := a.AddIface("eth0", s1, p1.Host(2), p1)
	a.Routes().AddDefault(ai, p1.Host(1))

	b := NewHost(sim, "b")
	bi := b.AddIface("eth0", s2, p2.Host(2), p2)
	b.Routes().AddDefault(bi, p2.Host(1))
	return sim, a, r, b
}

func TestForwarding(t *testing.T) {
	sim, a, r, b := threeNets(t)
	got := capture(b, 99)
	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: b.FirstAddr()}, Payload: []byte("via r")})
	sim.Sched.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d", len(*got))
	}
	if r.Stats.IPForwarded != 1 {
		t.Errorf("router forwarded %d", r.Stats.IPForwarded)
	}
	if (*got)[0].TTL != ipv4.DefaultTTL-1 {
		t.Errorf("TTL = %d, want %d", (*got)[0].TTL, ipv4.DefaultTTL-1)
	}
}

func TestHostDoesNotForward(t *testing.T) {
	sim, a, r, b := threeNets(t)
	r.Forwarding = false
	got := capture(b, 99)
	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: b.FirstAddr()}})
	sim.Sched.Run()
	if len(*got) != 0 {
		t.Error("non-forwarding host forwarded")
	}
}

func TestTTLExpiry(t *testing.T) {
	sim, a, r, b := threeNets(t)
	got := capture(b, 99)
	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, TTL: 1, Dst: b.FirstAddr()}})
	sim.Sched.Run()
	if len(*got) != 0 {
		t.Error("TTL=1 packet crossed a router")
	}
	if r.Stats.DropTTL != 1 {
		t.Errorf("DropTTL = %d", r.Stats.DropTTL)
	}
}

func TestIngressSourceFilter(t *testing.T) {
	sim, a, r, b := threeNets(t)
	// r is the boundary of b's domain (10.2/24); a's side is outside.
	r.Filter = &FilterPolicy{
		DomainPrefixes:      []ipv4.Prefix{ipv4.MustParsePrefix("10.2.0.0/24")},
		IngressSourceFilter: true,
	}
	r.Ifaces()[0].Outside = true // the s1-facing interface

	got := capture(b, 99)
	// Spoof: a sends with a source INSIDE b's domain.
	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{
		Protocol: 99, Src: ipv4.MustParseAddr("10.2.0.77"), Dst: b.FirstAddr()}})
	// Legitimate: a's own source.
	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: b.FirstAddr()}})
	sim.Sched.Run()

	if len(*got) != 1 {
		t.Fatalf("delivered %d, want only the legitimate packet", len(*got))
	}
	if (*got)[0].Src != a.FirstAddr() {
		t.Error("wrong packet survived")
	}
	if r.Filter.IngressDrops != 1 || r.Stats.DropFilter != 1 {
		t.Errorf("drops: policy=%d host=%d", r.Filter.IngressDrops, r.Stats.DropFilter)
	}
}

func TestEgressSourceFilter(t *testing.T) {
	sim, a, r, b := threeNets(t)
	// r is the boundary of a's domain (10.1/24): packets leaving toward
	// s2 must carry inside sources (no transit traffic).
	r.Filter = &FilterPolicy{
		DomainPrefixes:     []ipv4.Prefix{ipv4.MustParsePrefix("10.1.0.0/24")},
		EgressSourceFilter: true,
	}
	r.Ifaces()[1].Outside = true // the s2-facing interface

	got := capture(b, 99)
	// Foreign source (e.g. a mobile host's home address) leaving the domain.
	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{
		Protocol: 99, Src: ipv4.MustParseAddr("36.1.1.3"), Dst: b.FirstAddr()}})
	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: b.FirstAddr()}})
	sim.Sched.Run()

	if len(*got) != 1 {
		t.Fatalf("delivered %d, want 1", len(*got))
	}
	if r.Filter.EgressDrops != 1 {
		t.Errorf("EgressDrops = %d", r.Filter.EgressDrops)
	}
}

func TestFilterExemptions(t *testing.T) {
	sim, a, r, b := threeNets(t)
	exempt := ipv4.MustParseAddr("36.1.1.3")
	r.Filter = &FilterPolicy{
		DomainPrefixes:     []ipv4.Prefix{ipv4.MustParsePrefix("10.1.0.0/24")},
		EgressSourceFilter: true,
		Exemptions:         []ipv4.Addr{exempt},
	}
	r.Ifaces()[1].Outside = true
	got := capture(b, 99)
	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Src: exempt, Dst: b.FirstAddr()}})
	sim.Sched.Run()
	if len(*got) != 1 {
		t.Error("exempt source filtered")
	}
}

func TestClaimedAddressDelivery(t *testing.T) {
	sim, a, b := lanPair(t, netsim.SegmentOpts{})
	claimed := ipv4.MustParseAddr("36.1.1.3") // off-prefix address
	var viaOverride []ipv4.Packet
	b.Claim(claimed, func(_ *Iface, pkt ipv4.Packet) {
		viaOverride = append(viaOverride, pkt)
	})

	// Link-direct send to the claimed address (In-DH style): resolve the
	// on-link address, carry the claimed destination.
	_ = a.SendIPLinkDirect(a.Ifaces()[0], b.FirstAddr(), ipv4.Packet{
		Header: ipv4.Header{Protocol: 99, Dst: claimed},
	})
	sim.Sched.Run()
	if len(viaOverride) != 1 {
		t.Fatalf("claim override got %d packets", len(viaOverride))
	}
	if viaOverride[0].Dst != claimed {
		t.Error("destination rewritten")
	}

	// Unclaim: the packet is now silently dropped (not ours, not forwarding).
	b.Unclaim(claimed)
	_ = a.SendIPLinkDirect(a.Ifaces()[0], b.FirstAddr(), ipv4.Packet{
		Header: ipv4.Header{Protocol: 99, Dst: claimed},
	})
	sim.Sched.Run()
	if len(viaOverride) != 1 {
		t.Error("unclaimed address still delivered")
	}
}

func TestClaimNilOverrideUsesNormalDemux(t *testing.T) {
	sim, a, b := lanPair(t, netsim.SegmentOpts{})
	claimed := ipv4.MustParseAddr("36.1.1.3")
	b.Claim(claimed, nil)
	got := capture(b, 99)
	_ = a.SendIPLinkDirect(a.Ifaces()[0], b.FirstAddr(), ipv4.Packet{
		Header: ipv4.Header{Protocol: 99, Dst: claimed},
	})
	sim.Sched.Run()
	if len(*got) != 1 {
		t.Errorf("claimed-nil delivery = %d", len(*got))
	}
}

func TestFragmentationEndToEnd(t *testing.T) {
	sim := netsim.NewSim(1)
	// A narrow segment between a and b.
	seg := sim.NewSegment("narrow", netsim.SegmentOpts{MTU: 576})
	prefix := ipv4.MustParsePrefix("10.0.0.0/24")
	a := NewHost(sim, "a")
	a.AddIface("eth0", seg, prefix.Host(1), prefix)
	b := NewHost(sim, "b")
	b.AddIface("eth0", seg, prefix.Host(2), prefix)

	got := capture(b, 99)
	payload := make([]byte, 2000)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: b.FirstAddr()}, Payload: payload})
	sim.Sched.Run()

	if len(*got) != 1 {
		t.Fatalf("reassembled %d packets", len(*got))
	}
	if !bytes.Equal((*got)[0].Payload, payload) {
		t.Error("payload corrupted across fragmentation")
	}
	if a.Stats.FragsCreated < 4 {
		t.Errorf("FragsCreated = %d", a.Stats.FragsCreated)
	}
	if b.Stats.Reassembled != 1 {
		t.Errorf("Reassembled = %d", b.Stats.Reassembled)
	}
}

func TestDFPacketTriggersFragNeededHook(t *testing.T) {
	sim, a, _ := lanPair(t, netsim.SegmentOpts{MTU: 576})
	var hookMTU int
	a.FragNeeded = func(ifc *Iface, pkt ipv4.Packet, mtu int) { hookMTU = mtu }
	err := a.SendIP(ipv4.Packet{
		Header:  ipv4.Header{Protocol: 99, Dst: ipv4.MustParseAddr("10.0.0.2"), DontFrag: true},
		Payload: make([]byte, 1000),
	})
	if err == nil {
		t.Error("DF oversize send should error")
	}
	sim.Sched.Run()
	if hookMTU != 576 {
		t.Errorf("hook mtu = %d", hookMTU)
	}
	if a.Stats.DropFragSet != 1 {
		t.Errorf("DropFragSet = %d", a.Stats.DropFragSet)
	}
}

func TestBroadcastSend(t *testing.T) {
	sim, a, b := lanPair(t, netsim.SegmentOpts{})
	got := capture(b, 99)
	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: ipv4.Broadcast}})
	sim.Sched.Run()
	if len(*got) != 1 {
		t.Errorf("broadcast delivered %d", len(*got))
	}
}

func TestDirectedBroadcastReceived(t *testing.T) {
	sim, a, b := lanPair(t, netsim.SegmentOpts{})
	got := capture(b, 99)
	// Directed broadcast of the connected prefix, link-broadcast framed.
	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: ipv4.MustParseAddr("10.0.0.255")}})
	sim.Sched.Run()
	if len(*got) != 1 {
		t.Errorf("directed broadcast delivered %d", len(*got))
	}
}

func TestGratuitousARPUpdatesNeighbors(t *testing.T) {
	sim, a, b := lanPair(t, netsim.SegmentOpts{})
	// Prime a's cache with b's address.
	got := capture(b, 99)
	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: b.FirstAddr()}})
	sim.Sched.Run()
	if len(*got) != 1 {
		t.Fatal("setup send failed")
	}
	// A third host takes over b's address (as a proxying home agent
	// would) and announces it gratuitously.
	seg := a.Ifaces()[0].NIC().Segment()
	c := NewHost(sim, "c")
	ci := c.AddIface("eth0", seg, ipv4.MustParseAddr("10.0.0.3"), ipv4.MustParsePrefix("10.0.0.0/24"))
	ci.AddProxy(b.FirstAddr())
	cGot := capture(c, 99)
	ci.GratuitousARP(b.FirstAddr())
	sim.Sched.Run()

	_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: b.FirstAddr()}})
	sim.Sched.Run()
	// c claims nothing, so the packet addressed to b's IP arrives at c's
	// NIC but is not locally deliverable; what we verify is the ARP
	// takeover: b must NOT have received it.
	if len(*got) != 1 {
		t.Error("b still receives after gratuitous takeover")
	}
	_ = cGot
}

func TestSetAddrReplacesConnectedRoute(t *testing.T) {
	sim, a, _ := lanPair(t, netsim.SegmentOpts{})
	ifc := a.Ifaces()[0]
	newPrefix := ipv4.MustParsePrefix("172.16.0.0/24")
	ifc.SetAddr(ipv4.MustParseAddr("172.16.0.5"), newPrefix)
	if _, ok := a.Routes().Lookup(ipv4.MustParseAddr("10.0.0.2")); ok {
		t.Error("old connected route survives SetAddr")
	}
	if rt, ok := a.Routes().Lookup(ipv4.MustParseAddr("172.16.0.9")); !ok || rt.Iface != ifc {
		t.Error("new connected route missing")
	}
	_ = sim
}

func TestIfaceByNameAndAccessors(t *testing.T) {
	_, a, _ := lanPair(t, netsim.SegmentOpts{})
	if a.IfaceByName("eth0") == nil {
		t.Error("IfaceByName failed")
	}
	if a.IfaceByName("nope") != nil {
		t.Error("IfaceByName invented an interface")
	}
	ifc := a.Ifaces()[0]
	if ifc.Host() != a || ifc.Addr() != a.FirstAddr() || ifc.Prefix().Bits != 24 {
		t.Error("accessors broken")
	}
}

func TestNextIPIDMonotonic(t *testing.T) {
	_, a, _ := lanPair(t, netsim.SegmentOpts{})
	last := a.NextIPID()
	for i := 0; i < 100; i++ {
		id := a.NextIPID()
		if id == last {
			t.Fatal("IP ID repeated immediately")
		}
		last = id
	}
}

// BenchmarkForwardingRate measures the simulated router datapath:
// packets fully marshalled, checksummed, forwarded and delivered.
func BenchmarkForwardingRate(b *testing.B) {
	sim, a, _, dst := threeNets(b)
	sim.Trace.Enabled = false
	delivered := 0
	dst.Handle(99, func(_ *Iface, pkt ipv4.Packet) { delivered++ })
	payload := make([]byte, 1400)
	b.SetBytes(1400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: dst.FirstAddr()}, Payload: payload})
		if i%64 == 63 {
			sim.Sched.Run()
		}
	}
	sim.Sched.Run()
	if delivered == 0 {
		b.Fatal("nothing delivered")
	}
}

// TestEndToEndDeliveryProperty: random payload sizes survive the full
// datapath — routing, ARP, fragmentation across a narrow middle link,
// reassembly — byte-intact.
func TestEndToEndDeliveryProperty(t *testing.T) {
	sim := netsim.NewSim(21)
	s1 := sim.NewSegment("s1", netsim.SegmentOpts{Latency: 1e6})
	s2 := sim.NewSegment("s2", netsim.SegmentOpts{Latency: 1e6, MTU: 576})
	p1 := ipv4.MustParsePrefix("10.1.0.0/24")
	p2 := ipv4.MustParsePrefix("10.2.0.0/24")
	r := NewHost(sim, "r")
	r.Forwarding = true
	r.AddIface("if1", s1, p1.Host(1), p1)
	r.AddIface("if2", s2, p2.Host(1), p2)
	a := NewHost(sim, "a")
	ai := a.AddIface("eth0", s1, p1.Host(2), p1)
	a.Routes().AddDefault(ai, p1.Host(1))
	b := NewHost(sim, "b")
	bi := b.AddIface("eth0", s2, p2.Host(2), p2)
	b.Routes().AddDefault(bi, p2.Host(1))

	received := map[string][]byte{}
	b.Handle(99, func(_ *Iface, pkt ipv4.Packet) {
		received[string(pkt.Payload[:8])] = append([]byte(nil), pkt.Payload...)
	})

	rng := sim.Sched.Rand()
	sent := map[string][]byte{}
	for i := 0; i < 60; i++ {
		size := 8 + rng.Intn(8000)
		payload := make([]byte, size)
		rng.Read(payload)
		key := string(payload[:8])
		sent[key] = payload
		if err := a.SendIP(ipv4.Packet{
			Header:  ipv4.Header{Protocol: 99, Dst: b.FirstAddr()},
			Payload: payload,
		}); err != nil {
			t.Fatal(err)
		}
	}
	sim.Sched.Run()

	if len(received) != len(sent) {
		t.Fatalf("received %d/%d packets", len(received), len(sent))
	}
	for key, want := range sent {
		got, ok := received[key]
		if !ok {
			t.Fatalf("packet %x lost", key)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("packet %x corrupted (len %d vs %d)", key, len(got), len(want))
		}
	}
}
