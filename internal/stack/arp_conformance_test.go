package stack

import (
	"testing"

	"mob4x4/internal/arp"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
)

// TestARPMergeRuleConformance pins RFC 826's merge rule, receiver role by
// message kind. A raw NIC on the wire ("peer", IP 10.0.0.50) sends one ARP
// message to a stack interface configured for the role; the table asserts
// what the interface's cache holds for the peer afterwards, whether it
// answered, and whether a queued packet drained.
//
// Roles are relative to the message: the target owns the message's
// target address, the proxy answers for it, the holder already caches
// the peer, pending is mid-resolution for the peer, the bystander is none
// of these, and the conflict role owns the peer's own address. For a
// gratuitous announcement the target address is the peer's, so target and
// conflict coincide there.
func TestARPMergeRuleConformance(t *testing.T) {
	peerIP := ipv4.MustParseAddr("10.0.0.50")
	askedIP := ipv4.MustParseAddr("10.0.0.2")
	prefix := ipv4.MustParsePrefix("10.0.0.0/24")
	const staleMAC netsim.MAC = 0x0200_dead_beef

	type outcome struct {
		learned bool // cache maps peerIP to the peer's MAC
		reply   bool // an ARP reply went back to the peer
		drained bool // the queued packet went out to the peer's MAC
	}
	kinds := []string{"request", "reply", "gratuitous"}
	roles := []string{"target", "proxy", "holder", "pending", "bystander", "conflict"}
	want := map[string]map[string]outcome{
		"request": {
			"target":    {learned: true, reply: true},
			"proxy":     {learned: true, reply: true},
			"holder":    {learned: true},
			"pending":   {learned: true, drained: true},
			"bystander": {},
			"conflict":  {},
		},
		"reply": {
			"target":    {learned: true},
			"proxy":     {learned: true},
			"holder":    {learned: true},
			"pending":   {learned: true, drained: true},
			"bystander": {},
			"conflict":  {},
		},
		// An announcement is not a question: nobody is its target and
		// nobody answers it; it only updates receivers already tracking
		// the sender.
		"gratuitous": {
			"target":    {},
			"proxy":     {},
			"holder":    {learned: true},
			"pending":   {learned: true, drained: true},
			"bystander": {},
			"conflict":  {},
		},
	}

	for _, kind := range kinds {
		for _, role := range roles {
			t.Run(kind+"/"+role, func(t *testing.T) {
				sim := netsim.NewSim(1)
				seg := sim.NewSegment("lan", netsim.SegmentOpts{Latency: 1e6})
				peer := sim.NewNIC("peer")
				var heard []netsim.Frame
				peer.SetReceiver(func(_ *netsim.NIC, f netsim.Frame) {
					f.Payload = append([]byte(nil), f.Payload...)
					heard = append(heard, f)
				})
				peer.Attach(seg)

				msg := arp.Message{Op: arp.OpRequest, SenderMAC: peer.MAC(), SenderIP: peerIP, TargetIP: askedIP}
				dst := netsim.BroadcastMAC
				switch kind {
				case "reply":
					msg.Op = arp.OpReply
				case "gratuitous":
					msg = arp.GratuitousRequest(peer.MAC(), peerIP)
				}

				addr := ipv4.MustParseAddr("10.0.0.7")
				switch role {
				case "target":
					addr = msg.TargetIP
				case "conflict":
					addr = peerIP
				}
				h := NewHost(sim, "rx")
				ifc := h.AddIface("eth0", seg, addr, prefix)
				switch role {
				case "proxy":
					ifc.AddProxy(msg.TargetIP)
				case "holder":
					ifc.cache.Learn(peerIP, staleMAC, 0)
					ifc.syncARPInterest(peerIP)
				case "pending":
					if err := h.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: peerIP}}); err != nil {
						t.Fatal(err)
					}
					sim.Sched.RunFor(5e5) // the request is still in flight
					if ifc.pendingJob(peerIP) == nil {
						t.Fatal("no pending resolution for the peer")
					}
				}
				if kind == "reply" {
					msg.TargetMAC = ifc.NIC().MAC()
					dst = ifc.NIC().MAC()
				}

				buf := netsim.GetBuf()
				buf.B = msg.AppendMarshal(buf.B)
				peer.Send(netsim.Frame{Dst: dst, Type: netsim.EtherTypeARP, Payload: buf.B, Buf: buf})
				sim.Sched.RunFor(1e8) // well inside ARPTimeout: no retry fires

				var got outcome
				mac, ok := ifc.cache.Lookup(peerIP, int64(sim.Now()), 0)
				if ok && mac != peer.MAC() {
					t.Errorf("cache maps %v to %v, want the peer's %v", peerIP, mac, peer.MAC())
				}
				got.learned = ok
				for _, f := range heard {
					switch {
					case f.Type == netsim.EtherTypeIPv4 && f.Dst == peer.MAC():
						got.drained = true
					case f.Type == netsim.EtherTypeARP && f.Dst == peer.MAC():
						r, err := arp.Unmarshal(f.Payload)
						if err != nil || r.Op != arp.OpReply {
							t.Fatalf("unicast ARP to the peer is not a reply: %+v %v", r, err)
						}
						if r.SenderIP != msg.TargetIP || r.SenderMAC != ifc.NIC().MAC() ||
							r.TargetIP != peerIP || r.TargetMAC != peer.MAC() {
							t.Errorf("reply %+v does not claim %v for the peer", r, msg.TargetIP)
						}
						got.reply = true
					}
				}
				if w := want[kind][role]; got != w {
					t.Errorf("got %+v, want %+v", got, w)
				}
				wantLen := 0
				if got.learned {
					wantLen = 1
				}
				if role == "holder" && !got.learned {
					wantLen = 1 // the stale entry stays
				}
				if n := ifc.cache.Len(); n != wantLen {
					t.Errorf("cache holds %d entries, want %d", n, wantLen)
				}
				if role == "pending" && got.drained && len(ifc.pending) != 0 {
					t.Error("pending resolution survived its drain")
				}
			})
		}
	}
}
