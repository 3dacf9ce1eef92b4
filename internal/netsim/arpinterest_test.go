package netsim

import (
	"math/rand"
	"slices"
	"testing"

	"mob4x4/internal/ipv4"
)

// arpPayload hand-assembles an ARP request (package arp owns the codec
// but imports this one).
func arpPayload(sender MAC, senderIP, targetIP ipv4.Addr) []byte {
	b := append([]byte(arpHeader), 0, 1) // op: request
	for shift := 40; shift >= 0; shift -= 8 {
		b = append(b, byte(sender>>shift))
	}
	b = append(b, senderIP[:]...)
	b = append(b, 0, 0, 0, 0, 0, 0)
	return append(b, targetIP[:]...)
}

// TestARPReceiversMatchModel checks arpReceivers against a model kept
// beside the NICs: every attached NIC except the sender that is
// promiscuous or registered under the frame's sender or target address,
// in attachment order. NICs churn through attach, detach and
// (un)registration, and some register more addresses than fit inline, so
// the interest set's swap-removal and overflow paths both run.
func TestARPReceiversMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sim := NewSim(1)
	seg := sim.NewSegment("lan", SegmentOpts{})
	other := sim.NewSegment("elsewhere", SegmentOpts{})
	addr := func(k int) ipv4.Addr { return ipv4.AddrFrom(10, 0, byte(k>>8), byte(k)) }
	const nNICs, nAddrs = 48, 64
	nics := make([]*NIC, nNICs)
	model := make([]map[ipv4.Addr]bool, nNICs)
	register := func(k int, ip ipv4.Addr) {
		nics[k].AddARPInterest(ip)
		model[k][ip] = true
	}
	for k := range nics {
		nics[k] = sim.NewNIC("n")
		model[k] = map[ipv4.Addr]bool{}
		register(k, addr(k))
		nics[k].Attach(seg)
	}
	nics[5].SetPromiscuous(true)
	// A popular address: most NICs hold an entry for it.
	for k := 0; k < nNICs; k += 2 {
		register(k, addr(nAddrs-1))
	}
	var overflowed bool
	for step := 0; step < 3000; step++ {
		k := rng.Intn(nNICs)
		n := nics[k]
		switch rng.Intn(6) {
		case 0:
			register(k, addr(rng.Intn(nAddrs)))
		case 1:
			ip := addr(rng.Intn(nAddrs))
			n.RemoveARPInterest(ip)
			delete(model[k], ip)
		case 2:
			if n.Segment() == seg {
				n.Attach(other)
			} else {
				n.Attach(seg)
			}
		}
		overflowed = overflowed || len(model[k]) > arpInline
		src := nics[rng.Intn(nNICs)]
		sender, target := addr(rng.Intn(nAddrs)), addr(rng.Intn(nAddrs))
		if rng.Intn(4) == 0 {
			target = sender // gratuitous
		}
		f := Frame{Src: src.MAC(), Dst: BroadcastMAC, Type: EtherTypeARP, Payload: arpPayload(src.MAC(), sender, target)}

		var want []*NIC
		for _, m := range seg.nics {
			j := slices.Index(nics, m)
			if m.mac != f.Src && (m.promiscuous || model[j][sender] || model[j][target]) {
				want = append(want, m)
			}
		}
		got, ok := seg.arpReceivers(nil, f)
		if !ok {
			t.Fatal("well-formed ARP frame not targeted")
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: arpReceivers gave %d NICs, the model %d", step, len(got), len(want))
		}
	}
	if !overflowed {
		t.Error("no NIC registered more addresses than fit inline")
	}
	if _, ok := seg.arpReceivers(nil, Frame{Type: EtherTypeARP, Payload: []byte{0, 1}}); ok {
		t.Error("truncated ARP payload was targeted instead of flooded")
	}
}
