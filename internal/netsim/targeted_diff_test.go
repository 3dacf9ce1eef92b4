package netsim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mob4x4/internal/experiments"
	"mob4x4/internal/fleet"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/vtime"
)

// The differential tests below run one workload twice — once with
// targeted ARP delivery (the production path) and once flooding every
// broadcast ARP frame to every attached NIC — and require byte-identical
// outcomes. Per-segment Delivered counts are the one deliberate
// difference: they count receiver callbacks, and skipping the receivers
// that would have ignored a frame is the point of targeting. Every
// outcome above the link layer (deliveries, timings, stack counters,
// cache sizes, the metrics registry) must match.

// arpWorkload builds a randomized multi-host LAN scenario from seed and
// returns its fingerprint plus the total per-segment Delivered count.
// Hosts share one prefix across two segments and, at random instants,
// send to each other (or to nobody, so resolutions expire), roam between
// the segments, drop off the wire and come back, renumber, proxy for an
// absent address with a gratuitous announcement and give it back, or
// re-announce themselves. Short cache TTLs make entries expire mid-run.
// A promiscuous tap on one segment must see the same frames either way.
func arpWorkload(seed int64, flood bool) (string, uint64) {
	const (
		nHosts = 24 // enough per segment that most ARP frames have bystanders
		ops    = 600
		span   = 4e9 // ns of virtual time the operations spread over
	)
	rng := rand.New(rand.NewSource(seed))
	sim := netsim.NewSim(seed)
	netsim.SetFloodARP(sim, flood)
	prefix := ipv4.MustParsePrefix("10.0.0.0/24")
	segs := []*netsim.Segment{
		sim.NewSegment("lanA", netsim.SegmentOpts{Latency: 1e5}),
		sim.NewSegment("lanB", netsim.SegmentOpts{Latency: 2e5, JitterMax: 5e4}),
	}
	var log bytes.Buffer
	tap := sim.NewNIC("tap")
	tap.SetPromiscuous(true)
	tapped := 0
	tap.SetReceiver(func(*netsim.NIC, netsim.Frame) { tapped++ })
	tap.Attach(segs[0])

	hosts := make([]*stack.Host, nHosts)
	ifcs := make([]*stack.Iface, nHosts)
	for k := range hosts {
		h := stack.NewHost(sim, fmt.Sprintf("h%d", k))
		h.ARPTimeout = vtime.Duration(50e6)
		h.ARPRetries = 2
		h.ARPCacheTTL = vtime.Duration(int64(300e6) + rng.Int63n(int64(1e9)))
		ifcs[k] = h.AddIface("eth0", segs[rng.Intn(len(segs))], ipv4.AddrFrom(10, 0, 0, byte(k+1)), prefix)
		h.Handle(99, func(ifc *stack.Iface, pkt ipv4.Packet) {
			fmt.Fprintf(&log, "%d %s <- %v to %v id %d\n", sim.Now(), h.Name(), pkt.Src, pkt.Dst, pkt.ID)
		})
		hosts[k] = h
	}
	nextAddr := byte(100)
	for n := 0; n < ops; n++ {
		at := vtime.Time(rng.Int63n(span))
		k := rng.Intn(nHosts)
		h, ifc := hosts[k], ifcs[k]
		op := rng.Intn(20)
		peer := rng.Intn(nHosts + 2) // past nHosts: an address nobody owns
		fresh := nextAddr
		nextAddr++
		seg := segs[rng.Intn(len(segs))]
		sim.Sched.At(at, func() {
			switch {
			case op < 12:
				dst := ipv4.AddrFrom(10, 0, 0, byte(200+peer))
				if peer < nHosts {
					dst = ifcs[peer].Addr()
				}
				_ = h.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: dst, ID: uint16(n)}})
			case op < 14:
				ifc.Attach(seg)
			case op == 14:
				ifc.Detach()
				sim.Sched.After(vtime.Duration(30e6), func() { ifc.Attach(seg) })
			case op == 15:
				ifc.SetAddr(ipv4.AddrFrom(10, 0, 0, fresh), prefix)
			case op == 16:
				// Proxy for an address nobody holds, announce it, and
				// give it back later.
				addr := ipv4.AddrFrom(10, 0, 0, byte(200+nHosts))
				ifc.AddProxy(addr)
				ifc.GratuitousARP(addr)
				sim.Sched.After(vtime.Duration(400e6), func() { ifc.RemoveProxy(addr) })
			case op == 17:
				// Proxy for a live peer's address: the classic takeover.
				addr := ifcs[peer%nHosts].Addr()
				if addr != ifc.Addr() {
					ifc.AddProxy(addr)
					ifc.GratuitousARP(addr)
					sim.Sched.After(vtime.Duration(200e6), func() { ifc.RemoveProxy(addr) })
				}
			case op == 18:
				ifc.GratuitousARP(ifc.Addr())
			default:
				h.Quiesce()
			}
		})
	}
	sim.Sched.Run()

	// Quiescent now: every resolution has drained or expired and every
	// proxy was given back, so each NIC's interest must be exactly its
	// own address plus its cache entries — extra registrations are
	// harmless to outcomes but would leak per-node state.
	for k, h := range hosts {
		if got, want := netsim.ARPInterest(ifcs[k].NIC()), 1+h.ARPEntries(); got != want {
			fmt.Fprintf(&log, "%s LEAK: interest in %d addresses, want %d\n", h.Name(), got, want)
		}
	}
	fmt.Fprintf(&log, "tap %d\n", tapped)
	for k, h := range hosts {
		fmt.Fprintf(&log, "%s addr %v arp %d stats %+v\n", h.Name(), ifcs[k].Addr(), h.ARPEntries(), h.Stats)
	}
	var delivered uint64
	for _, seg := range sim.Segments() {
		delivered += seg.Delivered
		fmt.Fprintf(&log, "%s nodest %d bytes %d\n", seg.Name(), seg.DroppedNoDest, seg.BytesCarried)
	}
	log.Write(sim.Metrics.Snapshot().JSON())
	return log.String(), delivered
}

func TestTargetedARPMatchesFlood(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		targeted, tDelivered := arpWorkload(seed, false)
		flooded, fDelivered := arpWorkload(seed, true)
		if targeted != flooded {
			t.Fatalf("seed %d: targeted delivery diverged from flooding\n%s", seed, firstDiff(targeted, flooded))
		}
		if bytes.Contains([]byte(targeted), []byte("LEAK")) {
			t.Errorf("seed %d: stale ARP interest after the run:\n%s", seed, targeted)
		}
		if tDelivered >= fDelivered {
			t.Errorf("seed %d: targeted delivery made %d receiver callbacks, flooding %d — targeting never engaged",
				seed, tDelivered, fDelivered)
		}
	}
	// The workload must exercise what it claims to: deliveries, expired
	// resolutions and cache state all present.
	out, _ := arpWorkload(1, false)
	for _, want := range []string{"<- 10.0.0.", "DropNoARP:", "arp 1"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("workload fingerprint lacks %q", want)
		}
	}
}

// TestTargetedARPMatchesFloodFleet runs a small E14 storm both ways, at
// 16 nodes per cell, so most ARP frames have bystanders.
func TestTargetedARPMatchesFloodFleet(t *testing.T) {
	run := func(flood bool) string {
		f := fleet.New(fleet.Options{Seed: 1, Nodes: 64, Cells: 4})
		for _, sim := range f.Net.Regions() {
			netsim.SetFloodARP(sim, flood)
		}
		r := f.Run()
		if len(r.Violations) != 0 {
			t.Fatalf("flood=%v: violations %v", flood, r.Violations)
		}
		return experiments.FleetTable([]fleet.Result{r}) + string(r.Metrics.JSON())
	}
	if targeted, flooded := run(false), run(true); targeted != flooded {
		t.Fatalf("targeted delivery diverged from flooding\n%s", firstDiff(targeted, flooded))
	}
}

// firstDiff renders the first differing line of two fingerprints.
func firstDiff(a, b string) string {
	al, bl := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  targeted: %s\n  flooded:  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line counts differ: %d vs %d", len(al), len(bl))
}
