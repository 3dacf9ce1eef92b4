package experiments

import (
	"fmt"
	"strings"

	"mob4x4/internal/assert"
	"mob4x4/internal/encap"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
)

// OverheadRow is one point of the encapsulation size/fragmentation sweep
// (experiment E9, Section 3.3).
type OverheadRow struct {
	Codec         string
	PayloadBytes  int // transport payload size before any IP header
	PlainBytes    int // wire bytes unencapsulated (IP header + payload)
	EncapBytes    int // wire bytes encapsulated
	OverheadBytes int
	// Fragments counts the IP packets on the wire after fragmentation to
	// a 1500-byte MTU. Crossing the MTU because of encapsulation is the
	// paper's "doubling the packet count".
	PlainFragments int
	EncapFragments int
}

// RunOverhead executes experiment E9 analytically at the codec layer:
// serialize, encapsulate, fragment, count. No network is needed; the
// deliverable claims are byte arithmetic.
func RunOverhead(payloadSizes []int, mtu int) []OverheadRow {
	var rows []OverheadRow
	src := ipv4.MustParseAddr("128.9.1.4")
	ha := ipv4.MustParseAddr("36.1.1.2")
	dst := ipv4.MustParseAddr("17.5.0.2")
	for _, codec := range encap.All() {
		for _, size := range payloadSizes {
			inner := ipv4.Packet{
				Header:  ipv4.Header{Protocol: ipv4.ProtoUDP, Src: src, Dst: dst, TTL: 64, ID: 99},
				Payload: make([]byte, size),
			}
			row := OverheadRow{Codec: codec.Name(), PayloadBytes: size}
			row.PlainBytes = inner.TotalLen()
			plainFrags, err := ipv4.Fragment(inner, mtu)
			if err != nil {
				continue
			}
			row.PlainFragments = len(plainFrags)

			outer, err := codec.Encapsulate(inner, src, ha)
			if err != nil {
				continue
			}
			row.EncapBytes = outer.TotalLen()
			row.OverheadBytes = row.EncapBytes - row.PlainBytes
			encFrags, err := ipv4.Fragment(outer, mtu)
			if err != nil {
				continue
			}
			row.EncapFragments = len(encFrags)
			rows = append(rows, row)
		}
	}
	return rows
}

// OverheadTable renders the sweep.
func OverheadTable(rows []OverheadRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 3.3 — encapsulation size overhead and MTU crossing (MTU=1500)\n")
	fmt.Fprintf(&b, "  %-8s %9s %9s %9s %9s %8s %8s\n",
		"codec", "payload", "plain", "encap", "overhead", "frags", "frags+e")
	for _, r := range rows {
		note := ""
		if r.EncapFragments > r.PlainFragments {
			note = "  <- encapsulation crossed the MTU"
		}
		fmt.Fprintf(&b, "  %-8s %9d %9d %9d %9d %8d %8d%s\n",
			r.Codec, r.PayloadBytes, r.PlainBytes, r.EncapBytes, r.OverheadBytes,
			r.PlainFragments, r.EncapFragments, note)
	}
	return b.String()
}

// TunnelFragmentationResult measures the end-to-end version of E9: the
// same UDP payload sent to a correspondent with and without tunneling,
// counting IP packets that actually crossed the backbone.
type TunnelFragmentationResult struct {
	PayloadBytes  int
	PlainPackets  uint64
	TunnelPackets uint64
	Delivered     bool
}

// RunTunnelFragmentation sends one datagram of the given size Out-DT
// (plain) and Out-IE (tunneled) and counts the IPv4 frames that cross
// the backbone.
func RunTunnelFragmentation(seed int64, payload int) TunnelFragmentationResult {
	res := TunnelFragmentationResult{PayloadBytes: payload}

	// countBackbone installs an observing fault hook (it never impairs)
	// on every backbone link and returns a pointer to the number of IPv4
	// frames they carry. ARP on those links is not part of the figure,
	// so it cannot move with how ARP frames are delivered.
	countBackbone := func(s *Scenario) *uint64 {
		total := new(uint64)
		for _, seg := range s.Net.Sim.Segments() {
			name := seg.Name()
			if strings.HasPrefix(name, "p2p-bb") || strings.HasPrefix(name, "p2p-visitGWA-bb") ||
				strings.HasPrefix(name, "p2p-homeGW-bb") || strings.HasPrefix(name, "p2p-farGW-bb") {
				seg.SetFaultHook(func(f netsim.Frame) netsim.Impairment {
					if f.Type == netsim.EtherTypeIPv4 {
						*total++
					}
					return netsim.Impairment{}
				})
			}
		}
		return total
	}

	run := func(tunnel bool) (uint64, bool) {
		s := Build(Options{Seed: seed})
		s.Roam()
		delivered := false
		_, err := s.CHFar.OpenUDP(ipv4.Zero, 6000, func(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, p []byte) {
			delivered = len(p) == payload
		})
		if err != nil {
			assert.Unreachable("overhead: open CH socket: %v", err)
		}
		var sock interface {
			SendToFrom(srcAddr, dst ipv4.Addr, dstPort uint16, payload []byte) error
		}
		mhSock, err := s.MHHost.OpenUDP(ipv4.Zero, 0, nil)
		assert.NoError(err, "overhead: open MH socket")
		sock = mhSock
		backbone := countBackbone(s)
		if tunnel {
			// Out-IE: source the packet from the home address; the
			// (pessimistic) selector starts at Out-IE.
			_ = sock.SendToFrom(s.MN.Home(), s.CHFar.FirstAddr(), 6000, make([]byte, payload))
		} else {
			_ = sock.SendToFrom(s.MN.CareOf(), s.CHFar.FirstAddr(), 6000, make([]byte, payload))
		}
		s.Net.RunFor(10 * Second)
		return *backbone, delivered
	}

	res.PlainPackets, res.Delivered = run(false)
	tunnelPackets, deliveredTunnel := run(true)
	res.TunnelPackets = tunnelPackets
	res.Delivered = res.Delivered && deliveredTunnel
	return res
}
