package netsim

import "mob4x4/internal/ipv4"

// Targeted ARP delivery. A broadcast ARP frame matters only to NICs that
// own or proxy its target address, or that track its sender (hold a
// cache entry for it or are resolving it): under RFC 826's merge rule
// every other receiver parses the frame and does nothing. Each NIC keeps
// the set of addresses its stack registered (AddARPInterest), and a
// segment hands a broadcast ARP frame only to the NICs registered under
// its sender or target address, plus promiscuous ones. The invariant:
// a registration may be stale (an extra receiver is a no-op), but one
// missing would lose a reply or a refresh.

// arpInline is how many registrations a NIC keeps inline. Most NICs
// register their own address and a few neighbours; storing those inline
// keeps small scenarios free of per-NIC allocations.
const arpInline = 4

// arpInterest is a NIC's registration set: up to arpInline addresses
// inline, the rest in an overflow map.
type arpInterest struct {
	inline [arpInline]ipv4.Addr
	n      int
	more   map[ipv4.Addr]struct{}
}

func (a *arpInterest) has(ip ipv4.Addr) bool {
	for k := 0; k < a.n; k++ {
		if a.inline[k] == ip {
			return true
		}
	}
	_, ok := a.more[ip]
	return ok
}

// AddARPInterest registers the NIC for broadcast ARP frames naming ip as
// sender or target. The owning stack registers every address it can act
// on: its own, the ones it proxies, and the ones it holds a cache entry
// for or is resolving. Registering an address twice is a no-op.
func (n *NIC) AddARPInterest(ip ipv4.Addr) {
	a := &n.arp
	switch {
	case a.has(ip):
	case a.n < arpInline:
		a.inline[a.n] = ip
		a.n++
	default:
		if a.more == nil {
			a.more = make(map[ipv4.Addr]struct{})
		}
		a.more[ip] = struct{}{}
	}
}

// RemoveARPInterest withdraws a registration made by AddARPInterest; an
// address never registered is a no-op.
func (n *NIC) RemoveARPInterest(ip ipv4.Addr) {
	a := &n.arp
	for k := 0; k < a.n; k++ {
		if a.inline[k] == ip {
			a.n--
			a.inline[k] = a.inline[a.n]
			return
		}
	}
	delete(a.more, ip)
}

// arpHeader is the fixed prefix of an IPv4-over-Ethernet ARP message
// (htype 1, ptype 0x0800, hlen 6, plen 4); arpLen is the full message
// length. The link layer peeks at the two protocol addresses to target
// delivery; package arp owns the codec proper.
const (
	arpHeader = "\x00\x01\x08\x00\x06\x04"
	arpLen    = 28
)

// arpReceivers appends to dests the receivers of a broadcast ARP frame:
// the NICs registered under its target or sender address, plus
// promiscuous ones, in attachment order — the order a flood visits them,
// so both run the same callbacks in the same sequence. ok is false for a
// payload that is not an IPv4-over-Ethernet ARP message; such a frame
// floods like any other broadcast.
func (seg *Segment) arpReceivers(dests []*NIC, f Frame) (out []*NIC, ok bool) {
	p := f.Payload
	if len(p) < arpLen || string(p[:len(arpHeader)]) != arpHeader {
		return dests, false
	}
	sender, target := ipv4.Addr(p[14:18]), ipv4.Addr(p[24:28])
	for _, n := range seg.nics {
		if n.mac != f.Src && (n.promiscuous || n.arp.has(target) || n.arp.has(sender)) {
			dests = append(dests, n)
		}
	}
	return dests, true
}
