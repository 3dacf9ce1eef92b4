// Package arp implements the Address Resolution Protocol over simulated
// segments, including the gratuitous / proxy ARP behavior ([RFC1027],
// [RFC826]) that a Mobile IP home agent uses to capture packets addressed
// to an absent mobile host.
//
// The package provides the wire codec and the per-interface cache/state
// machine; package stack wires it to NICs and drives timers.
package arp

import (
	"encoding/binary"
	"fmt"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
)

// Op is the ARP operation code.
type Op uint16

// ARP operations.
const (
	OpRequest Op = 1
	OpReply   Op = 2
)

func (o Op) String() string {
	switch o {
	case OpRequest:
		return "request"
	case OpReply:
		return "reply"
	default:
		return fmt.Sprintf("op(%d)", uint16(o))
	}
}

// Message is an ARP packet for IPv4-over-simulated-Ethernet.
type Message struct {
	Op        Op
	SenderMAC netsim.MAC
	SenderIP  ipv4.Addr
	TargetMAC netsim.MAC
	TargetIP  ipv4.Addr
}

// wireLen is the serialized size: fixed ARP header (8) + 2*(6+4).
const wireLen = 28

// Marshal serializes the message into a fresh slice. Hot paths should use
// AppendMarshal with a pooled buffer instead.
func (m *Message) Marshal() []byte {
	return m.AppendMarshal(nil)
}

// AppendMarshal appends the serialized message to dst and returns the
// extended slice. Every wire byte is written explicitly, so dst may come
// from a pool with dirty spare capacity.
func (m *Message) AppendMarshal(dst []byte) []byte {
	start := len(dst)
	if cap(dst)-start < wireLen {
		grown := make([]byte, start, start+wireLen)
		copy(grown, dst)
		dst = grown
	}
	b := dst[start : start+wireLen]
	binary.BigEndian.PutUint16(b[0:], 1)      // htype: Ethernet
	binary.BigEndian.PutUint16(b[2:], 0x0800) // ptype: IPv4
	b[4] = 6                                  // hlen
	b[5] = 4                                  // plen
	binary.BigEndian.PutUint16(b[6:], uint16(m.Op))
	putMAC(b[8:14], m.SenderMAC)
	copy(b[14:18], m.SenderIP[:])
	putMAC(b[18:24], m.TargetMAC)
	copy(b[24:28], m.TargetIP[:])
	return dst[:start+wireLen]
}

// Unmarshal parses an ARP packet.
func Unmarshal(b []byte) (Message, error) {
	var m Message
	if len(b) < wireLen {
		return m, fmt.Errorf("arp: truncated message (%d bytes)", len(b))
	}
	if binary.BigEndian.Uint16(b[0:]) != 1 || binary.BigEndian.Uint16(b[2:]) != 0x0800 ||
		b[4] != 6 || b[5] != 4 {
		return m, fmt.Errorf("arp: unsupported hardware/protocol types")
	}
	m.Op = Op(binary.BigEndian.Uint16(b[6:]))
	if m.Op != OpRequest && m.Op != OpReply {
		return m, fmt.Errorf("arp: bad op %d", m.Op)
	}
	m.SenderMAC = getMAC(b[8:14])
	copy(m.SenderIP[:], b[14:18])
	m.TargetMAC = getMAC(b[18:24])
	copy(m.TargetIP[:], b[24:28])
	return m, nil
}

func putMAC(b []byte, m netsim.MAC) {
	b[0] = byte(m >> 40)
	b[1] = byte(m >> 32)
	b[2] = byte(m >> 24)
	b[3] = byte(m >> 16)
	b[4] = byte(m >> 8)
	b[5] = byte(m)
}

func getMAC(b []byte) netsim.MAC {
	return netsim.MAC(b[0])<<40 | netsim.MAC(b[1])<<32 | netsim.MAC(b[2])<<24 |
		netsim.MAC(b[3])<<16 | netsim.MAC(b[4])<<8 | netsim.MAC(b[5])
}

// Cache is a per-interface ARP table. Expiry is driven by the owner
// calling Tick with the current virtual time; entries older than TTL are
// evicted lazily on lookup as well.
type Cache struct {
	entries map[ipv4.Addr]entry
	// Hits/Misses count Lookup outcomes.
	Hits, Misses uint64
}

type entry struct {
	mac   netsim.MAC
	added int64 // opaque timestamp from the owner (virtual nanoseconds)
}

// NewCache returns an empty cache. The entry map is allocated lazily on
// the first Learn: most interfaces in a large simulation never resolve
// anything (reads and deletes on a nil map are safe in Go).
func NewCache() *Cache {
	return &Cache{}
}

// Learn records (or refreshes) a mapping at time now.
func (c *Cache) Learn(ip ipv4.Addr, mac netsim.MAC, now int64) {
	if c.entries == nil {
		c.entries = make(map[ipv4.Addr]entry)
	}
	c.entries[ip] = entry{mac: mac, added: now}
}

// Refresh updates the mapping for ip at time now only if the cache
// already holds one, and reports whether it did: the first step of RFC
// 826's merge rule, which every receiver of an ARP packet applies to its
// sender. Inserting a new mapping (Learn) is reserved for the target.
func (c *Cache) Refresh(ip ipv4.Addr, mac netsim.MAC, now int64) bool {
	if _, ok := c.entries[ip]; !ok {
		return false
	}
	c.entries[ip] = entry{mac: mac, added: now}
	return true
}

// Has reports whether the cache holds an entry for ip, stale or not.
func (c *Cache) Has(ip ipv4.Addr) bool {
	_, ok := c.entries[ip]
	return ok
}

// Lookup returns the MAC for ip if present and not older than ttl.
func (c *Cache) Lookup(ip ipv4.Addr, now, ttl int64) (netsim.MAC, bool) {
	e, ok := c.entries[ip]
	if !ok || (ttl > 0 && now-e.added > ttl) {
		if ok {
			delete(c.entries, ip)
		}
		c.Misses++
		return 0, false
	}
	c.Hits++
	return e.mac, true
}

// Flush removes every entry (used when a mobile host moves to a new
// segment: cached neighbours are meaningless there), calling evicted, if
// non-nil, with each removed address in no particular order. The map's
// capacity is reused — mobility events flush constantly and the next cell
// refills with a similar neighbour count.
func (c *Cache) Flush(evicted func(ipv4.Addr)) {
	for ip := range c.entries {
		delete(c.entries, ip)
		if evicted != nil {
			evicted(ip)
		}
	}
}

// Invalidate removes one entry.
func (c *Cache) Invalidate(ip ipv4.Addr) { delete(c.entries, ip) }

// Len reports the number of live entries (including possibly stale ones
// not yet evicted).
func (c *Cache) Len() int { return len(c.entries) }

// Proxy is the set of addresses an interface answers ARP for on behalf of
// other hosts. A Mobile IP home agent inserts the mobile host's home
// address here while the mobile host is away, so that packets for the MH
// are link-delivered to the agent ([RFC1027] gratuitous proxy ARP).
type Proxy struct {
	addrs map[ipv4.Addr]bool
}

// NewProxy returns an empty proxy set. The map is allocated lazily on the
// first Add: only home agents ever proxy.
func NewProxy() *Proxy { return &Proxy{} }

// Add starts proxying for ip.
func (p *Proxy) Add(ip ipv4.Addr) {
	if p.addrs == nil {
		p.addrs = make(map[ipv4.Addr]bool)
	}
	p.addrs[ip] = true
}

// Remove stops proxying for ip.
func (p *Proxy) Remove(ip ipv4.Addr) { delete(p.addrs, ip) }

// Contains reports whether ip is proxied.
func (p *Proxy) Contains(ip ipv4.Addr) bool { return p.addrs[ip] }

// Len reports the number of proxied addresses.
func (p *Proxy) Len() int { return len(p.addrs) }

// GratuitousRequest builds the gratuitous ARP a host (or proxy) broadcasts
// to update neighbours' caches: sender==target IP, broadcast target.
func GratuitousRequest(mac netsim.MAC, ip ipv4.Addr) Message {
	return Message{
		Op:        OpRequest,
		SenderMAC: mac,
		SenderIP:  ip,
		TargetMAC: 0,
		TargetIP:  ip,
	}
}
