package arp

import (
	"testing"
	"testing/quick"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
)

func TestMessageRoundTrip(t *testing.T) {
	m := Message{
		Op:        OpRequest,
		SenderMAC: netsim.MAC(0x020000000001),
		SenderIP:  ipv4.MustParseAddr("10.0.0.1"),
		TargetMAC: 0,
		TargetIP:  ipv4.MustParseAddr("10.0.0.2"),
	}
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Errorf("round trip: %+v vs %+v", got, m)
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(op bool, smac, tmac uint64, sip, tip uint32) bool {
		m := Message{
			Op:        OpRequest,
			SenderMAC: netsim.MAC(smac & 0xffffffffffff),
			TargetMAC: netsim.MAC(tmac & 0xffffffffffff),
			SenderIP:  ipv4.AddrFromUint32(sip),
			TargetIP:  ipv4.AddrFromUint32(tip),
		}
		if op {
			m.Op = OpReply
		}
		got, err := Unmarshal(m.Marshal())
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	m := Message{Op: OpRequest}
	good := m.Marshal()

	if _, err := Unmarshal(good[:10]); err == nil {
		t.Error("truncated accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] = 9 // wrong hardware type
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad htype accepted")
	}
	bad = append([]byte(nil), good...)
	bad[7] = 99 // unknown op
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad op accepted")
	}
}

func TestOpString(t *testing.T) {
	if OpRequest.String() != "request" || OpReply.String() != "reply" {
		t.Error("op strings")
	}
	if Op(9).String() == "" {
		t.Error("unknown op should render")
	}
}

func TestCacheLookupAndTTL(t *testing.T) {
	c := NewCache()
	ip := ipv4.MustParseAddr("10.0.0.1")
	mac := netsim.MAC(42)

	if _, ok := c.Lookup(ip, 0, 100); ok {
		t.Error("empty cache hit")
	}
	c.Learn(ip, mac, 10)
	if got, ok := c.Lookup(ip, 50, 100); !ok || got != mac {
		t.Errorf("lookup = %v,%v", got, ok)
	}
	// Expired at now=111 with ttl=100 (age 101 > 100).
	if _, ok := c.Lookup(ip, 111, 100); ok {
		t.Error("stale entry returned")
	}
	if c.Len() != 0 {
		t.Error("stale entry not evicted")
	}
	// ttl=0 means no expiry.
	c.Learn(ip, mac, 10)
	if _, ok := c.Lookup(ip, 1<<40, 0); !ok {
		t.Error("ttl=0 entry expired")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheRefreshAndInvalidate(t *testing.T) {
	c := NewCache()
	ip := ipv4.MustParseAddr("10.0.0.1")
	c.Learn(ip, 1, 0)
	c.Learn(ip, 2, 50) // refresh with new MAC
	if got, _ := c.Lookup(ip, 60, 100); got != 2 {
		t.Errorf("refresh lost: %v", got)
	}
	c.Invalidate(ip)
	if _, ok := c.Lookup(ip, 60, 100); ok {
		t.Error("invalidated entry returned")
	}
	c.Learn(ip, 3, 0)
	c.Flush(nil)
	if c.Len() != 0 {
		t.Error("flush incomplete")
	}
}

func TestProxySet(t *testing.T) {
	p := NewProxy()
	a := ipv4.MustParseAddr("36.1.1.3")
	if p.Contains(a) {
		t.Error("empty proxy contains")
	}
	p.Add(a)
	if !p.Contains(a) || p.Len() != 1 {
		t.Error("add failed")
	}
	p.Add(a) // idempotent
	if p.Len() != 1 {
		t.Error("duplicate add changed length")
	}
	p.Remove(a)
	if p.Contains(a) || p.Len() != 0 {
		t.Error("remove failed")
	}
}

func TestGratuitousRequestShape(t *testing.T) {
	mac := netsim.MAC(7)
	ip := ipv4.MustParseAddr("36.1.1.3")
	g := GratuitousRequest(mac, ip)
	if g.Op != OpRequest {
		t.Error("gratuitous must be a request")
	}
	if g.SenderIP != ip || g.TargetIP != ip {
		t.Error("gratuitous must have sender == target IP")
	}
	if g.SenderMAC != mac {
		t.Error("sender MAC wrong")
	}
	// Round-trips cleanly.
	if _, err := Unmarshal(g.Marshal()); err != nil {
		t.Error(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	m := Message{Op: OpRequest, SenderMAC: 1, SenderIP: ipv4.MustParseAddr("10.0.0.1"),
		TargetIP: ipv4.MustParseAddr("10.0.0.2")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Marshal()
	}
}

func BenchmarkCacheLookup(b *testing.B) {
	c := NewCache()
	var ips []ipv4.Addr
	for i := 0; i < 256; i++ {
		ip := ipv4.AddrFromUint32(0x0a000000 + uint32(i))
		c.Learn(ip, netsim.MAC(i), 0)
		ips = append(ips, ip)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Lookup(ips[i%256], 0, 0)
	}
}
