package arp

import (
	"bytes"
	"testing"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
)

// FuzzARPUnmarshal feeds arbitrary bytes to Unmarshal, the parser every
// ARP frame on a simulated wire goes through. It must reject garbage with
// an error, never panic; anything it accepts must re-marshal to the same
// 28 wire bytes (trailing link padding is ignored) and survive
// Unmarshal(AppendMarshal(m)) unchanged.
func FuzzARPUnmarshal(f *testing.F) {
	req := Message{
		Op:        OpRequest,
		SenderMAC: netsim.MAC(0x020000000001),
		SenderIP:  ipv4.MustParseAddr("10.0.0.1"),
		TargetIP:  ipv4.MustParseAddr("10.0.0.2"),
	}
	rep := Message{
		Op:        OpReply,
		SenderMAC: netsim.MAC(0x020000000002),
		SenderIP:  req.TargetIP,
		TargetMAC: req.SenderMAC,
		TargetIP:  req.SenderIP,
	}
	grat := GratuitousRequest(netsim.MAC(0x020000000003), ipv4.MustParseAddr("10.0.0.3"))
	for _, m := range []Message{req, rep, grat} {
		b := m.Marshal()
		f.Add(b)
		f.Add(append(b, 0, 0, 0, 0)) // link-layer padding
		f.Add(b[:wireLen-1])
	}
	bad := req.Marshal()
	bad[7] = 3 // op 3: RARP, unsupported
	f.Add(bad)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err != nil {
			return
		}
		wire := m.AppendMarshal(nil)
		if !bytes.Equal(wire, b[:wireLen]) {
			t.Fatalf("accepted % x but re-marshals to % x", b[:wireLen], wire)
		}
		back, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("re-marshalled message rejected: %v", err)
		}
		if back != m {
			t.Fatalf("round trip changed the message: %+v -> %+v", m, back)
		}
	})
}
