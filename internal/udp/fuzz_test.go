package udp

import (
	"bytes"
	"testing"

	"mob4x4/internal/ipv4"
)

// FuzzUnmarshal feeds arbitrary bytes (and pseudo-header endpoints) to
// Unmarshal, the parser every UDP datagram a stack receives goes through.
// It must reject garbage with an error, never panic. Anything it accepts
// must re-marshal, checksum recomputed, to the same ports and payload —
// the first length bytes of the input outside the checksum field (a zero
// checksum means "not computed" and re-marshals to a real one) — and
// parse back unchanged.
func FuzzUnmarshal(f *testing.F) {
	for _, d := range []Datagram{
		{SrcPort: 4321, DstPort: 53, Payload: []byte("query")},
		{SrcPort: 434, DstPort: 434, Payload: []byte{1, 0, 1, 44}},
		{SrcPort: 1, DstPort: 2},
	} {
		b, err := d.Marshal(src, dst)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint32(0x0a000001), uint32(0x0a000002), b)
		f.Add(uint32(0x0a000001), uint32(0x0a000002), append(b, 0xee)) // trailing link padding
		noSum := append([]byte(nil), b...)
		noSum[6], noSum[7] = 0, 0
		f.Add(uint32(0x0a000001), uint32(0x0a000002), noSum)
		f.Add(uint32(0x0a000001), uint32(0x0a000002), b[:len(b)-1])
	}
	f.Add(uint32(0), uint32(0), []byte{})

	f.Fuzz(func(t *testing.T, s, d uint32, b []byte) {
		from := ipv4.Addr{byte(s >> 24), byte(s >> 16), byte(s >> 8), byte(s)}
		to := ipv4.Addr{byte(d >> 24), byte(d >> 16), byte(d >> 8), byte(d)}
		dg, err := Unmarshal(from, to, b)
		if err != nil {
			return
		}
		wire, err := dg.Marshal(from, to)
		if err != nil {
			t.Fatalf("accepted datagram does not re-marshal: %v", err)
		}
		if n := HeaderLen + len(dg.Payload); !bytes.Equal(wire[:6], b[:6]) || !bytes.Equal(wire[HeaderLen:], b[HeaderLen:n]) {
			t.Fatalf("accepted % x but re-marshals to % x", b[:n], wire)
		}
		back, err := Unmarshal(from, to, wire)
		if err != nil {
			t.Fatalf("re-marshalled datagram rejected: %v", err)
		}
		if back.SrcPort != dg.SrcPort || back.DstPort != dg.DstPort || !bytes.Equal(back.Payload, dg.Payload) {
			t.Fatalf("round trip changed the datagram: %+v -> %+v", dg, back)
		}
	})
}
