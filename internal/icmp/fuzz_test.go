package icmp

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"mob4x4/internal/ipv4"
)

// FuzzUnmarshal feeds arbitrary bytes to Unmarshal, the parser every ICMP
// payload a stack receives goes through. It must reject garbage with an
// error, never panic. Anything it accepts must re-marshal to a message
// that parses back to the same fields. For the echo-style types, where
// every wire byte is a field, the re-marshalled bytes must also equal the
// input outside the checksum (one's complement has two encodings of a
// valid checksum).
func FuzzUnmarshal(f *testing.F) {
	orig := ipv4.Packet{Header: ipv4.Header{
		Protocol: ipv4.ProtoUDP, TTL: 1,
		Src: ipv4.MustParseAddr("10.0.0.1"), Dst: ipv4.MustParseAddr("10.0.0.2"),
	}, Payload: []byte("12345678")}
	req := EchoRequest(7, 3, []byte("ping"))
	reply := EchoReplyTo(req)
	notice := BindingNotice(ipv4.MustParseAddr("36.1.1.3"), ipv4.MustParseAddr("128.9.1.4"), 300)
	seeds := []Message{req, reply, notice}
	if m, err := FragNeeded(orig, 1400); err == nil {
		seeds = append(seeds, m)
	}
	if m, err := TimeExceeded(orig); err == nil {
		seeds = append(seeds, m)
	}
	for _, m := range seeds {
		b := m.Marshal()
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	// Hand-assembled, so a Marshal bug cannot hide in seeds it built.
	raw := []byte{uint8(TypeEchoRequest), 0, 0, 0, 0x12, 0x34, 0x56, 0x78, 'h', 'i'}
	binary.BigEndian.PutUint16(raw[2:], ipv4.Checksum(raw))
	f.Add(raw)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err != nil {
			return
		}
		wire := m.Marshal()
		back, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("re-marshalled message rejected: %v", err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the message: %+v -> %+v", m, back)
		}
		switch m.Type {
		case TypeMobilityBinding, TypeDestUnreachable, TypeTimeExceeded:
			// Unused header bytes (and a binding's trailing bytes) are
			// not fields; they re-marshal as zero.
		default:
			if !bytes.Equal(wire[:2], b[:2]) || !bytes.Equal(wire[4:], b[4:]) {
				t.Fatalf("accepted % x but re-marshals to % x", b, wire)
			}
		}
	})
}
