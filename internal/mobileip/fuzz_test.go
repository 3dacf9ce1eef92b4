package mobileip

import (
	"bytes"
	"testing"
)

// FuzzAuthExtension feeds arbitrary bytes to the authentication-carrying
// parsers. These sit on the registration plane's hostile-input boundary
// — every port-434 datagram an attacker can forge goes through them —
// so they must reject garbage without panicking, and anything accepted
// must be in canonical form: re-marshalling the parsed message (plus its
// extension, if any) reproduces the input byte-for-byte. That property
// is what makes "the MAC covers every byte that arrived" checkable.
func FuzzAuthExtension(f *testing.F) {
	auth := NewAuthenticator(0x101, []byte("fuzz-seed-key"))
	req := Request{
		Flags:     FlagReverseTunnel,
		Lifetime:  300,
		Home:      [4]byte{36, 1, 1, 3},
		HomeAgent: [4]byte{36, 1, 1, 2},
		CareOf:    [4]byte{128, 9, 1, 4},
		ID:        0xdeadbeefcafe,
	}
	rep := Reply{Code: CodeAccepted, Lifetime: 300, Home: req.Home, HomeAgent: req.HomeAgent, ID: req.ID}
	signedReq := auth.AppendAuth(req.Marshal())
	signedRep := auth.AppendAuth(rep.Marshal())
	f.Add(signedReq)
	f.Add(signedRep)
	f.Add(req.Marshal())
	f.Add(rep.Marshal())
	f.Add(signedReq[:len(signedReq)-1])           // truncated MAC
	f.Add(append(signedReq, 0))                   // trailing garbage after the extension
	f.Add(append(req.Marshal(), 1, 2))            // trailing garbage, no extension
	f.Add(signedReq[requestLen:])                 // a bare extension
	f.Add([]byte{AuthExtType, authExtPayloadLen}) // extension header, no body

	f.Fuzz(func(t *testing.T, data []byte) {
		var ext AuthExt
		if ext.Unmarshal(data) {
			b := ext.AppendMarshal(nil)
			if !bytes.Equal(b, data) {
				t.Fatalf("accepted extension not canonical: %x -> %x", data, b)
			}
		}
		if r, e, hasAuth, ok := ParseRequest(data); ok {
			b := r.AppendMarshal(nil)
			if hasAuth {
				b = e.AppendMarshal(b)
			}
			if !bytes.Equal(b, data) {
				t.Fatalf("accepted request not canonical: %x -> %x", data, b)
			}
		}
		if r, e, hasAuth, ok := ParseReply(data); ok {
			b := r.AppendMarshal(nil)
			if hasAuth {
				b = e.AppendMarshal(b)
			}
			if !bytes.Equal(b, data) {
				t.Fatalf("accepted reply not canonical: %x -> %x", data, b)
			}
		}
		// ParseMessage must agree with the typed parsers and never panic.
		_, _ = ParseMessage(data)
	})
}

// FuzzParseMessage feeds arbitrary bytes to the parsers a registration or
// advertisement datagram reaches: ParseMessage (and through it
// ParseRequest/ParseReply) on port 434, ParseAdvertisement on the agent
// beacon port. They must reject garbage without panicking. ParseMessage
// must agree with the typed parser for the message's type, and whatever
// is accepted must re-marshal to the bytes it was parsed from.
func FuzzParseMessage(f *testing.F) {
	auth := NewAuthenticator(0x101, []byte("fuzz-seed-key"))
	adv := Advertisement{Agent: [4]byte{128, 9, 1, 1}, Flags: AdvFlagFA, Lifetime: 600, Sequence: 7}
	req := Request{Lifetime: 300, Home: [4]byte{36, 1, 1, 3}, HomeAgent: [4]byte{36, 1, 1, 2}, CareOf: [4]byte{128, 9, 1, 4}, ID: 42}
	rep := Reply{Code: CodeAccepted, Lifetime: 300, Home: req.Home, HomeAgent: req.HomeAgent, ID: 42}
	for _, b := range [][]byte{adv.Marshal(), req.Marshal(), rep.Marshal(), auth.AppendAuth(req.Marshal())} {
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if a, err := ParseAdvertisement(data); err == nil {
			if b := a.Marshal(); !bytes.Equal(b, data[:advLen]) {
				t.Fatalf("accepted advertisement % x but re-marshals to % x", data[:advLen], b)
			}
		}
		msg, err := ParseMessage(data)
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *Request:
			r, _, _, ok := ParseRequest(data)
			if !ok || r != *m {
				t.Fatalf("ParseMessage request %+v disagrees with ParseRequest %+v (ok=%v)", *m, r, ok)
			}
			if b := m.Marshal(); !bytes.Equal(b, data[:requestLen]) {
				t.Fatalf("accepted request % x but re-marshals to % x", data[:requestLen], b)
			}
		case *Reply:
			r, _, _, ok := ParseReply(data)
			if !ok || r != *m {
				t.Fatalf("ParseMessage reply %+v disagrees with ParseReply %+v (ok=%v)", *m, r, ok)
			}
			if b := m.Marshal(); !bytes.Equal(b, data[:replyLen]) {
				t.Fatalf("accepted reply % x but re-marshals to % x", data[:replyLen], b)
			}
		default:
			t.Fatalf("ParseMessage returned %T", msg)
		}
	})
}
