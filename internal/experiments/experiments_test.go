package experiments

import (
	"strings"
	"testing"

	"mob4x4/internal/core"
)

func TestOverheadArithmetic(t *testing.T) {
	rows := RunOverhead([]int{100, 1400, 1470, 1475, 1500, 4000}, 1500)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	sawDoubling := map[string]bool{}
	for _, r := range rows {
		switch r.Codec {
		case "ipip":
			if r.OverheadBytes != 20 {
				t.Errorf("ipip overhead = %d bytes, want 20 (Section 3.3)", r.OverheadBytes)
			}
		case "minenc":
			// Section 2: Minimal Encapsulation beats the 20-byte cost;
			// worst case 12 bytes (source present).
			if r.OverheadBytes < 8 || r.OverheadBytes > 12 {
				t.Errorf("minenc overhead = %d bytes, want 8..12", r.OverheadBytes)
			}
		case "gre":
			if r.OverheadBytes < 24 || r.OverheadBytes > 28 {
				t.Errorf("gre overhead = %d bytes, want 24..28", r.OverheadBytes)
			}
		}
		if r.EncapFragments > r.PlainFragments && r.EncapFragments != 2*r.PlainFragments {
			// "doubling the packet count": a just-over-MTU packet goes
			// from 1 fragment to 2.
			t.Errorf("%s payload=%d: fragments %d -> %d (expected doubling)",
				r.Codec, r.PayloadBytes, r.PlainFragments, r.EncapFragments)
		}
		if r.EncapFragments > r.PlainFragments {
			sawDoubling[r.Codec] = true
		}
	}
	for _, codec := range []string{"ipip", "minenc", "gre"} {
		if !sawDoubling[codec] {
			t.Errorf("%s: sweep never crossed the MTU; widen the payload range", codec)
		}
	}
}

func TestTunnelFragmentationDoubling(t *testing.T) {
	// A 1460-byte UDP payload fits the MTU plain (1488 bytes) but not
	// IPIP-encapsulated (1508), so the tunnel fragments it.
	r := RunTunnelFragmentation(3, 1460)
	if !r.Delivered {
		t.Fatal("payload not delivered in both modes")
	}
	if r.TunnelPackets <= r.PlainPackets {
		t.Errorf("tunneled backbone packets (%d) not greater than plain (%d); fragmentation doubling not observed",
			r.TunnelPackets, r.PlainPackets)
	}
	// Plain: one packet on each of the 4 backbone hops to the far
	// correspondent. Tunneled: two fragments on each of the 4 hops to the
	// home agent, then the reassembled datagram on 2 hops to the far
	// correspondent. ARP frames on those links are not counted.
	if r.PlainPackets != 4 || r.TunnelPackets != 10 {
		t.Errorf("backbone IPv4 packets = %d plain, %d tunneled; want 4, 10", r.PlainPackets, r.TunnelPackets)
	}
}

func TestAdaptiveStrategies(t *testing.T) {
	rows := RunAdaptive(5, true)
	byName := map[string]AdaptiveRow{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	for name, r := range byName {
		if !r.Completed {
			t.Fatalf("%s: transfer did not complete\n%s", name, AdaptiveTable(rows))
		}
	}
	opt := byName["optimistic"]
	ruled := byName["ruled"]
	pess := byName["pessimistic"]
	// The optimistic start against a filtering home domain wastes
	// retransmissions before the feedback loop drops to Out-IE.
	if opt.Retransmissions == 0 || opt.ModeSwitches == 0 {
		t.Errorf("optimistic: expected wasted probes and a mode switch, got retrans=%d switches=%d",
			opt.Retransmissions, opt.ModeSwitches)
	}
	if opt.FinalMode != core.OutIE {
		t.Errorf("optimistic converged to %s, want Out-IE", opt.FinalMode)
	}
	// The rule table eliminates the waste entirely.
	if ruled.Retransmissions > 0 || ruled.ModeSwitches > 0 {
		t.Errorf("ruled: expected no waste, got retrans=%d switches=%d",
			ruled.Retransmissions, ruled.ModeSwitches)
	}
	if ruled.TimeToComplete >= opt.TimeToComplete {
		t.Errorf("ruled (%v) not faster than optimistic (%v)", ruled.TimeToComplete, opt.TimeToComplete)
	}
	// Pessimistic works immediately too (Out-IE start).
	if pess.ModeSwitches != 0 {
		t.Errorf("pessimistic: unexpected mode switches %d", pess.ModeSwitches)
	}
}

func TestAdaptiveNoFiltering(t *testing.T) {
	rows := RunAdaptive(5, false)
	for _, r := range rows {
		if !r.Completed {
			t.Fatalf("%s: transfer did not complete without filtering", r.Strategy)
		}
	}
	byName := map[string]AdaptiveRow{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	// Without filtering the optimistic start is strictly better: direct
	// delivery with no switches.
	opt := byName["optimistic"]
	if opt.ModeSwitches != 0 || opt.FinalMode != core.OutDH {
		t.Errorf("optimistic without filtering: switches=%d final=%s, want 0/Out-DH",
			opt.ModeSwitches, opt.FinalMode)
	}
}

func TestDurabilityHomeVsTemporary(t *testing.T) {
	home := RunDurability(9, true, 3)
	temp := RunDurability(9, false, 3)

	if !home.Survived {
		t.Errorf("home-address session did not survive %d moves (err=%q, echoes post=%d)",
			home.Moves, home.ConnError, home.EchoesAfterMoves)
	}
	if home.EchoesAfterMoves == 0 {
		t.Error("home-address session made no progress after moving")
	}
	if temp.Survived {
		t.Error("temporary-address session survived movement; it must break (Out-DT trade-off)")
	}
	if temp.EchoesBeforeMove == 0 {
		t.Error("temporary-address session never worked even before moving")
	}
}

func TestWebBrowseTradeoff(t *testing.T) {
	mip := RunWebBrowse(11, 5, true)
	dt := RunWebBrowse(11, 5, false)
	if mip.Completed != 5 || dt.Completed != 5 {
		t.Fatalf("fetches completed: mobileip=%d out-dt=%d, want 5/5", mip.Completed, dt.Completed)
	}
	// Out-DT avoids the triangle: faster and fewer backbone bytes.
	if dt.TotalTime >= mip.TotalTime {
		t.Errorf("Out-DT total time %v not less than Mobile IP %v", dt.TotalTime, mip.TotalTime)
	}
	if dt.BackboneBytes >= mip.BackboneBytes {
		t.Errorf("Out-DT backbone bytes %d not less than Mobile IP %d", dt.BackboneBytes, mip.BackboneBytes)
	}
}

func TestFormatsMatchPaperNotation(t *testing.T) {
	rows := RunFormats()
	if len(rows) != 8 {
		t.Fatalf("got %d format rows, want 8", len(rows))
	}
	find := func(dir, mode string) FormatRow {
		for _, r := range rows {
			if r.Direction == dir && r.Mode == mode {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", dir, mode)
		return FormatRow{}
	}
	// Figure 7: Out-IE — s=COA d=HA S=MH D=CH.
	oie := find("out", "Out-IE")
	if oie.OuterSrc != roleCOA || oie.OuterDst != roleHA || oie.InnerSrc != roleMH || oie.InnerDst != roleCH {
		t.Errorf("Out-IE format wrong: %+v", oie)
	}
	// Figure 7: Out-DE — s=COA d=CH S=MH D=CH.
	ode := find("out", "Out-DE")
	if ode.OuterSrc != roleCOA || ode.OuterDst != roleCH || ode.InnerSrc != roleMH || ode.InnerDst != roleCH {
		t.Errorf("Out-DE format wrong: %+v", ode)
	}
	// Figure 6: Out-DH — S=MH D=CH, no outer.
	odh := find("out", "Out-DH")
	if odh.Encapsulated || odh.InnerSrc != roleMH || odh.InnerDst != roleCH {
		t.Errorf("Out-DH format wrong: %+v", odh)
	}
	// Figure 6: Out-DT — S=COA D=CH.
	odt := find("out", "Out-DT")
	if odt.Encapsulated || odt.InnerSrc != roleCOA || odt.InnerDst != roleCH {
		t.Errorf("Out-DT format wrong: %+v", odt)
	}
	// Figure 9: In-IE — s=HA d=COA S=CH D=MH.
	iie := find("in", "In-IE")
	if iie.OuterSrc != roleHA || iie.OuterDst != roleCOA || iie.InnerSrc != roleCH || iie.InnerDst != roleMH {
		t.Errorf("In-IE format wrong: %+v", iie)
	}
	// Figure 9: In-DE — s=CH d=COA S=CH D=MH.
	ide := find("in", "In-DE")
	if ide.OuterSrc != roleCH || ide.OuterDst != roleCOA || ide.InnerSrc != roleCH || ide.InnerDst != roleMH {
		t.Errorf("In-DE format wrong: %+v", ide)
	}
	// Figure 8: In-DH — S=CH D=MH; In-DT — S=CH D=COA.
	idh := find("in", "In-DH")
	if idh.Encapsulated || idh.InnerSrc != roleCH || idh.InnerDst != roleMH {
		t.Errorf("In-DH format wrong: %+v", idh)
	}
	idt := find("in", "In-DT")
	if idt.Encapsulated || idt.InnerSrc != roleCH || idt.InnerDst != roleCOA {
		t.Errorf("In-DT format wrong: %+v", idt)
	}
	if !strings.Contains(FormatsTable(rows), "Out-IE") {
		t.Error("FormatsTable missing rows")
	}
}

func TestForeignAgentComparison(t *testing.T) {
	self := RunForeignAgent(13, false)
	fa := RunForeignAgent(13, true)

	for _, r := range []FAResult{self, fa} {
		if !r.Registered {
			t.Fatalf("%s: registration failed", r.Attachment)
		}
		if !r.PingDelivered {
			t.Fatalf("%s: ping to home address failed", r.Attachment)
		}
	}
	if !self.OutDTAvailable {
		t.Error("self-sufficient attachment should allow Out-DT")
	}
	if fa.OutDTAvailable {
		t.Error("foreign-agent attachment must not allow Out-DT (the paper's critique)")
	}
	if fa.FADelivered == 0 {
		t.Error("foreign agent relayed nothing; the tunnel did not go through it")
	}
}

func TestCorrespondentTransitions(t *testing.T) {
	r := RunCorrespondentTransitions(17)
	if r.BeforeDiscovery != core.InIE {
		t.Errorf("before discovery: %s, want In-IE", r.BeforeDiscovery)
	}
	if r.AfterNotice != core.InDE {
		t.Errorf("after ICMP notice: %s, want In-DE", r.AfterNotice)
	}
	if r.AfterExpiry != core.InIE {
		t.Errorf("after binding expiry: %s, want In-IE", r.AfterExpiry)
	}
	if r.TempReply != core.InDT {
		t.Errorf("temp-initiated reply: %s, want In-DT", r.TempReply)
	}
}

func TestRoamViaDHCP(t *testing.T) {
	s := Build(Options{Seed: 21, WithServices: true})
	addr, err := s.RoamDHCP()
	if err != nil {
		t.Fatalf("RoamDHCP: %v", err)
	}
	if !s.VisitA.Prefix.Contains(addr) {
		t.Errorf("leased address %s not in visited prefix %s", addr, s.VisitA.Prefix)
	}
	if got, ok := s.HA.CareOf(s.MN.Home()); !ok || got != addr {
		t.Errorf("HA binding = %v,%v; want %s", got, ok, addr)
	}
}
