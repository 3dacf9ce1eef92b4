package experiments

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"mob4x4/internal/assert"
	"mob4x4/internal/core"
	"mob4x4/internal/dnssim"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/pcap"
	"mob4x4/internal/sock"
	"mob4x4/internal/udp"
	"mob4x4/internal/vtime"
)

// Experiment E16 (httpgrid): an unmodified net/http server on the mobile
// host and an unmodified net/http client plus a DNS lookup on the
// correspondent, run over the sock facade in every cell of the 4x4 grid,
// with the NIC boundary tapped into a pcap capture. The cell's capture
// SHA-256 is part of the printed table, so the determinism gate compares
// the captured bytes themselves across repeats, -parallel and -shards.
//
// TCP keys both directions of a conversation to one address pair, so six
// of the sixteen requested combinations cannot be honored literally (the
// paper's §6 point): when In is not In-DT the correspondent targets the
// home address and every reply is keyed to it (Out-DT is overridden),
// and when In is In-DT the replies come from the care-of address no
// matter which Out mode the selector would force. The table reports the
// requested and the delivered modes side by side.

// httpGridName is the mobile host's published DNS name (the WithServices
// zone entry).
const httpGridName = "mh.mosquitonet.stanford.edu"

// httpGridHorizon is how long past roam each cell stays open. Teardown
// (FIN exchange, TIME-WAIT) and the periodic Mobile IP chatter all land
// before it; cutting the tap at a pre-scheduled virtual instant makes
// the capture's extent a virtual-time fact rather than a scheduling one.
const httpGridHorizon = 10 * Second

// HTTPCell is one measured cell of E16.
type HTTPCell struct {
	Combo core.Combo
	Class core.Class

	DNSOK   bool      // the facade DNS exchange resolved the MH's name
	DNSAddr ipv4.Addr // the resolved address (the home address)

	Status int    // HTTP status of the GET (0 on transport failure)
	BodyOK bool   // response body matched what the server wrote
	Err    string // transport error, empty on success

	// Requested vs delivered mode, measured from the mobile node's
	// per-mode packet counters over the HTTP exchange.
	EffectiveOut core.OutMode
	EffectiveIn  core.InMode
	Honored      bool // delivered == requested in both directions

	Packets int    // captured frames for the whole cell
	PcapSHA string // SHA-256 of the capture bytes
}

// httpGridCells measures all 16 cells on up to workers goroutines. Each
// cell owns a full scenario, driver and capture, so cells parallelize
// like any other trial and the assembled slice matches the serial run.
func httpGridCells(seed int64, workers int) []HTTPCell {
	combos := allGridCombos()
	return fanOut(workers, len(combos), func(i int) HTTPCell { return runHTTPGridCell(seed, combos[i]) })
}

func runHTTPGridCell(seed int64, combo core.Combo) HTTPCell {
	cell := HTTPCell{Combo: combo, Class: core.Classify(combo)}

	// Force the MH's outgoing mode for home-sourced traffic, exactly as
	// the UDP grid does (Out-DT needs no rule: care-of-sourced packets
	// go out plain by construction).
	sel := core.NewSelector(core.StartPessimistic)
	if combo.Out != core.OutDT {
		m := combo.Out
		sel.AddRule(core.Rule{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), ForceMode: &m})
	}
	aware := combo.In == core.InDE || combo.In == core.InDH
	s := Build(Options{
		Seed:         seed,
		Selector:     sel,
		CHAware:      aware,
		CHDecap:      true,
		WithServices: true,
		MetricsLabel: fmt.Sprintf("httpgrid/%s/%s", combo.Out, combo.In),
	})
	s.Net.Sim.Trace.Discard()
	careOf := s.Roam()

	// Same-segment correspondent for Row C, distant otherwise.
	ch, chC, chTCP := s.CHFar, s.CHFarC, s.CHFarTCP
	if combo.In == core.InDH {
		ch, chC, chTCP = s.CHNear, s.CHNearC, s.CHNearTCP
	}
	if aware {
		chC.LearnBinding(core.Binding{Home: s.MN.Home(), CareOf: careOf}, 0)
	}

	// Capture from here on: registration chatter is over, the
	// conversation is what the capture shows. The tap detaches at the
	// horizon via a timer scheduled before the driver takes over.
	w := pcap.NewWriter()
	pcap.Attach(s.Net.Sim, w)
	sim := s.Net.Sim
	s.Net.Sched().After(vtime.Duration(httpGridHorizon), func() { sim.SetTap(nil) })
	horizonWall := sock.EpochTime().Add(time.Duration(s.Net.Sim.Now().Add(vtime.Duration(httpGridHorizon))))

	d := sock.NewDriver(s.Net.Sched())
	mhNet := sock.NewNet(d, s.MHHost, s.MHTCP)
	chNet := sock.NewNet(d, ch, chTCP)
	d.Start()

	// The mobile host serves HTTP over the facade, unmodified stdlib.
	ln, err := mhNet.Listen("tcp", ":80")
	assert.NoError(err, "httpgrid: listen")
	body := fmt.Sprintf("mob4x4 %s/%s: served from the mobile host\n", combo.Out, combo.In)
	srv := &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		// Pin the Date header to the virtual wall clock: net/http stamps
		// it from the real clock otherwise, which would put
		// run-dependent bytes on the captured wire.
		rw.Header().Set("Date", d.WallNow().UTC().Format(http.TimeFormat))
		_, _ = io.WriteString(rw, body)
	})}
	go func() { _ = srv.Serve(ln) }()

	// DNS over the facade: the correspondent resolves the MH's published
	// name through a blocking PacketConn before dialing.
	pc, err := chNet.ListenPacket("udp", ":0")
	assert.NoError(err, "httpgrid: dns socket")
	q, err := dnssim.MarshalQuery(0x4d00|uint16(combo.Out)<<2|uint16(combo.In), httpGridName)
	assert.NoError(err, "httpgrid: marshal query")
	_, err = pc.WriteTo(q, sock.Addr{IP: s.DNSHost.FirstAddr(), Port: udp.PortDNS, Proto: "udp"})
	assert.NoError(err, "httpgrid: send query")
	_ = pc.SetReadDeadline(horizonWall) // bounded; never reached in practice
	buf := make([]byte, 512)
	if n, _, rerr := pc.ReadFrom(buf); rerr == nil {
		if _, name, recs, perr := dnssim.ParseResponse(buf[:n]); perr == nil && name == httpGridName {
			if a, _, ok := dnssim.BestAddr(recs); ok {
				cell.DNSOK, cell.DNSAddr = true, a
			}
		}
	}

	// The address the CH targets: what the DNS published (the home
	// address) — except in In-DT, where there is no Mobile IP at all and
	// the CH must know the temporary address out of band.
	target := s.MN.Home()
	if cell.DNSOK {
		target = cell.DNSAddr
	}
	if combo.In == core.InDT {
		target = careOf
	}

	// Mode accounting across the HTTP exchange. The counters live on the
	// event loop; Do gives a consistent read.
	reg := s.Net.Sim.Metrics
	readModes := func() (out, in [metrics.NumModes]uint64) {
		d.Do(func() {
			for i := 0; i < metrics.NumModes; i++ {
				out[i] = reg.OutPackets[i].Value()
				in[i] = reg.InPackets[i].Value()
			}
		})
		return out, in
	}
	outP0, inP0 := readModes()

	tr := &http.Transport{DialContext: chNet.DialContext}
	resp, err := (&http.Client{Transport: tr}).Get(fmt.Sprintf("http://%s/", target))
	if err != nil {
		cell.Err = err.Error()
	} else {
		cell.Status = resp.StatusCode
		got, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		cell.BodyOK = rerr == nil && string(got) == body
	}

	outP1, inP1 := readModes()
	dominant := func(p0, p1 [metrics.NumModes]uint64) int {
		k, max := 0, uint64(0)
		for i := range p1 {
			if delta := p1[i] - p0[i]; delta > max {
				max, k = delta, i
			}
		}
		return k
	}
	cell.EffectiveOut = core.OutMode(dominant(outP0, outP1))
	cell.EffectiveIn = core.InMode(dominant(inP0, inP1))
	cell.Honored = cell.EffectiveOut == combo.Out && cell.EffectiveIn == combo.In

	// Orderly close now, at the virtual instant the response finished:
	// the FIN exchange and TIME-WAIT land in the capture well before the
	// horizon.
	tr.CloseIdleConnections()

	// Hold the cell open to the fixed horizon (the deadline read wakes
	// exactly there), then tear down the world.
	_, _, _ = pc.ReadFrom(buf)
	_ = pc.Close()
	_ = srv.Close()
	d.Shutdown()

	cell.Packets = w.Packets()
	cell.PcapSHA = w.SHA256()
	registerCapture(fmt.Sprintf("httpgrid_%s_%s", combo.Out, combo.In), w)
	return cell
}

// HTTPGridTable renders the E16 table, one row per cell, capture hash
// included so stdout pins the captured bytes.
func HTTPGridTable(cells []HTTPCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E16 — HTTP + DNS over the socket facade, all 16 (Out,In) pairs\n")
	fmt.Fprintf(&b, "%-7s %-6s  %-4s %-5s %-4s  %-7s %-6s %-7s %5s  %s\n",
		"out", "in", "http", "body", "dns", "actOut", "actIn", "honored", "pkts", "capture sha256")
	for _, c := range cells {
		honored := "yes"
		if !c.Honored {
			honored = "no"
		}
		fmt.Fprintf(&b, "%-7s %-6s  %-4d %-5v %-4v  %-7s %-6s %-7s %5d  %s",
			c.Combo.Out, c.Combo.In, c.Status, c.BodyOK, c.DNSOK,
			c.EffectiveOut, c.EffectiveIn, honored, c.Packets, c.PcapSHA)
		if c.Err != "" {
			fmt.Fprintf(&b, "  err=%s", c.Err)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "actOut/actIn: the delivered modes. TCP keys both directions to one address\n")
	fmt.Fprintf(&b, "pair, so requested combinations that split the keys are overridden (§6).\n")
	return b.String()
}
