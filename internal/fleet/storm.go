package fleet

import (
	"fmt"

	"mob4x4/internal/core"
	"mob4x4/internal/faults"
	"mob4x4/internal/metrics"
	"mob4x4/internal/routeopt"
	"mob4x4/internal/vtime"
)

// Result is one fleet trial's deterministic outcome: a pure function of
// the Options (see the package determinism contract).
type Result struct {
	Seed  int64
	Nodes int
	Cells int
	Model string

	// Handoff machinery.
	Moves    uint64 // attach/reattach events commanded
	Handoffs uint64 // completed (registration re-confirmed) handoffs
	// Handoff latency quantiles, nanoseconds of vtime from attachment
	// to the accepted registration reply.
	HandoffP50 int64
	HandoffP95 int64
	HandoffP99 int64

	// Traffic mix: the joint (Out, In) matrix of workload conversations
	// (rows = Out mode of the request, columns = In mode of its reply),
	// plus the marginal per-mode totals from the nodes' own counters.
	ModeMix   [core.NumOutModes][core.NumInModes]uint64
	OutByMode [core.NumOutModes]uint64
	InByMode  [core.NumInModes]uint64

	// Registration machinery totals across the fleet.
	Registrations     uint64
	Renewals          uint64
	RegistrationFails uint64
	RecoveryProbes    uint64
	Expiries          uint64 // bindings the home agent timed out

	// End-of-run state.
	RegisteredAtEnd int // nodes holding a confirmed binding at EndAt
	BindingsAtEnd   int // home agent's table size at EndAt
	// Link-layer state at EndAt, after Helmy's per-node state analysis:
	// live ARP cache entries over every host in the topology, and over
	// the mobile nodes alone. Under RFC 826's merge rule a node caches
	// the neighbours it talks to, not every host it overhears, so the
	// per-node figure stays flat as cells grow denser.
	ARPEntries     int
	NodeARPEntries int

	// FacadeEchoes counts conversations the far facade echo server
	// answered: the clsFacade workload (both ends on internal/sock core
	// sockets) completing round trips inside the sharded engine.
	FacadeEchoes uint64

	// Drop accounting, from the shared drop-cause vector.
	DownDrops   uint64 // partition-window losses
	FilterDrops uint64 // boundary-filter losses
	NoDestDrops uint64 // frames to detached radios

	// Adversarial storm accounting (zero unless Opts.Attack.Enabled).
	// The Denied* receipts are reply codes tallied at the attackers'
	// own sockets, so attack attribution stays exact even when
	// legitimate traffic earns a (correct) reject of its own — e.g. a
	// reordered in-flight registration refused as stale.
	Forged         uint64 // registrations forged by binding thieves
	Replayed       uint64 // captured registrations re-emitted by the replayer
	Tampered       uint64 // captures re-emitted with inflated lifetimes
	Hijacks        uint64 // bindings that ever pointed at an attacker care-of address
	AttackAccepted uint64 // attack messages the home agent accepted (must stay 0)
	DeniedBadMAC   uint64 // CodeDeniedAuthFailed receipts at the attackers
	DeniedReplay   uint64 // CodeDeniedReplay receipts
	DeniedStale    uint64 // CodeDeniedStaleID receipts

	// Route-optimization tier accounting (zero unless Opts.RouteOpt is
	// engaged). Push* sums the MN-push and HA-push engines; CHUpdates*
	// is the aware correspondent's receiver; Recovery* quantifies how
	// long the aware correspondent routed against stale binding
	// information after each real movement (nanoseconds of vtime).
	PushUpdatesSent   uint64
	PushAcks          uint64
	PushNacks         uint64
	PushRetransmits   uint64
	PushAbandons      uint64
	CHUpdatesAccepted uint64
	CHUpdatesRefused  uint64
	RecoverySamples   uint64
	RecoveryP50       int64
	RecoveryP95       int64

	// Hierarchical tier accounting.
	RegionalRegistrations uint64 // gateway-accepted regional registrations
	RegionalDenied        uint64
	LocalRegFails         uint64 // registrar-side denials + exhausted retries
	GFADownRelayed        uint64 // HA→gateway tunnels re-tunneled to a cell
	GFAUpRelayed          uint64 // reverse tunnels relayed on to the HA
	GFANoBinding          uint64

	// UplinkBytes is the byte count carried by the home uplink segment
	// — the link the hierarchical tier keeps intra-metro handoffs off.
	UplinkBytes uint64
	// BlackholeDrops counts update requests eaten by the fault-injected
	// blackhole (RouteOpt.BlackholeUpdates).
	BlackholeDrops uint64

	// Auth rejects from the shared drop-cause vector: the agents' view.
	// Superset of the attacker receipts when legitimate traffic was
	// reordered in flight.
	AuthBadMACDrops uint64 // auth_bad_mac rejects
	AuthReplayDrops uint64 // auth_replay rejects
	AuthStaleDrops  uint64 // auth_stale_id rejects

	FaultLog          []string
	PendingAfterDrain int
	Metrics           metrics.Snapshot
	Violations        []string
}

// ARPEntriesPerNode is the mean ARP cache size of a mobile node at EndAt.
func (r *Result) ARPEntriesPerNode() float64 {
	if r.Nodes == 0 {
		return 0
	}
	return float64(r.NodeARPEntries) / float64(r.Nodes)
}

// Run executes the handoff-storm schedule and returns the trial result:
//
//	[0, PlaceWindow)          staggered initial placement
//	[..., PartitionAt)        steady roaming + workload
//	[PartitionAt, +For)       home uplink dark: registrations die
//	heal                      thundering-herd re-registration
//	[MassMoveAt, +Window)     every node commanded to move at once
//	[..., EndAt)              cooldown; all bindings must re-form
//
// followed by measurement, cleanup and a full drain.
func (f *Fleet) Run() Result {
	opts := f.Opts
	sched := f.Net.Sched() // hub shard: placement and faults start there
	t0 := f.Net.Sim.Now()
	at := func(d vtime.Duration) vtime.Time { return t0.Add(d) }
	inj := faults.NewInjector(f.Net.Sim)

	// Placement: spread initial attachments across the window, each
	// jittered a little by the node's own RNG. Placement events run on
	// the hub shard, where every node starts; the hop migrates it out.
	// (The ticker starts on migration arrival, like after any crossing.)
	inj.At(at(0), fmt.Sprintf("placement: %d nodes over %v", len(f.Nodes), opts.PlaceWindow), nil)
	for _, n := range f.Nodes {
		n := n
		off := vtime.Duration(int64(opts.PlaceWindow) * int64(n.Idx) / int64(len(f.Nodes)))
		off += vtime.Duration(n.rng.Int63n(int64(20 * millisecond)))
		sched.At(at(off), func() { f.hop(n) })
	}

	// The partition: home network unreachable mid-churn. The uplink is a
	// hub-internal segment, so the fault runs entirely on the hub shard.
	inj.CutLink(at(opts.PartitionAt), f.HomeUplink, opts.PartitionFor)

	// The adversarial storm, when armed: forge/capture/replay windows
	// placed around the partition, never inside it.
	if f.attack != nil {
		f.scheduleAttack(inj, at)
	}

	// The mass-move storm: every node commanded to move inside the
	// window. The jitter is drawn per node now (setup, index order) so
	// the command times are deterministic; the command timer itself
	// travels with the node across migrations (see armCmd).
	inj.At(at(opts.MassMoveAt), fmt.Sprintf("mass-move storm: %d nodes over %v", len(f.Nodes), opts.MassMoveWindow), nil)
	for _, n := range f.Nodes {
		j := vtime.Duration(n.rng.Int63n(int64(opts.MassMoveWindow)))
		n.cmdAt = at(opts.MassMoveAt).Add(j)
	}

	// Quiesce: movement stops a little before the end so the final
	// handoffs can complete and the end-of-run binding census is
	// well-defined (workload traffic keeps flowing). The flags are
	// per-region (each shard reads only its own), so the flip is an event
	// on every shard; the injector lines just log the schedule.
	inj.At(at(opts.EndAt-opts.QuiesceFor), "movement quiesced", nil)
	inj.At(at(opts.EndAt), "measurement ends", nil)
	for r, sim := range f.Net.Regions() {
		rs := f.rs[r]
		sim.Sched.At(at(opts.EndAt-opts.QuiesceFor), func() { rs.movementOn = false })
		sim.Sched.At(at(opts.EndAt), func() { rs.trafficOn = false })
	}
	f.group.RunUntil(at(opts.EndAt), opts.Workers)

	// --- Measurement, before any cleanup disturbs the state. The
	// workers have joined, so reading across regions is safe; per-region
	// registries and accumulators merge into one cluster-wide view
	// (histograms merge bucket-exactly, so the quantiles equal a
	// single-registry run's). ---
	res := Result{
		Seed:  opts.Seed,
		Nodes: opts.Nodes,
		Cells: opts.Cells,
		Model: opts.Model,
	}
	merged := f.mergedMetrics()
	hist := merged.Histogram("fleet/handoff_ns", handoffBuckets())
	res.HandoffP50 = hist.Quantile(0.50)
	res.HandoffP95 = hist.Quantile(0.95)
	res.HandoffP99 = hist.Quantile(0.99)
	for _, rs := range f.rs {
		res.Handoffs += rs.handoffs
		for o := 0; o < core.NumOutModes; o++ {
			for i := 0; i < core.NumInModes; i++ {
				res.ModeMix[o][i] += rs.modeMix[o][i]
			}
		}
	}
	for _, n := range f.Nodes {
		st := &n.MN.Stats
		res.Moves += st.Moves
		res.Registrations += st.Registrations
		res.Renewals += st.Renewals
		res.RegistrationFails += st.RegistrationFails
		res.RecoveryProbes += st.RecoveryProbes
		for m := 0; m < core.NumOutModes; m++ {
			res.OutByMode[m] += st.OutByMode[m]
		}
		for m := 0; m < core.NumInModes; m++ {
			res.InByMode[m] += st.InByMode[m]
		}
		if n.MN.Registered() {
			res.RegisteredAtEnd++
		}
		res.NodeARPEntries += n.Host.ARPEntries()
	}
	res.ARPEntries = f.Net.ARPEntries()
	if opts.RouteOpt.engaged() {
		tallyPush := func(st *routeopt.PushStats) {
			res.PushUpdatesSent += st.UpdatesSent
			res.PushAcks += st.Acks
			res.PushNacks += st.Nacks
			res.PushRetransmits += st.Retransmits
			res.PushAbandons += st.Abandons
		}
		for _, n := range f.Nodes {
			if n.up != nil {
				tallyPush(&n.up.Stats)
			}
			if n.lr != nil {
				res.LocalRegFails += n.lr.Stats.Fails
			}
		}
		if f.hup != nil {
			tallyPush(&f.hup.Stats)
		}
		res.CHUpdatesAccepted = f.recvAware.Stats.Accepted
		res.CHUpdatesRefused = f.recvAware.Stats.Refused
		rhist := merged.Histogram("routeopt/recovery_ns", recoveryBuckets())
		res.RecoverySamples = rhist.Count()
		res.RecoveryP50 = rhist.Quantile(0.50)
		res.RecoveryP95 = rhist.Quantile(0.95)
		if f.GFA != nil {
			res.RegionalRegistrations = f.GFA.Stats.Registrations
			res.RegionalDenied = f.GFA.Stats.Denied
			res.GFADownRelayed = f.GFA.Stats.DownRelayed
			res.GFAUpRelayed = f.GFA.Stats.UpRelayed
			res.GFANoBinding = f.GFA.Stats.NoBinding
		}
		res.BlackholeDrops = merged.DropCount(metrics.DropBlackhole)
	}
	res.UplinkBytes = f.HomeUplink.BytesCarried
	res.Expiries = f.HA.Stats.Expiries
	res.BindingsAtEnd = f.HA.Bindings()
	res.FacadeEchoes = f.facadeEchoes
	res.DownDrops = merged.DropCount(metrics.DropDown)
	res.FilterDrops = merged.DropCount(metrics.DropFilter)
	res.AuthBadMACDrops = merged.DropCount(metrics.DropAuthBadMAC)
	res.AuthReplayDrops = merged.DropCount(metrics.DropAuthReplay)
	res.AuthStaleDrops = merged.DropCount(metrics.DropAuthStaleID)
	if f.attack != nil {
		tally := func(d *faults.Denials) {
			res.AttackAccepted += d.Accepted
			res.DeniedBadMAC += d.BadMAC
			res.DeniedReplay += d.Replay
			res.DeniedStale += d.Stale
		}
		for _, th := range f.attack.thieves {
			res.Forged += th.Forged
			tally(&th.Denials)
		}
		for _, r := range f.attack.replayers {
			res.Replayed += r.Replayed
			tally(&r.Denials)
		}
		for _, rg := range f.attack.rogues {
			res.Tampered += rg.Tampered
			tally(&rg.Denials)
		}
		res.Hijacks = f.attack.hijacks
	}
	res.FaultLog = inj.Log()

	// --- Cleanup: everything the run started must wind down.
	// Single-threaded across all regions (workers joined). ---
	for _, n := range f.Nodes {
		n.stopped = true
		n.moveTimer.Stop()
		n.tickTimer.Stop()
		n.cmdTimer.Stop()
		n.MN.Detach() // also cancels the registration timers
		n.sock.Close()
		if n.fconn != nil {
			n.fconn.CloseCore()
		}
		if n.up != nil {
			n.up.Close()
		}
		if n.lr != nil {
			n.lr.Close()
		}
	}
	for _, c := range f.Cells {
		if c.FA != nil {
			c.FA.Crash() // drops the visitor table and its expiry timers
		}
		c.kioskCancel()
		c.kioskSrv.Close()
	}
	f.probeSrv.Close()
	f.facadeSrv.CloseCore()
	if f.hup != nil {
		f.hup.Close()
	}
	if f.recvAware != nil {
		f.recvAware.Close()
	}
	if f.GFA != nil {
		f.GFA.Close()
	}
	f.closeAttackers()
	for _, cancel := range f.cancels {
		cancel()
	}
	// The agent last: Crash resets the binding table and disarms the
	// expiry wheel together (the pairing the wheel's staleness contract
	// requires), leaving zero pending expiry timers.
	f.HA.Crash()
	f.Net.Run() // drain remaining one-shot timers (ARP, binding expiry)
	res.PendingAfterDrain = f.group.Pending()
	// Re-merge after the drain: the drain itself drops frames to crashed
	// agents and detached radios, and those must appear in the exported
	// snapshot and the no-destination total.
	drained := f.mergedMetrics()
	res.NoDestDrops = drained.DropCount(metrics.DropNoDest)
	res.Metrics = drained.Snapshot()

	res.Violations = f.invariants(&res)
	return res
}

// mergedMetrics folds every region registry into a fresh one. Quiescent
// callers only (build or post-join).
func (f *Fleet) mergedMetrics() *metrics.Registry {
	merged := metrics.NewRegistry()
	for _, sim := range f.Net.Regions() {
		merged.Merge(sim.Metrics)
	}
	return merged
}

// invariants checks a finished trial against the fleet contract.
func (f *Fleet) invariants(r *Result) []string {
	var v []string
	bad := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }
	if f.Opts.Attack.Enabled && !f.Opts.Auth {
		// Negative control: an unauthenticated fleet under the same
		// storm is EXPECTED to lose bindings — that it does is itself
		// the invariant. The re-formation checks below would (rightly)
		// fail here, so only the engine contract still applies.
		if r.Hijacks == 0 {
			bad("attack storm against an unauthenticated fleet stole no binding")
		}
		if r.PendingAfterDrain != 0 {
			bad("%d scheduler events leaked after cleanup", r.PendingAfterDrain)
		}
		return v
	}
	if f.Opts.Attack.Enabled {
		if r.Hijacks != 0 {
			bad("%d bindings pointed at an attacker care-of address", r.Hijacks)
		}
		if r.AttackAccepted != 0 {
			bad("home agent accepted %d attack messages", r.AttackAccepted)
		}
		if r.Forged == 0 || r.Replayed == 0 || r.Tampered == 0 {
			bad("attack storm idle: forged=%d replayed=%d tampered=%d",
				r.Forged, r.Replayed, r.Tampered)
		}
		// Exact attribution, checked at the attackers' own sockets:
		// every attack message drew a denial with the cause its kind
		// predicts. Forgeries and tampered relays carry unverifiable
		// MACs; re-emitted genuine bytes die on the identification
		// window, promptly as duplicates, late as stale.
		if r.DeniedBadMAC != r.Forged+r.Tampered {
			bad("attackers received %d bad-MAC denials for %d forged + %d tampered messages",
				r.DeniedBadMAC, r.Forged, r.Tampered)
		}
		if r.DeniedReplay+r.DeniedStale != r.Replayed {
			bad("replayer received %d replay + %d stale denials for %d replayed messages",
				r.DeniedReplay, r.DeniedStale, r.Replayed)
		}
		if r.DeniedReplay == 0 {
			bad("prompt replays drew no duplicate-identification denials")
		}
		if r.DeniedStale == 0 {
			bad("late replays drew no stale-identification denials")
		}
		// The registry tells the same story: every receipt has its drop,
		// with equality except where legitimate reordering adds rejects
		// of its own (possible for replay/stale, impossible for MAC
		// failures — honest parties always sign correctly).
		if r.AuthBadMACDrops != r.DeniedBadMAC {
			bad("auth_bad_mac drops %d != %d bad-MAC denials received", r.AuthBadMACDrops, r.DeniedBadMAC)
		}
		if r.AuthReplayDrops < r.DeniedReplay || r.AuthStaleDrops < r.DeniedStale {
			bad("registry rejects (replay=%d stale=%d) below attacker receipts (replay=%d stale=%d)",
				r.AuthReplayDrops, r.AuthStaleDrops, r.DeniedReplay, r.DeniedStale)
		}
	} else if f.Opts.Auth {
		// Clean authenticated run: legitimate traffic must never fail a
		// MAC check or duplicate an identification. Stale rejects are
		// permitted — a reordered in-flight registration is rightly
		// refused rather than rolled back onto a stale care-of address.
		if r.AuthBadMACDrops != 0 || r.AuthReplayDrops != 0 {
			bad("legitimate traffic tripped auth rejects: bad_mac=%d replay=%d",
				r.AuthBadMACDrops, r.AuthReplayDrops)
		}
	}
	ro := f.Opts.RouteOpt
	pushing := ro.PushUpdates || ro.PushFromHA
	if pushing && ro.BlackholeUpdates {
		// The fallback proof: with every update request eaten, the push
		// tier must fail hard — retries exhausted, nothing acked,
		// nothing learned — while the conversation-survival checks
		// below still hold via In-IE triangle routing.
		if r.PushAcks != 0 || r.CHUpdatesAccepted != 0 {
			bad("blackholed binding updates got through: acks=%d accepted=%d",
				r.PushAcks, r.CHUpdatesAccepted)
		}
		if r.PushUpdatesSent == 0 || r.PushAbandons == 0 {
			bad("blackholed push tier idle: sent=%d abandons=%d",
				r.PushUpdatesSent, r.PushAbandons)
		}
		if r.BlackholeDrops == 0 {
			bad("blackhole armed but ate no update request")
		}
	} else if pushing && !(ro.PushFromHA && !ro.PushUpdates && ro.Hierarchical) {
		// (HA-push under the hierarchical tier is degenerate — the home
		// agent sees one stable address per node and never pushes — so
		// the liveness check skips that combination.)
		if r.PushUpdatesSent == 0 {
			bad("push tier enabled but no update was ever sent")
		}
		if r.PushAcks == 0 {
			bad("no push was ever acknowledged")
		}
	}
	if ro.Hierarchical {
		if r.RegionalRegistrations == 0 {
			bad("hierarchical tier enabled but the gateway accepted no registration")
		}
		if r.GFADownRelayed == 0 {
			bad("gateway never re-tunneled home-agent traffic to a cell")
		}
	}
	if r.RegisteredAtEnd != r.Nodes {
		bad("only %d/%d nodes hold a confirmed binding at end of run", r.RegisteredAtEnd, r.Nodes)
	}
	if r.BindingsAtEnd != r.Nodes {
		bad("home agent holds %d bindings at end, want %d (every node away)", r.BindingsAtEnd, r.Nodes)
	}
	if r.Handoffs == 0 {
		bad("no handoff ever completed")
	}
	if r.Handoffs > r.Moves {
		bad("%d handoffs completed but only %d moves commanded", r.Handoffs, r.Moves)
	}
	if r.DownDrops == 0 {
		bad("partition window dropped nothing; the storm never bit")
	}
	if f.Opts.Nodes >= numClasses && r.FacadeEchoes == 0 {
		bad("facade workload class completed no conversations")
	}
	expectFilterDrops := false
	for _, rs := range f.rs {
		expectFilterDrops = expectFilterDrops || rs.expectFilterDrops
	}
	if expectFilterDrops && r.FilterDrops == 0 {
		bad("home-sourced traffic left a filtered cell but the boundary filter dropped nothing")
	}
	var mixTotal, inTotal uint64
	for _, row := range r.ModeMix {
		for _, c := range row {
			mixTotal += c
		}
	}
	for _, c := range r.InByMode {
		inTotal += c
	}
	if mixTotal > inTotal {
		bad("mode-mix matrix attributes %d replies but only %d packets arrived", mixTotal, inTotal)
	}
	if r.PendingAfterDrain != 0 {
		bad("%d scheduler events leaked after cleanup", r.PendingAfterDrain)
	}
	return v
}
