package experiments

import (
	"fmt"
	"strings"

	"mob4x4/internal/fleet"
)

// The route-optimization experiment (E17): the tier of Section 5 — the
// paper's answer to triangle routing — measured piece by piece against a
// common baseline. Six trials share one seed, schedule and topology
// (foreign agents off, so every configuration moves the same nodes the
// same way):
//
//   - baseline:  notices only; the aware correspondent relearns
//     bindings from the home agent's ICMP notices.
//   - push:      MN-push binding updates (routeopt.Updater).
//   - ha-push:   HA-push alternative (routeopt.HAUpdater).
//   - compact:   compact encapsulation on every tunnel endpoint.
//   - hier:      hierarchical local registration behind the regional
//     gateway agent.
//   - fallback:  MN-push with every update request blackholed — the
//     hard-fallback proof.
//
// The claims E17 asserts, per seed:
//
//   - every trial's own fleet invariants hold (bindings re-form,
//     conversations survive, drops accounted);
//   - push shrinks the correspondent's stale-binding recovery tail
//     (p95) below the notice-only baseline's;
//   - compact carries the same storm with fewer bytes on the home
//     uplink than IPIP;
//   - hier collapses the handoff tail (p95) and cuts home-uplink
//     bytes — intra-metro moves never queue on the uplink;
//   - fallback loses every update yet keeps every conversation class
//     alive on In-IE triangle routing (acks and learns exactly zero);
//   - byte-identical output across runs, -parallel and -shards.

// RouteOptSpec selects the fleet's shape, exactly like FleetSpec (the
// tier's knobs ride on fleet.RouteOptOptions defaults).
type RouteOptSpec = FleetSpec

// RouteOptTrial is one configuration's outcome.
type RouteOptTrial struct {
	Name string
	fleet.Result
}

// RouteOptResult is one E17 run: the six trials plus the cross-trial
// claims, folded into Violations (empty means E17 holds).
type RouteOptResult struct {
	Trials     []RouteOptTrial
	Violations []string
}

// routeOptConfigs returns the trial matrix in render order.
func routeOptConfigs() []struct {
	name string
	ro   fleet.RouteOptOptions
} {
	return []struct {
		name string
		ro   fleet.RouteOptOptions
	}{
		{"baseline", fleet.RouteOptOptions{Enabled: true}},
		{"push", fleet.RouteOptOptions{PushUpdates: true}},
		{"ha-push", fleet.RouteOptOptions{PushFromHA: true}},
		{"compact", fleet.RouteOptOptions{Compact: true}},
		{"hier", fleet.RouteOptOptions{Hierarchical: true}},
		{"fallback", fleet.RouteOptOptions{PushUpdates: true, BlackholeUpdates: true}},
	}
}

// RunRouteOpt runs one E17 set: all six configurations at one seed, up
// to workers of them concurrently (they are independent fleets). The
// result is a pure function of (seed, spec).
func RunRouteOpt(seed int64, workers int, spec RouteOptSpec) RouteOptResult {
	configs := routeOptConfigs()
	var res RouteOptResult
	res.Trials = fanOut(workers, len(configs), func(i int) RouteOptTrial {
		o := fleet.Options{
			Seed:    seed,
			Nodes:   spec.Nodes,
			Cells:   spec.Cells,
			Model:   spec.Model,
			Workers: spec.Shards,
			// Foreign agents off everywhere: Compact forces it, and the
			// other trials must run the identical movement schedule to
			// be comparable.
			FAEvery:  -1,
			RouteOpt: configs[i].ro,
		}
		return RouteOptTrial{Name: configs[i].name, Result: fleet.New(o).Run()}
	})
	trial := func(name string) *fleet.Result {
		for i := range res.Trials {
			if res.Trials[i].Name == name {
				return &res.Trials[i].Result
			}
		}
		return nil
	}
	bad := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	for i := range res.Trials {
		t := &res.Trials[i]
		for _, v := range t.Result.Violations {
			bad("%s: %s", t.Name, v)
		}
	}
	base, push, compact, hier, fb := trial("baseline"), trial("push"),
		trial("compact"), trial("hier"), trial("fallback")
	if push.RecoverySamples == 0 || base.RecoverySamples == 0 {
		bad("recovery histogram empty: baseline=%d push=%d samples",
			base.RecoverySamples, push.RecoverySamples)
	} else if push.RecoveryP95 >= base.RecoveryP95 {
		bad("pushed updates did not shrink the correspondent recovery tail: p95 %.1fms (push) >= %.1fms (baseline)",
			float64(push.RecoveryP95)/1e6, float64(base.RecoveryP95)/1e6)
	}
	if compact.UplinkBytes >= base.UplinkBytes {
		bad("compact encapsulation did not reduce home-uplink bytes: %d >= %d (ipip)",
			compact.UplinkBytes, base.UplinkBytes)
	}
	// The hierarchical claim is the tail, not the median: the regional
	// round trip can be a few ms longer than an uncontended home path,
	// but the home uplink's queueing tail — where storm handoffs pile
	// up — vanishes when intra-metro moves never touch it.
	if hier.HandoffP95 >= base.HandoffP95 {
		bad("hierarchical registration did not collapse the handoff tail: p95 %.1fms >= %.1fms",
			float64(hier.HandoffP95)/1e6, float64(base.HandoffP95)/1e6)
	}
	if hier.UplinkBytes >= base.UplinkBytes {
		bad("hierarchical registration did not reduce home-uplink bytes: %d >= %d",
			hier.UplinkBytes, base.UplinkBytes)
	}
	if fb.PushAcks != 0 || fb.CHUpdatesAccepted != 0 {
		bad("fallback trial: blackholed updates got through (acks=%d accepted=%d)",
			fb.PushAcks, fb.CHUpdatesAccepted)
	}
	return res
}

// RouteOptTable renders E17: one line per configuration with the
// handoff and recovery quantiles, bytes on the home uplink, and the
// push/regional accounting — the with/without overhead table of the
// tier.
func RouteOptTable(rows []RouteOptResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E17 — route-optimization tier (pushed updates, compact encap, hierarchical registration)\n")
	for i := range rows {
		r := &rows[i]
		if len(r.Trials) == 0 {
			continue
		}
		first := &r.Trials[0].Result
		fmt.Fprintf(&b, "  seed %d: %d nodes, %d cells, %s model\n",
			first.Seed, first.Nodes, first.Cells, first.Model)
		fmt.Fprintf(&b, "  %-9s %9s %9s %9s %9s %9s %8s %6s %6s %8s %8s %7s %5s\n",
			"config", "p50(ms)", "p95(ms)", "p99(ms)", "rec50", "rec95",
			"uplinkB", "sent", "acks", "abandon", "regregs", "relay", "viol")
		for j := range r.Trials {
			t := &r.Trials[j]
			fmt.Fprintf(&b, "  %-9s %9.1f %9.1f %9.1f %9.1f %9.1f %8d %6d %6d %8d %8d %7d %5d\n",
				t.Name,
				float64(t.HandoffP50)/1e6, float64(t.HandoffP95)/1e6, float64(t.HandoffP99)/1e6,
				float64(t.RecoveryP50)/1e6, float64(t.RecoveryP95)/1e6,
				t.UplinkBytes, t.PushUpdatesSent, t.PushAcks, t.PushAbandons,
				t.RegionalRegistrations, t.GFADownRelayed+t.GFAUpRelayed,
				len(t.Result.Violations))
		}
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  seed %d VIOLATION: %s\n", first.Seed, v)
		}
	}
	return b.String()
}
