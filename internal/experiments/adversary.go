package experiments

import (
	"fmt"
	"strings"

	"mob4x4/internal/fleet"
)

// The adversary experiment (E15): hijack resistance under an attack
// storm. An authenticated fleet runs the full E14 handoff storm while
// scripted adversaries work it over — binding thieves forging
// registrations for victim nodes, a replayer re-emitting captured
// renewals promptly and late, rogue agents relaying tampered
// lifetimes. A clean twin (same fleet, storm disarmed) supplies the
// baseline. The claims E15 asserts, per seed:
//
//   - no binding ever pointed at an attacker care-of address;
//   - every forged, replayed and tampered message is accounted to
//     exactly one auth reject cause (auth_bad_mac / auth_replay /
//     auth_stale_id);
//   - legitimate handoff latency quantiles under attack stay within
//     the benchgate envelope (25%) of the clean twin's;
//   - byte-identical output across runs, -parallel and -shards.

// AdversarySpec selects the fleet's shape, exactly like FleetSpec (the
// adversarial schedule rides on fleet.AttackOptions defaults).
type AdversarySpec = FleetSpec

// envelopePct is the allowed quantile degradation under attack,
// mirroring the benchmark gate's 25% envelope.
const envelopePct = 25

// AdversaryResult pairs one attacked trial with its clean twin.
type AdversaryResult struct {
	Attack fleet.Result // authenticated fleet under the storm
	Clean  fleet.Result // same fleet and seed, storm disarmed

	// Violations folds both trials' invariant violations with the
	// attack-vs-clean envelope check; empty means E15 holds.
	Violations []string
}

// RunAdversary runs one E15 trial: the attacked fleet and its clean
// twin. The result is a pure function of (seed, spec).
func RunAdversary(seed int64, spec AdversarySpec) AdversaryResult {
	base := fleet.Options{
		Seed:    seed,
		Nodes:   spec.Nodes,
		Cells:   spec.Cells,
		Model:   spec.Model,
		Workers: spec.Shards,
		Auth:    true,
	}
	attacked := base
	attacked.Attack.Enabled = true
	res := AdversaryResult{
		Attack: fleet.New(attacked).Run(),
		Clean:  fleet.New(base).Run(),
	}
	res.Violations = append(res.Violations, res.Attack.Violations...)
	for _, v := range res.Clean.Violations {
		res.Violations = append(res.Violations, "clean twin: "+v)
	}
	res.Violations = append(res.Violations, envelope(&res.Attack, &res.Clean)...)
	return res
}

// envelope checks the attacked trial's handoff quantiles against the
// clean twin's, allowing envelopePct degradation.
func envelope(attack, clean *fleet.Result) []string {
	var v []string
	check := func(name string, a, c int64) {
		// a <= c * (1 + pct/100), in integer arithmetic.
		if a*100 > c*(100+envelopePct) {
			v = append(v, fmt.Sprintf("handoff %s under attack %.1fms exceeds clean %.1fms by more than %d%%",
				name, float64(a)/1e6, float64(c)/1e6, envelopePct))
		}
	}
	check("p50", attack.HandoffP50, clean.HandoffP50)
	check("p95", attack.HandoffP95, clean.HandoffP95)
	check("p99", attack.HandoffP99, clean.HandoffP99)
	return v
}

// AdversaryTable renders E15 trials: one attack-accounting line per
// trial, the attack-vs-clean handoff quantiles, the legitimate fleet's
// end state, and (single-trial runs only) the attacked run's fault log
// with the adversarial plan inline.
func AdversaryTable(rows []AdversaryResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E15 — adversarial storm (hijack resistance)\n")
	fmt.Fprintf(&b, "  %-6s %6s %6s %9s %7s %9s %9s %8s %8s %7s %6s %5s\n",
		"seed", "nodes", "cells", "model", "forged", "replayed", "tampered", "hijacks", "bad_mac", "replay", "stale", "viol")
	for i := range rows {
		r := &rows[i]
		a := &r.Attack
		fmt.Fprintf(&b, "  %-6d %6d %6d %9s %7d %9d %9d %8d %8d %7d %6d %5d\n",
			a.Seed, a.Nodes, a.Cells, a.Model, a.Forged, a.Replayed, a.Tampered,
			a.Hijacks, a.AuthBadMACDrops, a.AuthReplayDrops, a.AuthStaleDrops, len(r.Violations))
	}
	for i := range rows {
		r := &rows[i]
		a, c := &r.Attack, &r.Clean
		fmt.Fprintf(&b, "  seed %d handoff ms attack/clean: p50 %.1f/%.1f  p95 %.1f/%.1f  p99 %.1f/%.1f (envelope %d%%)\n",
			a.Seed,
			float64(a.HandoffP50)/1e6, float64(c.HandoffP50)/1e6,
			float64(a.HandoffP95)/1e6, float64(c.HandoffP95)/1e6,
			float64(a.HandoffP99)/1e6, float64(c.HandoffP99)/1e6, envelopePct)
		fmt.Fprintf(&b, "  seed %d legit: registered %d/%d  bindings %d  handoffs %d  renewals %d  fails %d  pending %d\n",
			a.Seed, a.RegisteredAtEnd, a.Nodes, a.BindingsAtEnd, a.Handoffs,
			a.Renewals, a.RegistrationFails, a.PendingAfterDrain)
	}
	for i := range rows {
		r := &rows[i]
		for _, viol := range r.Violations {
			fmt.Fprintf(&b, "  seed %d VIOLATION: %s\n", r.Attack.Seed, viol)
		}
	}
	if len(rows) == 1 {
		fmt.Fprintf(&b, "  fault log (vtime ns, attacked run):\n")
		for _, line := range rows[0].Attack.FaultLog {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}
