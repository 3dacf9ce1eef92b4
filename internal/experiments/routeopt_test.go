package experiments

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The E17 differential fixtures: the route-optimization report (six
// configurations off one seed and schedule) must be byte-identical
// run-to-run and across any -parallel worker count, and every
// cross-configuration claim must hold at CI size.

var routeOptTestSpec = RouteOptSpec{Nodes: 24, Cells: 4}

func TestRouteOptReportParallelIdentical(t *testing.T) {
	trial := func(seed int64) RouteOptResult { return RunRouteOpt(seed, 1, routeOptTestSpec) }
	serial := eachTrial(Config{Seed: 31, Trials: 2, Parallel: 1}, trial)
	want := RouteOptTable(serial)
	rows := eachTrial(Config{Seed: 31, Trials: 2, Parallel: 4}, trial)
	if got := RouteOptTable(rows); got != want {
		t.Errorf("RouteOptTable differs between 1 and 4 workers:\n--- serial ---\n%s\n--- 4 workers ---\n%s",
			want, got)
	}
	for i := range rows {
		for j := range rows[i].Trials {
			a := string(serial[i].Trials[j].Metrics.JSON())
			b := string(rows[i].Trials[j].Metrics.JSON())
			if a != b {
				t.Errorf("set %d trial %s metrics snapshot differs at 4 workers",
					i, rows[i].Trials[j].Name)
			}
		}
	}
}

func TestRouteOptRepeatSameSeedIdentical(t *testing.T) {
	a := RunRouteOpt(47, 1, routeOptTestSpec)
	b := RunRouteOpt(47, 2, routeOptTestSpec)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed route-opt sets diverged across worker counts:\n%+v\nvs\n%+v", a, b)
	}
}

func TestRouteOptTableReportsViolations(t *testing.T) {
	r := RunRouteOpt(47, 2, routeOptTestSpec)
	if len(r.Violations) != 0 {
		t.Fatalf("healthy seed produced violations: %v", r.Violations)
	}
	r.Violations = append(r.Violations, "synthetic violation for rendering")
	out := RouteOptTable([]RouteOptResult{r})
	if want := "VIOLATION: synthetic violation for rendering"; !strings.Contains(out, want) {
		t.Errorf("RouteOptTable output missing %q:\n%s", want, out)
	}
	for _, name := range []string{"baseline", "push", "ha-push", "compact", "hier", "fallback"} {
		if !strings.Contains(out, name) {
			t.Errorf("RouteOptTable output missing the %q row:\n%s", name, out)
		}
	}
}

// routeOptSeed lets CI reproduce a failing smoke: RO_SEED=n make routeopt-smoke.
func routeOptSeed(t *testing.T) int64 {
	if s := os.Getenv("RO_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad RO_SEED %q: %v", s, err)
		}
		return v
	}
	return 1
}

// TestRouteOptSmoke is the CI route-optimization soak: the six-way
// comparison at one seed, run with -race, must complete with every
// per-trial invariant and cross-trial claim intact — push shrinks the
// recovery tail, compact shrinks uplink bytes, hier shrinks the median
// handoff, and the blackholed fallback loses no conversation.
func TestRouteOptSmoke(t *testing.T) {
	seed := routeOptSeed(t)
	r := RunRouteOpt(seed, 4, routeOptTestSpec)
	for _, v := range r.Violations {
		t.Errorf("seed %d: %s (reproduce: RO_SEED=%d make routeopt-smoke)", seed, v, seed)
	}
	for i := range r.Trials {
		tr := &r.Trials[i]
		if tr.Handoffs == 0 {
			t.Errorf("seed %d: %s trial moved nothing", seed, tr.Name)
		}
	}
}
