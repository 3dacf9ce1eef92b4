package experiments

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The E14 differential fixtures: the fleet report and its metrics
// snapshot must be byte-identical run-to-run with the same seed and
// across any -parallel worker count, and must differ across seeds.

// fleetTestSpec is the CI-sized storm (matches the fleet package's own
// small fixture).
var fleetTestSpec = FleetSpec{Nodes: 24, Cells: 4}

func TestFleetReportParallelIdentical(t *testing.T) {
	trial := func(seed int64) FleetResult { return RunFleet(seed, fleetTestSpec) }
	serial := eachTrial(Config{Seed: 31, Trials: 3, Parallel: 1}, trial)
	want := FleetTable(serial)
	for _, workers := range []int{2, 4} {
		rows := eachTrial(Config{Seed: 31, Trials: 3, Parallel: workers}, trial)
		if got := FleetTable(rows); got != want {
			t.Errorf("FleetTable differs between 1 and %d workers:\n--- serial ---\n%s\n--- %d workers ---\n%s",
				workers, want, workers, got)
		}
		for i := range rows {
			if a, b := string(serial[i].Metrics.JSON()), string(rows[i].Metrics.JSON()); a != b {
				t.Errorf("trial %d metrics snapshot differs at %d workers", i, workers)
			}
		}
	}
}

func TestFleetRepeatSameSeedIdentical(t *testing.T) {
	a := RunFleet(47, fleetTestSpec)
	b := RunFleet(47, fleetTestSpec)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed fleet trials diverged:\n%+v\nvs\n%+v", a, b)
	}
	if string(a.Metrics.JSON()) != string(b.Metrics.JSON()) {
		t.Errorf("same-seed metrics snapshots differ")
	}
}

func TestFleetCrossSeedDiffers(t *testing.T) {
	a := RunFleet(47, fleetTestSpec)
	b := RunFleet(48, fleetTestSpec)
	if string(a.Metrics.JSON()) == string(b.Metrics.JSON()) {
		t.Errorf("seeds 47 and 48 produced byte-identical metrics snapshots")
	}
}

func TestFleetTableReportsViolations(t *testing.T) {
	r := RunFleet(47, fleetTestSpec)
	if len(r.Violations) != 0 {
		t.Fatalf("healthy seed produced violations: %v", r.Violations)
	}
	r.Violations = append(r.Violations, "synthetic violation for rendering")
	out := FleetTable([]FleetResult{r})
	if want := "VIOLATION: synthetic violation for rendering"; !strings.Contains(out, want) {
		t.Errorf("FleetTable output missing %q:\n%s", want, out)
	}
}

// fleetSeed lets CI reproduce a failing smoke: FLEET_SEED=n make fleet-smoke.
func fleetSeed(t *testing.T) int64 {
	if s := os.Getenv("FLEET_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad FLEET_SEED %q: %v", s, err)
		}
		return v
	}
	return 1
}

// TestFleetSmoke is the CI fleet soak: one small storm under -race must
// complete with every invariant intact.
func TestFleetSmoke(t *testing.T) {
	seed := fleetSeed(t)
	r := RunFleet(seed, fleetTestSpec)
	for _, v := range r.Violations {
		t.Errorf("seed %d: %s (reproduce: FLEET_SEED=%d make fleet-smoke)", seed, v, seed)
	}
	if r.Handoffs == 0 || r.Moves == 0 {
		t.Errorf("seed %d: storm moved nothing (moves=%d handoffs=%d)", seed, r.Moves, r.Handoffs)
	}
	if len(r.FaultLog) == 0 {
		t.Errorf("seed %d: empty fault log", seed)
	}
}
