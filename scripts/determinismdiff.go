package main

// determinismdiff is the runtime determinism gate (same binary as
// benchdiff, selected with -determinism): it builds ./cmd/mob4x4 once,
// runs every entry of the experiment registry twice per seed with
// identical arguments, once more under -parallel N for the entries that
// fan trials out over worker goroutines, and once per -shards value for
// the entries that promise shard-count independence. The full stdout of each run (tables, metrics
// dumps, report JSON, chaos TSV series) is SHA-256 hashed; any pair of
// hashes that should match and does not is a determinism violation and
// the gate exits 1. This is the dynamic counterpart to the mapiter/
// globalstate/sharedrand/bufretain analyzers: the analyzers prove the
// sources of nondeterminism are absent, this proves the composed system
// actually emits byte-identical output per seed, worker count included.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"mob4x4/internal/experiments"
)

// detArgs holds the extra arguments (beyond -seed, -parallel and
// -shards, which the driver adds) some registry entries run with under
// the gate; every other entry runs bare. Entries that can dump metrics
// do, so the hash covers counters and histograms, not just the human
// tables. The fleet rows use small topologies: the gate is about
// byte-equality, not scale, and CI pays for every run several times.
// httpgrid needs nothing extra: its stdout includes each cell's capture
// SHA-256, so the gate compares the captured pcap bytes themselves.
var detArgs = map[string][]string{
	"grid":      {"-metrics-json"},
	"overhead":  {"-metrics-json"},
	"fa":        {"-metrics-json"},
	"savings":   {"-metrics-json"},
	"chaos":     {"-trials", "2", "-metrics-json"},
	"fleet":     {"-nodes", "60", "-cells", "6", "-trials", "2", "-metrics-json"},
	"adversary": {"-nodes", "60", "-cells", "6", "-trials", "2", "-metrics-json"},
	"routeopt":  {"-nodes", "24", "-cells", "4", "-trials", "2", "-metrics-json"},
}

// runDeterminism executes the gate; it returns false on any divergence
// or run failure.
func runDeterminism(seedList string, parallel int, shardList string) bool {
	seeds, err := parseSeeds(seedList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "determinism:", err)
		return false
	}
	shardCounts, err := parseSeeds(shardList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "determinism: -determinism-shards:", err)
		return false
	}

	tmp, err := os.MkdirTemp("", "mob4x4-determinism-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "determinism:", err)
		return false
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "mob4x4")
	build := exec.Command("go", "build", "-o", bin, "./cmd/mob4x4")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "determinism: build ./cmd/mob4x4:", err)
		return false
	}

	registry := experiments.Experiments()
	registered := map[string]bool{}
	for _, e := range registry {
		registered[e.Name] = true
	}
	for name := range detArgs {
		if !registered[name] {
			fmt.Fprintf(os.Stderr, "determinism: detArgs names %q, which is not a registered experiment\n", name)
			return false
		}
	}

	ok := true
	for _, e := range registry {
		for _, seed := range seeds {
			serial := append([]string{"-seed", strconv.FormatInt(seed, 10)}, detArgs[e.Name]...)
			serial = append(serial, e.Name)
			h1, err := hashRun(bin, serial)
			if err != nil {
				fmt.Fprintf(os.Stderr, "determinism: FAIL %s seed=%d run 1: %v\n", e.Name, seed, err)
				ok = false
				continue
			}
			h2, err := hashRun(bin, serial)
			if err != nil {
				fmt.Fprintf(os.Stderr, "determinism: FAIL %s seed=%d run 2: %v\n", e.Name, seed, err)
				ok = false
				continue
			}
			if h1 != h2 {
				fmt.Fprintf(os.Stderr, "determinism: FAIL %s seed=%d: two identical serial runs diverged (%s != %s)\n",
					e.Name, seed, h1[:12], h2[:12])
				ok = false
				continue
			}
			status := "run-to-run ok"
			if e.Parallel && parallel > 1 {
				par := append([]string{"-seed", strconv.FormatInt(seed, 10), "-parallel", strconv.Itoa(parallel)}, detArgs[e.Name]...)
				par = append(par, e.Name)
				h3, err := hashRun(bin, par)
				if err != nil {
					fmt.Fprintf(os.Stderr, "determinism: FAIL %s seed=%d -parallel %d: %v\n", e.Name, seed, parallel, err)
					ok = false
					continue
				}
				if h3 != h1 {
					fmt.Fprintf(os.Stderr, "determinism: FAIL %s seed=%d: -parallel %d output diverged from serial (%s != %s)\n",
						e.Name, seed, parallel, h3[:12], h1[:12])
					ok = false
					continue
				}
				status = fmt.Sprintf("run-to-run and -parallel %d ok", parallel)
			}
			if e.Shards {
				diverged := false
				for _, n := range shardCounts {
					sh := append([]string{"-seed", strconv.FormatInt(seed, 10), "-shards", strconv.FormatInt(n, 10)}, detArgs[e.Name]...)
					sh = append(sh, e.Name)
					h4, err := hashRun(bin, sh)
					if err != nil {
						fmt.Fprintf(os.Stderr, "determinism: FAIL %s seed=%d -shards %d: %v\n", e.Name, seed, n, err)
						ok, diverged = false, true
						break
					}
					if h4 != h1 {
						fmt.Fprintf(os.Stderr, "determinism: FAIL %s seed=%d: -shards %d output diverged from serial (%s != %s)\n",
							e.Name, seed, n, h4[:12], h1[:12])
						ok, diverged = false, true
						break
					}
				}
				if diverged {
					continue
				}
				status += fmt.Sprintf(", -shards {%s} ok", shardList)
			}
			fmt.Printf("determinism: %-12s seed=%-3d %s (%s)\n", e.Name, seed, h1[:12], status)
		}
	}
	return ok
}

// hashRun executes the experiment binary with args and returns the
// SHA-256 of its stdout. stderr passes through for diagnosis; a non-zero
// exit is an error (the invariant checkers inside chaos/fleet exit 1 on
// violations, which the gate must surface, not hash over).
func hashRun(bin string, args []string) (string, error) {
	cmd := exec.Command(bin, args...)
	h := sha256.New()
	cmd.Stdout = h
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func parseSeeds(list string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		s, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", part, err)
		}
		seeds = append(seeds, s)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("no seeds in %q", list)
	}
	return seeds, nil
}
