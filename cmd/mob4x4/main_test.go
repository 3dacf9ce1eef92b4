package main

import (
	"strings"
	"testing"
)

// TestRun drives the command through run(args, stdout, stderr): bad input
// is rejected once, in the flag layer, with exit status 2 and the usage
// text, before any experiment runs.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		code       int
		stdout     string // substring of stdout ("" = stdout must be empty)
		stderr     string // substring of stderr
		wantUsage  bool
		sameOutput []string // args whose stdout must equal this case's
	}{
		{name: "negative trials", args: []string{"-trials", "-1", "chaos"}, code: 2, stderr: "-trials must be at least 1, got -1", wantUsage: true},
		{name: "zero trials", args: []string{"-trials", "0", "chaos"}, code: 2, stderr: "-trials must be at least 1, got 0", wantUsage: true},
		{name: "zero trials after name", args: []string{"fleet", "-trials", "0"}, code: 2, stderr: "-trials must be at least 1", wantUsage: true},
		{name: "unknown model", args: []string{"-model", "bogus", "-nodes", "10", "-cells", "2", "fleet"}, code: 2, stderr: `unknown -model "bogus"`, wantUsage: true},
		{name: "unknown experiment", args: []string{"nosuch"}, code: 2, stderr: `unknown experiment "nosuch"`, wantUsage: true},
		{name: "no experiment", args: nil, code: 2, stderr: "no experiment named", wantUsage: true},
		{name: "undefined flag", args: []string{"-nosuch", "fig1"}, code: 2, stderr: "flag provided but not defined", wantUsage: true},
		{name: "extra argument", args: []string{"fig1", "fig2"}, code: 2, stderr: "unexpected arguments", wantUsage: true},
		{name: "help", args: []string{"-h"}, code: 0, wantUsage: true},
		{name: "flags after name", args: []string{"fig1", "-seed", "3"}, code: 0, stdout: "Figure 1",
			sameOutput: []string{"-seed", "3", "fig1"}},
		{name: "alias", args: []string{"fig10"}, code: 0, stdout: "agreement with paper classification: 16/16",
			sameOutput: []string{"grid"}},
		{name: "markov fleet", args: []string{"-model", "markov", "-nodes", "10", "-cells", "2", "fleet"}, code: 0, stdout: "markov"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstderr:\n%s", code, tc.code, stderr.String())
			}
			if tc.stdout == "" && stdout.Len() != 0 {
				t.Errorf("stdout not empty:\n%s", stdout.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout missing %q:\n%s", tc.stdout, stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr missing %q:\n%s", tc.stderr, stderr.String())
			}
			if got := strings.Contains(stderr.String(), "usage: mob4x4"); got != tc.wantUsage {
				t.Errorf("usage printed = %v, want %v:\n%s", got, tc.wantUsage, stderr.String())
			}
			if tc.sameOutput != nil {
				var other strings.Builder
				if code := run(tc.sameOutput, &other, &strings.Builder{}); code != 0 {
					t.Fatalf("%q: exit %d", tc.sameOutput, code)
				}
				if other.String() != stdout.String() {
					t.Errorf("%q and %q print different output", tc.args, tc.sameOutput)
				}
			}
		})
	}
}

// TestUsageListsEveryExperiment: the usage text is generated from the
// registry, so every entry and alias shows up with its doc.
func TestUsageListsEveryExperiment(t *testing.T) {
	var stderr strings.Builder
	run([]string{"-h"}, &strings.Builder{}, &stderr)
	for _, want := range []string{"grid|fig10", "E8, Figure 10", "routeopt", "report", "all", "-parallel", "httpgrid"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("usage missing %q:\n%s", want, stderr.String())
		}
	}
}
