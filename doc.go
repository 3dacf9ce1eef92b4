// Package mob4x4 is a from-scratch reproduction of "Internet Mobility
// 4x4" (Stuart Cheshire and Mary Baker, SIGCOMM '96): the 4x4 grid of
// Mobile IP routing choices, the mechanism that implements every useful
// cell of it, and the decision machinery that picks the best cell per
// correspondent — all running over a deterministic simulated
// internetwork built with nothing but the Go standard library.
//
// Layout:
//
//   - internal/core — the paper's contribution: the grid, its
//     classification, the delivery-method cache and start strategies,
//     the port heuristics and the correspondent-side policy.
//   - internal/mobileip — home agent, mobile node, smart correspondent,
//     foreign agent, registration protocol.
//   - internal/{vtime,netsim,ipv4,arp,stack,udp,icmp,encap,tcplite,
//     dnssim,dhcpsim,icmphost,inet} — the substrates: virtual time,
//     simulated link layer, IPv4 with fragmentation, ARP with proxying,
//     a per-host stack with the paper's route-lookup override, three
//     tunnel codecs, a miniature TCP, name/lease services and a
//     topology builder.
//   - internal/experiments — the scenario and measurement code that
//     regenerates every figure; bench_test.go in this directory exposes
//     one benchmark per figure/table.
//   - cmd/mob4x4 — the CLI front end; `mob4x4 -h` lists every
//     experiment in the registry (internal/experiments/registry.go).
//   - examples/ — runnable walkthroughs of the public behavior.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package mob4x4
