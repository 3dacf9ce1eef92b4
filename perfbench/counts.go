package main

import (
	"strings"

	"mob4x4/internal/metrics"
)

// The simulator's own counters, reported beside the CPU ledger. They are
// deterministic per seed, so a change that claims to leave the
// simulation alone must leave every one of them where it was.

// counters sums the counters of snapshots and merges their histograms
// bucket by bucket (bounds are fixed per histogram name).
type counters struct {
	c map[string]uint64
	h map[string]*metrics.HistogramSample
}

func sumSnapshots(snaps ...metrics.Snapshot) counters {
	s := counters{c: map[string]uint64{}, h: map[string]*metrics.HistogramSample{}}
	for _, snap := range snaps {
		for _, c := range snap.Counters {
			s.c[c.Name] += c.Value
		}
		for _, h := range snap.Histograms {
			m, ok := s.h[h.Name]
			if !ok {
				m = &metrics.HistogramSample{Name: h.Name, Bounds: h.Bounds, Buckets: make([]uint64, len(h.Buckets))}
				s.h[h.Name] = m
			}
			m.Count += h.Count
			for i, n := range h.Buckets {
				m.Buckets[i] += n
			}
		}
	}
	return s
}

// quantile estimates the q-quantile of a merged histogram, interpolating
// inside the bucket that holds the rank; overflow clamps to the last
// bound.
func (s counters) quantile(name string, q float64) float64 {
	h := s.h[name]
	if h == nil || h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum uint64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.Bounds) {
			break
		}
		lo := 0.0
		if i > 0 {
			lo = float64(h.Bounds[i-1])
		}
		within := (rank - float64(cum-n)) / float64(n)
		return lo + (float64(h.Bounds[i])-lo)*within
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}

// prefixSum adds every counter whose name starts with prefix (a labelled
// family such as "grid/out_bytes{").
func (s counters) prefixSum(prefix string) uint64 {
	var n uint64
	for name, v := range s.c {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}

// report adds the simulator-count metrics.
func (s counters) report(res *result) {
	count := func(name, counter string) { res.set(name, float64(s.c[counter]), "count") }
	count("netsim.frames", "link/frames")
	res.set("netsim.bytes", float64(s.c["link/bytes"]), "bytes")
	for c := metrics.DropCause(0); c < metrics.NumDropCauses; c++ {
		count("netsim.drop."+c.String(), "drop/"+c.String())
	}
	count("ip.sent", "ip/sent")
	count("ip.forwarded", "ip/forwarded")
	count("ip.delivered", "ip/delivered")
	count("tunnel.encaps", "tunnel/encaps")
	count("tunnel.decaps", "tunnel/decaps")
	wire := s.prefixSum("grid/out_wire_bytes{") + s.prefixSum("grid/in_wire_bytes{")
	payload := s.prefixSum("grid/out_bytes{") + s.prefixSum("grid/in_bytes{")
	overhead := 0.0
	if payload > 0 {
		overhead = float64(wire) / float64(payload)
	}
	res.set("encap.wire_overhead", overhead, "ratio")
	count("mn.registrations", "mn/registrations")
	count("mn.registration_fails", "mn/registration_fails")
	count("ha.forwarded", "ha/forwarded")
	count("ro.updates_sent", "ro/updates_sent")
	count("ro.acks", "ro/update_acks")
	count("ro.retransmits", "ro/update_retransmits")
}
