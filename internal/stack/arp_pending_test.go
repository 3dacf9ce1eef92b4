package stack

import (
	"testing"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
)

// TestARPPendingQueueBounded pins the ARP-miss queue bound: a fast sender
// aimed at an unresolvable nexthop may pin at most ARPQueueLimit copied
// payloads; the oldest are shed and counted in DroppedARPExpired, and the
// survivors still go out when the resolution finally succeeds.
func TestARPPendingQueueBounded(t *testing.T) {
	sim, a, _ := lanPair(t, netsim.SegmentOpts{})
	a.ARPQueueLimit = 4
	ghost := ipv4.MustParseAddr("10.0.0.99")

	const sent = 10
	for k := 0; k < sent; k++ {
		_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: ghost}})
	}
	// All sends happened in one instant: the queue holds the newest 4,
	// the other 6 were shed on arrival.
	job := a.Ifaces()[0].pendingJob(ghost)
	if job == nil {
		t.Fatal("no pending resolution for ghost address")
	}
	if got := len(job.pkts); got != 4 {
		t.Errorf("pending queue holds %d packets, want 4", got)
	}
	if a.Stats.DroppedARPExpired != sent-4 {
		t.Errorf("DroppedARPExpired = %d, want %d", a.Stats.DroppedARPExpired, sent-4)
	}

	// Let the resolution expire: the queued survivors are dropped too,
	// counted in both DropNoARP and DroppedARPExpired.
	sim.Sched.Run()
	if a.Stats.DropNoARP != 4 {
		t.Errorf("DropNoARP = %d, want 4", a.Stats.DropNoARP)
	}
	if a.Stats.DroppedARPExpired != sent {
		t.Errorf("DroppedARPExpired = %d, want %d", a.Stats.DroppedARPExpired, sent)
	}
}

// TestARPQueueUnboundedWhenDisabled keeps the 0 = unbounded contract.
func TestARPQueueUnboundedWhenDisabled(t *testing.T) {
	_, a, _ := lanPair(t, netsim.SegmentOpts{})
	a.ARPQueueLimit = 0
	ghost := ipv4.MustParseAddr("10.0.0.99")
	for k := 0; k < 100; k++ {
		_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: ghost}})
	}
	if got := len(a.Ifaces()[0].pendingJob(ghost).pkts); got != 100 {
		t.Errorf("pending queue holds %d packets, want 100", got)
	}
	if a.Stats.DroppedARPExpired != 0 {
		t.Errorf("DroppedARPExpired = %d, want 0 before expiry", a.Stats.DroppedARPExpired)
	}
}
