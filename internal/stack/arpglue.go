package stack

import (
	"mob4x4/internal/arp"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/netsim"
	"mob4x4/internal/vtime"
)

// resolveJob tracks packets queued while an address resolution is in
// flight on an interface. A finished job is kept as the interface's spare
// and reused — timer (whose callback is bound to the job once) and queue
// included — by the next miss, so a steady trickle of resolutions
// allocates only the packet copies.
type resolveJob struct {
	iface   *Iface
	target  ipv4.Addr
	pkts    []ipv4.Packet
	first   [1]ipv4.Packet // pkts' initial backing: most misses queue one packet
	retries int
	timer   *vtime.Timer
}

// resolveAndSend link-transmits pkt out of the interface, resolving
// nexthop to a MAC first. Broadcast and multicast destinations bypass ARP.
func (i *Iface) resolveAndSend(nexthop ipv4.Addr, pkt ipv4.Packet) {
	if nexthop.IsBroadcast() || (i.prefix.Bits > 0 && nexthop == i.prefix.BroadcastAddr()) || nexthop.IsMulticast() {
		i.sendIPFrame(netsim.BroadcastMAC, pkt)
		return
	}
	now := int64(i.host.sim.Now())
	if mac, ok := i.cache.Lookup(nexthop, now, int64(i.host.ARPCacheTTL)); ok {
		i.sendIPFrame(mac, pkt)
		return
	}
	job := i.pendingJob(nexthop)
	if job == nil {
		job = i.startResolve(nexthop)
	}
	// Bound the per-nexthop queue: an unresolvable nexthop fed by a fast
	// sender would otherwise pin copied payloads without limit until the
	// resolution times out. Real stacks keep just one packet; ours keeps
	// a small window and sheds the oldest.
	if limit := i.host.ARPQueueLimit; limit > 0 && len(job.pkts) >= limit {
		drop := len(job.pkts) - limit + 1
		i.host.Stats.DroppedARPExpired += uint64(drop)
		i.host.metrics.DropN(metrics.DropARPExpired, uint64(drop))
		copy(job.pkts, job.pkts[drop:])
		job.pkts = job.pkts[:len(job.pkts)-drop]
	}
	// The queued packet may alias a pooled frame buffer (forwarding path)
	// that is recycled when the receive callback returns, while the queue
	// waits for the ARP reply — take a private copy.
	//mob4x4vet:allow hotpathalloc ARP-miss queueing must retain the packet
	job.pkts = append(job.pkts, pkt.Clone())
}

// startResolve opens a resolution for target: it registers the pending
// job, broadcasts the first request and arms the retry timer.
func (i *Iface) startResolve(target ipv4.Addr) *resolveJob {
	job := i.spare
	i.spare = nil
	if job == nil {
		job = &resolveJob{iface: i}
		job.pkts = job.first[:0]
	}
	job.target = target
	job.retries = i.host.ARPRetries
	i.pending = append(i.pending, job)
	i.nic.AddARPInterest(target)
	i.sendARPRequest(target)
	if job.timer == nil {
		job.timer = i.host.sim.Sched.After(i.host.ARPTimeout, job.onTimeout)
	} else {
		job.timer.Reset(i.host.ARPTimeout)
	}
	return job
}

// onTimeout retries the request or, out of retries, fails the resolution
// and drops its queue.
func (job *resolveJob) onTimeout() {
	i, target := job.iface, job.target
	if i.pendingJob(target) != job {
		return
	}
	job.retries--
	if job.retries > 0 {
		i.sendARPRequest(target)
		job.timer.Reset(i.host.ARPTimeout)
		return
	}
	i.endResolve(job)
	i.syncARPInterest(target)
	i.host.Stats.DropNoARP += uint64(len(job.pkts))
	i.host.Stats.DroppedARPExpired += uint64(len(job.pkts))
	i.host.metrics.DropN(metrics.DropNoARP, uint64(len(job.pkts)))
	for _, p := range job.pkts {
		i.host.sim.Trace.Record(netsim.Event{
			Kind: netsim.EventDropNoRoute, Time: i.host.sim.Now(),
			Where: i.host.name, PktID: p.TraceID,
			Detail: "ARP resolution failed for " + target.String(),
		})
	}
	i.recycle(job)
}

// pendingJob returns the in-flight resolution for target, or nil. An
// interface resolves a handful of addresses at a time at most, so a
// scan beats a map (and spares its allocations on every interface's
// first miss).
func (i *Iface) pendingJob(target ipv4.Addr) *resolveJob {
	for _, job := range i.pending {
		if job.target == target {
			return job
		}
	}
	return nil
}

// endResolve removes job from the in-flight set.
func (i *Iface) endResolve(job *resolveJob) {
	for k, j := range i.pending {
		if j == job {
			last := len(i.pending) - 1
			i.pending[k] = i.pending[last]
			i.pending[last] = nil
			i.pending = i.pending[:last]
			return
		}
	}
}

// recycle keeps a finished job as the interface's spare.
func (i *Iface) recycle(job *resolveJob) {
	clear(job.pkts)
	job.pkts = job.pkts[:0]
	i.spare = job
}

func (i *Iface) sendARPRequest(target ipv4.Addr) {
	msg := arp.Message{
		Op:        arp.OpRequest,
		SenderMAC: i.nic.MAC(),
		SenderIP:  i.addr,
		TargetIP:  target,
	}
	i.sendARPFrame(netsim.BroadcastMAC, &msg)
}

// sendARPFrame marshals msg into a pooled buffer and transmits it; the
// link layer recycles the buffer after delivery.
func (i *Iface) sendARPFrame(dst netsim.MAC, msg *arp.Message) {
	buf := netsim.GetBuf()
	buf.B = msg.AppendMarshal(buf.B)
	i.nic.Send(netsim.Frame{
		Dst:     dst,
		Type:    netsim.EtherTypeARP,
		Payload: buf.B,
		Buf:     buf,
	})
}

// GratuitousARP broadcasts a gratuitous request for addr from this
// interface, updating neighbours' caches. A home agent issues this when it
// starts (or stops) proxying for a mobile host, and a returning mobile
// host issues it to reclaim its address ([RFC1027]).
func (i *Iface) GratuitousARP(addr ipv4.Addr) {
	msg := arp.GratuitousRequest(i.nic.MAC(), addr)
	i.sendARPFrame(netsim.BroadcastMAC, &msg)
}

func (i *Iface) receiveARP(f netsim.Frame) {
	msg, err := arp.Unmarshal(f.Payload)
	if err != nil {
		return
	}
	// We are the target when the message asks about our own address or
	// one we proxy for. A gratuitous announcement (sender==target) asks
	// nothing: it is a cache update for whoever already tracks the
	// sender, so it has no target.
	target := msg.SenderIP != msg.TargetIP &&
		((msg.TargetIP == i.addr && !i.addr.IsZero()) || i.proxy.Contains(msg.TargetIP))
	// RFC 826 merge rule: refresh the sender's entry if we hold one;
	// otherwise add it only if we are the target, or are ourselves
	// waiting to resolve the sender. A conflicting claim for our own
	// address is never learned.
	if !msg.SenderIP.IsZero() && msg.SenderIP != i.addr {
		now := int64(i.host.sim.Now())
		merged := i.cache.Refresh(msg.SenderIP, msg.SenderMAC, now)
		if !merged && (target || i.pendingJob(msg.SenderIP) != nil) {
			i.cache.Learn(msg.SenderIP, msg.SenderMAC, now)
			i.nic.AddARPInterest(msg.SenderIP)
			merged = true
		}
		if merged {
			i.drainPending(msg.SenderIP, msg.SenderMAC)
		}
	}
	// Answer requests for our own address or any proxied address.
	if msg.Op != arp.OpRequest || !target {
		return
	}
	reply := arp.Message{
		Op:        arp.OpReply,
		SenderMAC: i.nic.MAC(),
		SenderIP:  msg.TargetIP, // proxy replies claim the proxied address
		TargetMAC: msg.SenderMAC,
		TargetIP:  msg.SenderIP,
	}
	i.sendARPFrame(msg.SenderMAC, &reply)
}

// syncARPInterest registers or withdraws the NIC's interest in broadcast
// ARP frames naming ip, after any change to the state that makes this
// interface act on them: its address, its proxy set, its cache, or its
// pending resolutions. The segment delivers broadcast ARP only to
// registered NICs, so a registration missing here would lose a reply or
// a refresh; a stale extra one costs a no-op delivery.
func (i *Iface) syncARPInterest(ip ipv4.Addr) {
	if ip.IsZero() {
		return
	}
	if ip == i.addr || i.proxy.Contains(ip) || i.cache.Has(ip) || i.pendingJob(ip) != nil {
		i.nic.AddARPInterest(ip)
	} else {
		i.nic.RemoveARPInterest(ip)
	}
}

// flushARP empties the ARP cache, withdrawing the interest each entry
// held.
func (i *Iface) flushARP() { i.cache.Flush(i.syncARPInterest) }

// AddProxy starts answering ARP for ip on this interface on behalf of
// another host (a home agent capturing an absent mobile host's traffic).
func (i *Iface) AddProxy(ip ipv4.Addr) {
	i.proxy.Add(ip)
	i.syncARPInterest(ip)
}

// RemoveProxy stops answering ARP for ip.
func (i *Iface) RemoveProxy(ip ipv4.Addr) {
	i.proxy.Remove(ip)
	i.syncARPInterest(ip)
}

func (i *Iface) drainPending(ip ipv4.Addr, mac netsim.MAC) {
	job := i.pendingJob(ip)
	if job == nil {
		return
	}
	i.endResolve(job)
	job.timer.Stop()
	for _, pkt := range job.pkts {
		i.sendIPFrame(mac, pkt)
	}
	i.recycle(job)
}

func (i *Iface) sendIPFrame(dst netsim.MAC, pkt ipv4.Packet) {
	buf := netsim.GetBuf()
	b, err := pkt.AppendMarshal(buf.B)
	if err != nil {
		netsim.PutBuf(buf)
		i.host.Stats.DropMalformed++
		return
	}
	buf.B = b
	i.nic.Send(netsim.Frame{
		Dst:     dst,
		Type:    netsim.EtherTypeIPv4,
		Payload: b,
		TraceID: pkt.TraceID,
		Buf:     buf,
	})
}
