package netsim

import (
	"sync"
	"sync/atomic"

	"mob4x4/internal/metrics"
)

// Buf is a reusable payload buffer drawn from a process-wide pool. The fast
// packet path serializes every frame payload into one of these instead of
// allocating per hop: the sender appends wire bytes into B, hands the Buf to
// the link layer via Frame.Buf, and the segment returns it to the pool once
// the frame is dropped or every receiver callback has returned.
//
// Ownership contract (see DESIGN.md "Performance engineering"):
//
//   - A Buf handed to NIC.Send via Frame.Buf belongs to the link layer.
//     The sender must not touch B afterwards.
//   - Receive callbacks may read the payload only until they return.
//     Anything retained past the callback (reassembly pieces, ARP pending
//     queues, delivery deferred through the scheduler) must be copied.
//   - A Buf used as scratch (marshal, send synchronously, recycle) is
//     returned by the same function that got it.
//
// The pool is shared across simulations; sync.Pool is safe for the parallel
// experiment runner, and pooling does not affect determinism because buffer
// identity is never observable in traces.
type Buf struct {
	B []byte
}

// bufCap covers a full default-MTU frame plus tunnel headroom so steady
// state never grows a pooled buffer.
const bufCap = DefaultMTU + 64

//mob4x4vet:allow globalstate sync.Pool is concurrency-safe and buffer identity is unobservable; shards may share it
var bufPool = sync.Pool{New: func() any { return &Buf{B: make([]byte, 0, bufCap)} }}

// bufOutstanding counts buffers currently checked out of the pool
// (GetBuf minus PutBuf). The chaos experiment's quiescence invariant
// asserts it returns to its starting value once a run drains: a non-zero
// delta means some path leaked (or double-freed) a pooled buffer.
//mob4x4vet:allow globalstate atomic leak counter asserted by the chaos quiescence invariant; per-shard counts would hide cross-shard leaks
var bufOutstanding atomic.Int64

// BufOutstanding returns the number of pooled buffers currently checked
// out (GetBuf calls minus non-nil PutBuf calls), process-wide.
func BufOutstanding() int64 { return bufOutstanding.Load() }

// GetBuf returns an empty pooled buffer (len 0).
func GetBuf() *Buf {
	bufOutstanding.Add(1)
	return bufPool.Get().(*Buf)
}

// PutBuf returns b to the pool. nil is a no-op so error paths can recycle
// unconditionally.
func PutBuf(b *Buf) {
	if b == nil {
		return
	}
	bufOutstanding.Add(-1)
	b.B = b.B[:0]
	bufPool.Put(b)
}

// delivery is a pooled in-flight frame: the receiving segment plus the
// frame itself, scheduled through the handle-free vtime path so a
// steady-state hop allocates nothing. dests is scratch for runDelivery's
// receiver snapshot; its backing array is reused across deliveries.
type delivery struct {
	seg   *Segment
	frame Frame
	dests []*NIC
}

//mob4x4vet:allow globalstate sync.Pool is concurrency-safe and delivery identity is unobservable; shards may share it
var deliveryPool = sync.Pool{New: func() any { return new(delivery) }}

// runDelivery is the scheduler callback for frame delivery. A top-level
// func so scheduling it never allocates a closure.
//
// Receivers are resolved here — at arrival, against the segment's current
// attachment table — not at send time: who hears a frame is decided by
// who is on the wire when it lands (a NIC that attached mid-flight hears
// it, one that left does not), and for a split cross-shard segment this
// keeps every read of NIC state on the shard that owns the receiving
// half. Broadcast ARP frames go only to the NICs registered for their
// addresses (arpReceivers). The resolved set is snapshotted into the
// pooled dests slice before any callback runs, so receivers that attach
// or detach NICs from inside their callbacks cannot corrupt the
// iteration; the sender is
// excluded by MAC (frames carry Src, and MACs are cluster-unique), which
// works even when the sender's NIC lives on the far half.
func runDelivery(a any) {
	d := a.(*delivery)
	seg := d.seg
	f := d.frame
	targeted := false
	if f.Dst != BroadcastMAC && seg.promisc == 0 {
		// Unicast with nobody listening promiscuously: direct dispatch
		// via the MAC index on big segments, a linear scan on small ones.
		var n *NIC
		if seg.byMAC != nil {
			n = seg.byMAC[f.Dst]
		} else {
			for _, m := range seg.nics {
				if m.mac == f.Dst {
					n = m
					break
				}
			}
		}
		if n != nil && n.mac != f.Src {
			d.dests = append(d.dests, n)
		}
	} else {
		if f.Dst == BroadcastMAC && f.Type == EtherTypeARP && !seg.sim.floodARP {
			d.dests, targeted = seg.arpReceivers(d.dests, f)
		}
		if !targeted {
			for _, n := range seg.nics {
				if n.mac == f.Src {
					continue
				}
				if f.Dst == BroadcastMAC || f.Dst == n.mac || n.promiscuous {
					d.dests = append(d.dests, n)
				}
			}
		}
	}
	// A targeted ARP broadcast that nobody needs was still heard by
	// whoever is attached: it is a drop only when nobody is.
	if len(d.dests) == 0 && !(targeted && seg.hasOther(f.Src)) {
		seg.DroppedNoDest++
		seg.sim.Metrics.Drop(metrics.DropNoDest)
		seg.sim.Trace.record(Event{Kind: EventDropNoDest, Time: seg.sim.Now(), Where: seg.name})
	}
	for _, n := range d.dests {
		if n.segment != seg {
			continue // detached by an earlier receiver in this very loop
		}
		seg.Delivered++
		if n.recv != nil {
			n.recv(n, f)
		}
	}
	// All receivers have returned (broadcast shares the one buffer), so
	// the payload storage can go back to the pool.
	PutBuf(f.Buf)
	releaseDelivery(d)
}

// hasOther reports whether any NIC other than the one with MAC src is
// attached — the condition under which a broadcast is not a no-destination
// drop, whether or not targeted delivery handed it to anybody.
func (seg *Segment) hasOther(src MAC) bool {
	for _, n := range seg.nics {
		if n.mac != src {
			return true
		}
	}
	return false
}

func releaseDelivery(d *delivery) {
	d.seg = nil
	d.frame = Frame{}
	for i := range d.dests {
		d.dests[i] = nil
	}
	d.dests = d.dests[:0]
	deliveryPool.Put(d)
}
