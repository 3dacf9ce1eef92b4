// Package inet builds simulated internetworks: LANs (broadcast segments
// with an address plan), routers, point-to-point backbone links, and
// administrative domains with boundary filtering. It computes shortest
// paths over the router graph and installs static routes everywhere, so
// experiments declare topology and get a working internet.
//
// This package plays the role of the "simulated topology with netns" the
// reproduction banding calls for — the same isolation and wiring netns
// scripts provide on Linux, done deterministically in-process.
package inet

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"mob4x4/internal/assert"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/vtime"
)

// Network is an internetwork under construction (and then in operation).
// A network is either single-region (New: one Sim, one scheduler) or
// sharded (NewSharded: one Sim per region shard of a vtime.Group, with
// cross-region links built as split segment pairs).
type Network struct {
	// Sim is the hub region's simulation — the only one for a
	// single-region network.
	Sim *netsim.Sim

	// regions lists every region Sim (just Sim for single-region
	// networks); buildSim is the region new LANs and routers go to,
	// moved by SetBuildRegion.
	regions  []*netsim.Sim
	buildSim *netsim.Sim
	group    *vtime.Group

	lans    map[string]*LAN
	hosts   map[string]*stack.Host
	routers map[string]*stack.Host
	links   []*p2pLink

	transferNet uint32 // allocator for /30 point-to-point prefixes
}

// LAN is a broadcast segment with an address plan and (usually) a gateway
// router.
type LAN struct {
	Name     string
	Seg      *netsim.Segment
	Prefix   ipv4.Prefix
	nextHost int
	Gateway  ipv4.Addr // first router address attached; zero until then
	net      *Network
}

type p2pLink struct {
	// segA/segB are the link's segments as seen from each end: the same
	// Segment for an intra-region link, the two halves of a SplitPair for
	// a cross-region one.
	segA   *netsim.Segment
	segB   *netsim.Segment
	prefix ipv4.Prefix
	a, b   *stack.Host
	aAddr  ipv4.Addr
	bAddr  ipv4.Addr
}

// New creates an empty network with a deterministic seed.
func New(seed int64) *Network {
	sim := netsim.NewSim(seed)
	return &Network{
		Sim:         sim,
		regions:     []*netsim.Sim{sim},
		buildSim:    sim,
		lans:        make(map[string]*LAN),
		hosts:       make(map[string]*stack.Host),
		routers:     make(map[string]*stack.Host),
		transferNet: ipv4.MustParseAddr("10.200.0.0").Uint32(),
	}
}

// NewSharded creates a network whose topology spans region Sims — one per
// shard of a vtime.Group (all sims' schedulers must belong to the same
// group). sims[0] is the hub region and the initial build region. Links
// between hosts in different regions become split segment pairs
// synchronized by the link latency.
func NewSharded(sims []*netsim.Sim) *Network {
	if len(sims) == 0 {
		assert.Unreachable("inet: NewSharded with no region sims")
	}
	g := sims[0].Sched.Group()
	for _, s := range sims {
		if s.Sched.Group() != g || g == nil {
			assert.Unreachable("inet: NewSharded sims must share one vtime.Group")
		}
	}
	return &Network{
		Sim:         sims[0],
		regions:     sims,
		buildSim:    sims[0],
		group:       g,
		lans:        make(map[string]*LAN),
		hosts:       make(map[string]*stack.Host),
		routers:     make(map[string]*stack.Host),
		transferNet: ipv4.MustParseAddr("10.200.0.0").Uint32(),
	}
}

// SetBuildRegion moves the build cursor: subsequent AddLAN/AddRouter
// calls create their objects in region i's Sim. Single-region networks
// have exactly one region.
func (n *Network) SetBuildRegion(i int) {
	n.buildSim = n.regions[i]
}

// Regions returns the network's region sims in shard order.
func (n *Network) Regions() []*netsim.Sim { return n.regions }

// Group returns the shard group a sharded network runs on, nil for a
// single-region network.
func (n *Network) Group() *vtime.Group { return n.group }

// Sched returns the simulation scheduler (the hub region's, for sharded
// networks — cross-region driving goes through Group).
func (n *Network) Sched() *vtime.Scheduler { return n.Sim.Sched }

// Run drains the event queue (serially for sharded networks; storm
// drivers that want parallelism call Group().Run themselves).
func (n *Network) Run() {
	if n.group != nil {
		n.group.Run(1)
		return
	}
	n.Sim.Sched.Run()
}

// RunFor advances virtual time by d.
func (n *Network) RunFor(d vtime.Duration) {
	if n.group != nil {
		n.group.RunUntil(n.group.Now().Add(d), 1)
		return
	}
	n.Sim.Sched.RunFor(d)
}

// AddLAN creates a broadcast segment with the given prefix and link
// options.
func (n *Network) AddLAN(name, prefix string, opts netsim.SegmentOpts) *LAN {
	p := ipv4.MustParsePrefix(prefix)
	if _, dup := n.lans[name]; dup {
		assert.Unreachable("inet: duplicate LAN %q", name)
	}
	lan := &LAN{
		Name:     name,
		Seg:      n.buildSim.NewSegment(name, opts),
		Prefix:   p,
		nextHost: 0,
		net:      n,
	}
	n.lans[name] = lan
	return lan
}

// LANByName returns a LAN previously added.
func (n *Network) LANByName(name string) *LAN { return n.lans[name] }

// NextAddr allocates the next host address on the LAN.
func (l *LAN) NextAddr() ipv4.Addr {
	l.nextHost++
	return l.Prefix.Host(l.nextHost)
}

// AddRouter creates a forwarding host.
func (n *Network) AddRouter(name string) *stack.Host {
	if _, dup := n.routers[name]; dup {
		assert.Unreachable("inet: duplicate router %q", name)
	}
	r := stack.NewHost(n.buildSim, name)
	r.Forwarding = true
	n.routers[name] = r
	return r
}

// AddHost creates a non-forwarding host on a LAN with an auto-allocated
// address and a default route via the LAN gateway (panics if the LAN has
// no gateway yet — attach a router first).
func (n *Network) AddHost(name string, lan *LAN) *stack.Host {
	if _, dup := n.hosts[name]; dup {
		assert.Unreachable("inet: duplicate host %q", name)
	}
	// The host lives in the region that owns its LAN, whatever the build
	// cursor says: a host's NICs, timers and traces must all stay on the
	// shard its segment belongs to.
	h := stack.NewHost(lan.Seg.Sim(), name)
	addr := lan.NextAddr()
	ifc := h.AddIface("eth0", lan.Seg, addr, lan.Prefix)
	if !lan.Gateway.IsZero() {
		h.Routes().AddDefault(ifc, lan.Gateway)
	}
	n.hosts[name] = h
	return h
}

// AddMobileHost creates a host on a LAN like AddHost but returns the
// interface too (mobility code reconfigures it).
func (n *Network) AddMobileHost(name string, lan *LAN) (*stack.Host, *stack.Iface) {
	h := n.AddHost(name, lan)
	return h, h.Ifaces()[0]
}

// Host returns a host by name (nil if absent).
func (n *Network) Host(name string) *stack.Host { return n.hosts[name] }

// Router returns a router by name (nil if absent).
func (n *Network) Router(name string) *stack.Host { return n.routers[name] }

// ARPEntries sums the ARP cache entries held by every host and router:
// the network's link-layer neighbour state.
func (n *Network) ARPEntries() int {
	total := 0
	//mob4x4vet:allow mapiter summed into a scalar; order cannot leak
	for _, h := range n.hosts {
		total += h.ARPEntries()
	}
	//mob4x4vet:allow mapiter summed into a scalar; order cannot leak
	for _, r := range n.routers {
		total += r.ARPEntries()
	}
	return total
}

// AttachRouter puts a router on a LAN with an auto-allocated address; the
// first router attached becomes the LAN's gateway.
func (n *Network) AttachRouter(r *stack.Host, lan *LAN) *stack.Iface {
	addr := lan.NextAddr()
	ifc := r.AddIface("lan-"+lan.Name, lan.Seg, addr, lan.Prefix)
	if lan.Gateway.IsZero() {
		lan.Gateway = addr
	}
	return ifc
}

// Link joins two routers with a point-to-point segment (a /30 transfer
// network) of the given latency. When the endpoints live in different
// region Sims the link is built as a split segment pair — the link
// latency becomes the shard pair's conservative lookahead window, so it
// must be positive for such links. Returns nothing; ComputeRoutes uses
// the recorded link.
func (n *Network) Link(a, b *stack.Host, latency vtime.Duration) {
	n.transferNet += 4
	p := ipv4.PrefixFrom(ipv4.AddrFromUint32(n.transferNet), 30)
	name := fmt.Sprintf("p2p-%s-%s", a.Name(), b.Name())
	var segA, segB *netsim.Segment
	if a.Sim() != b.Sim() {
		var err error
		segA, segB, err = netsim.SplitPair(a.Sim(), b.Sim(), name, netsim.SegmentOpts{Latency: latency})
		assert.NoError(err, "inet: cross-region link "+name)
	} else {
		seg := a.Sim().NewSegment(name, netsim.SegmentOpts{Latency: latency})
		segA, segB = seg, seg
	}
	aAddr := p.Host(1)
	bAddr := p.Host(2)
	a.AddIface("to-"+b.Name(), segA, aAddr, p)
	b.AddIface("to-"+a.Name(), segB, bAddr, p)
	n.links = append(n.links, &p2pLink{segA: segA, segB: segB, prefix: p, a: a, b: b, aAddr: aAddr, bAddr: bAddr})
}

// Chain creates count routers named prefix0..prefixN-1, links them in a
// path with the given per-link latency, and returns them in order. Used
// for the Figure 4 distance sweeps.
func (n *Network) Chain(prefix string, count int, latency vtime.Duration) []*stack.Host {
	rs := make([]*stack.Host, count)
	for i := range rs {
		rs[i] = n.AddRouter(fmt.Sprintf("%s%d", prefix, i))
		if i > 0 {
			n.Link(rs[i-1], rs[i], latency)
		}
	}
	return rs
}

// SetBoundaryFilter configures router r as the boundary of a domain with
// the given inside prefixes and filter switches, and tags its interfaces
// inside/outside by whether their address falls in the domain.
func (n *Network) SetBoundaryFilter(r *stack.Host, ingress, egress bool, insidePrefixes ...string) *stack.FilterPolicy {
	pol := &stack.FilterPolicy{
		IngressSourceFilter: ingress,
		EgressSourceFilter:  egress,
	}
	for _, s := range insidePrefixes {
		pol.DomainPrefixes = append(pol.DomainPrefixes, ipv4.MustParsePrefix(s))
	}
	r.Filter = pol
	for _, ifc := range r.Ifaces() {
		ifc.Outside = !pol.Inside(ifc.Addr())
	}
	return pol
}

// adjacency returns the neighbor map over routers: peer router -> the
// address we use to reach it (its address on the shared link/LAN).
func (n *Network) adjacency() map[*stack.Host]map[*stack.Host]neighbor {
	adj := make(map[*stack.Host]map[*stack.Host]neighbor)
	add := func(from, to *stack.Host, via *stack.Iface, toAddr ipv4.Addr) {
		m := adj[from]
		if m == nil {
			m = make(map[*stack.Host]neighbor)
			adj[from] = m
		}
		// Keep the first (deterministic) adjacency for a pair.
		if _, ok := m[to]; !ok {
			m[to] = neighbor{iface: via, addr: toAddr}
		}
	}
	// Point-to-point links (each end sees its own half of a split link).
	for _, l := range n.links {
		add(l.a, l.b, ifaceOn(l.a, l.segA), l.bAddr)
		add(l.b, l.a, ifaceOn(l.b, l.segB), l.aAddr)
	}
	// Routers sharing a LAN are adjacent too.
	routers := n.sortedRouters()
	var attached []*stack.Host
	for _, lan := range n.sortedLANs() {
		attached = attached[:0]
		for _, r := range routers {
			if ifaceOn(r, lan.Seg) != nil {
				attached = append(attached, r)
			}
		}
		for _, r1 := range attached {
			for _, r2 := range attached {
				if r1 != r2 {
					add(r1, r2, ifaceOn(r1, lan.Seg), ifaceOn(r2, lan.Seg).Addr())
				}
			}
		}
	}
	return adj
}

type neighbor struct {
	iface *stack.Iface
	addr  ipv4.Addr
}

func ifaceOn(h *stack.Host, seg *netsim.Segment) *stack.Iface {
	for _, ifc := range h.Ifaces() {
		if ifc.NIC().Segment() == seg {
			return ifc
		}
	}
	return nil
}

func (n *Network) sortedRouters() []*stack.Host {
	rs := make([]*stack.Host, 0, len(n.routers))
	for _, r := range n.routers {
		rs = append(rs, r)
	}
	slices.SortFunc(rs, func(a, b *stack.Host) int { return strings.Compare(a.Name(), b.Name()) })
	return rs
}

// sortedLANs returns the LANs in name order. Adjacency edges and route
// candidates are discovered by walking LANs, so the walk order must not
// come from the map.
func (n *Network) sortedLANs() []*LAN {
	names := make([]string, 0, len(n.lans))
	for name := range n.lans {
		names = append(names, name)
	}
	sort.Strings(names)
	ls := make([]*LAN, 0, len(names))
	for _, name := range names {
		ls = append(ls, n.lans[name])
	}
	return ls
}

// ComputeRoutes installs shortest-path (hop count) routes on every router
// for every LAN prefix and transfer net, and default routes on hosts via
// their LAN gateway. Call after the topology is complete; call again
// after changing it.
func (n *Network) ComputeRoutes() {
	adj := n.adjacency()
	routers := n.sortedRouters()

	// Destination prefixes and the routers directly attached to each.
	type dest struct {
		prefix   ipv4.Prefix
		attached []*stack.Host
	}
	var dests []dest
	for _, lan := range n.sortedLANs() {
		d := dest{prefix: lan.Prefix}
		for _, r := range routers {
			if ifaceOn(r, lan.Seg) != nil {
				d.attached = append(d.attached, r)
			}
		}
		dests = append(dests, d)
	}
	for _, l := range n.links {
		dests = append(dests, dest{prefix: l.prefix, attached: []*stack.Host{l.a, l.b}})
	}

	// BFS from every router, reusing the scratch structures across
	// sources (clear() keeps map buckets allocated).
	var peers []*stack.Host
	dist := make(map[*stack.Host]int, len(routers))
	first := make(map[*stack.Host]neighbor, len(routers)) // first hop on path to each router
	queue := make([]*stack.Host, 0, len(routers))
	for _, src := range routers {
		clear(dist)
		clear(first)
		dist[src] = 0
		queue = append(queue[:0], src)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			// Deterministic neighbor order.
			peers = peers[:0]
			for p := range adj[cur] {
				peers = append(peers, p)
			}
			slices.SortFunc(peers, func(a, b *stack.Host) int { return strings.Compare(a.Name(), b.Name()) })
			for _, p := range peers {
				if _, seen := dist[p]; seen {
					continue
				}
				dist[p] = dist[cur] + 1
				if cur == src {
					first[p] = adj[src][p]
				} else {
					first[p] = first[cur]
				}
				queue = append(queue, p)
			}
		}

		// For each destination prefix, route via the nearest attached
		// router.
		for _, d := range dests {
			attachedHere := false
			for _, r := range d.attached {
				if r == src {
					attachedHere = true
					break
				}
			}
			if attachedHere {
				continue // connected route already present
			}
			bestDist := -1
			var bestVia neighbor
			for _, r := range d.attached {
				dd, ok := dist[r]
				if !ok {
					continue
				}
				if bestDist < 0 || dd < bestDist {
					bestDist = dd
					bestVia = first[r]
				}
			}
			if bestDist < 0 {
				continue // unreachable; leave no route
			}
			src.Routes().Remove(d.prefix)
			src.Routes().Add(stack.Route{
				Prefix:  d.prefix,
				NextHop: bestVia.addr,
				Iface:   bestVia.iface,
				Metric:  10 + bestDist,
			})
		}
	}

	// Hosts: refresh default routes via their LAN gateway (AddHost may
	// have run before the gateway existed).
	hostNames := make([]string, 0, len(n.hosts))
	for name := range n.hosts {
		hostNames = append(hostNames, name)
	}
	sort.Strings(hostNames)
	for _, name := range hostNames {
		h := n.hosts[name]
		ifc := h.Ifaces()[0]
		for _, lan := range n.sortedLANs() {
			if lan.Seg == ifc.NIC().Segment() && !lan.Gateway.IsZero() {
				h.Routes().Remove(ipv4.Prefix{})
				h.Routes().AddDefault(ifc, lan.Gateway)
			}
		}
	}
}
