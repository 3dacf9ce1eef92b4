package netsim

// SetFloodARP switches sim's segments between targeted ARP delivery (the
// default, false) and flooding every broadcast ARP frame to every
// attached NIC (true). Differential tests run the same workload both ways
// and require identical outcomes.
func SetFloodARP(sim *Sim, v bool) { sim.floodARP = v }

// ARPInterest reports how many addresses n holds ARP interest in.
func ARPInterest(n *NIC) int { return n.arp.n + len(n.arp.more) }
