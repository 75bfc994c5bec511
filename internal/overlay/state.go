package overlay

import "sort"

// LinkState is one directed link's complete mutable state: capacity,
// standing reservations, delay, loss and the link's own failure flag
// (host crashes are exported separately). A durable snapshot carries
// these so a rebuilt network matches the live one bit for bit —
// reservations included, which re-reserving member holds in a different
// order would only match to rounding.
type LinkState struct {
	From         string  `json:"from"`
	To           string  `json:"to"`
	CapacityKbps float64 `json:"capacityKbps"`
	ReservedKbps float64 `json:"reservedKbps,omitempty"`
	DelayMs      float64 `json:"delayMs,omitempty"`
	LossRate     float64 `json:"lossRate,omitempty"`
	Down         bool    `json:"down,omitempty"`
}

// State exports every link's state, sorted by (from, to), and the
// crashed hosts, sorted.
func (n *Network) State() (links []LinkState, downHosts []string) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	links = make([]LinkState, 0, len(n.links))
	for e, l := range n.links {
		links = append(links, LinkState{
			From: e.from, To: e.to,
			CapacityKbps: l.bandwidthKbps, ReservedKbps: l.reservedKbps,
			DelayMs: l.delayMs, LossRate: l.lossRate, Down: l.down,
		})
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	for id := range n.down {
		downHosts = append(downHosts, id)
	}
	sort.Strings(downHosts)
	return links, downHosts
}

// Restore installs exported state: every listed link takes exactly the
// given state (missing links are added) and exactly the listed hosts
// are crashed. Links the export does not list are left alone. Watchers
// are not notified — a restore rebuilds state, it is not an event.
func (n *Network) Restore(links []LinkState, downHosts []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ls := range links {
		n.nodes[ls.From] = true
		n.nodes[ls.To] = true
		n.links[edge{ls.From, ls.To}] = &linkState{
			bandwidthKbps: ls.CapacityKbps,
			reservedKbps:  ls.ReservedKbps,
			delayMs:       ls.DelayMs,
			lossRate:      ls.LossRate,
			down:          ls.Down,
		}
	}
	n.down = make(map[string]bool, len(downHosts))
	for _, id := range downHosts {
		n.nodes[id] = true
		n.down[id] = true
	}
	n.gen++
}
