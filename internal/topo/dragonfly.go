package topo

import (
	"fmt"

	"nmppak/internal/sim"
)

// dragonfly is `groups` all-to-all cliques of g nodes each. Intra-group
// messages cross a dedicated wire (egress -> ingress, like the full
// mesh). Each ordered group pair (A, B) shares one global channel, hosted
// by gateway node A*g + (B mod g) and landing at B*g + (A mod g); minimal
// routing goes src -> gateway (local forwarding channel) -> global
// channel -> landing node -> dst (local forwarding channel), so all A->B
// traffic serializes on one global channel and the gateways' forwarding
// channels — the classic dragonfly hotspot the full mesh cannot express.
//
// Link IDs: egress(i) = i, ingress(i) = n + i; local forwarding channels
// are one per ordered intra-group pair starting at 2n; global channels
// are one per ordered group pair after the locals.
type dragonfly struct {
	linkSpec
	g      int // nodes per group
	groups int
}

func (d *dragonfly) Name() string { return fmt.Sprintf("dragonfly%dx%d", d.groups, d.g) }

// local returns the forwarding channel from node u to node v, both in
// group grp (u != v), as ordered-pair index within the group's block.
func (d *dragonfly) local(grp, u, v int) int {
	j := v
	if v > u {
		j--
	}
	return 2*d.n + grp*d.g*(d.g-1) + u*(d.g-1) + j
}

// global returns the channel from group a to group b (a != b).
func (d *dragonfly) global(a, b int) int {
	j := b
	if b > a {
		j--
	}
	return 2*d.n + d.groups*d.g*(d.g-1) + a*(d.groups-1) + j
}

func (d *dragonfly) AppendRoute(path []int, src, dst int) []int {
	path = append(path, src) // egress port
	ga, gb := src/d.g, dst/d.g
	if ga != gb {
		hSrc := ga*d.g + gb%d.g // gateway hosting the ga -> gb channel
		hDst := gb*d.g + ga%d.g // its landing node in gb
		if src != hSrc {
			path = append(path, d.local(ga, src%d.g, hSrc%d.g))
		}
		path = append(path, d.global(ga, gb))
		if hDst != dst {
			path = append(path, d.local(gb, hDst%d.g, dst%d.g))
		}
	}
	return append(path, d.n+dst) // ingress port
}

// BarrierCycles prices each tree hop at the worst-case unloaded route:
// local -> global -> local -> ingress (4 latency transitions) once the
// machine spans more than one multi-node group; with single-node groups
// the local forwarding hops vanish (every node is its own gateway, 2
// transitions), and a single group is a clique (1 wire crossing).
func (d *dragonfly) BarrierCycles() sim.Cycle {
	switch {
	case d.groups > 1 && d.g > 1:
		return d.treeBarrier(4)
	case d.groups > 1:
		return d.treeBarrier(2)
	}
	return d.treeBarrier(1)
}
