// Degradable links: a Degraded wrapper turns any immutable Network into
// one whose links can lose bandwidth or go down mid-run, the topology
// half of the scaleout fault model (internal/fault). Degradation is
// expressed against the underlying topology's minimal routes — the
// physical channels a src -> dst message would cross — and observed by
// every Flight created afterwards:
//
//   - Slow multiplies the store-and-forward occupancy of each route link
//     by 1/factor (factor = surviving bandwidth fraction), so messages
//     sharing a degraded channel queue behind proportionally longer
//     reservations.
//   - CutRoute removes the route's links outright; AppendRoute then
//     detours through the lowest-numbered intermediate node whose two
//     legs avoid every cut link (deterministic, minimal-plus-one-stop
//     rerouting). Verify reports whether any live pair has been
//     disconnected — callers apply it after every outage, before traffic
//     flows.
//
// BarrierCycles is inherited unchanged: the log-tree barrier rides the
// latency plane, which bandwidth loss does not touch. The wrapper keeps
// no Flight state; like the underlying networks it only describes the
// machine, so one Degraded instance can price many exchanges as its link
// state evolves between them.
package topo

import "fmt"

// Degraded wraps a Network with mutable per-link health: bandwidth
// multipliers and cut links. The zero state (nothing slowed, nothing
// cut) is indistinguishable from the wrapped network, including the
// Flight hot path.
type Degraded struct {
	Network
	// slow[l] is link l's occupancy multiplier (>= 1); nil until the
	// first Slow call, which is what keeps healthy Flights on their
	// single-branch fast path.
	slow []float64
	// cut[l] marks a downed link; nil until the first CutRoute call.
	cut []bool
	// scratch backs allocation-free route inspection.
	scratch []int
}

// NewDegraded wraps net; wrapping a Degraded network returns it
// unchanged (link state composes on one wrapper).
func NewDegraded(net Network) *Degraded {
	if d, ok := net.(*Degraded); ok {
		return d
	}
	return &Degraded{Network: net}
}

// slowdowns exposes the multiplier table to NewFlight (nil while no link
// has been slowed).
func (d *Degraded) slowdowns() []float64 { return d.slow }

// checkPair validates a routed channel endpoint pair.
func (d *Degraded) checkPair(src, dst int) error {
	n := d.Nodes()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return fmt.Errorf("topo: route %d -> %d outside %d nodes", src, dst, n)
	}
	if src == dst {
		return fmt.Errorf("topo: cannot degrade the local path %d -> %d", src, dst)
	}
	return nil
}

// Slow multiplies the occupancy of every link on the underlying minimal
// src -> dst route by 1/factor, factor being the surviving bandwidth
// fraction in (0, 1]. Repeated degradations of a shared link compound.
func (d *Degraded) Slow(src, dst int, factor float64) error {
	if err := d.checkPair(src, dst); err != nil {
		return err
	}
	if !(factor > 0 && factor <= 1) {
		return fmt.Errorf("topo: degrade factor %g outside (0, 1]", factor)
	}
	if d.slow == nil {
		d.slow = make([]float64, d.NumLinks())
		for i := range d.slow {
			d.slow[i] = 1
		}
	}
	d.scratch = d.Network.AppendRoute(d.scratch[:0], src, dst)
	for _, l := range d.scratch {
		d.slow[l] *= 1 / factor
	}
	return nil
}

// CutRoute takes down the src -> dst channel. On a multi-hop topology it
// removes the route's intermediate channel links while sparing the
// endpoint NIC ports (every route a node owns crosses its egress port, so
// cutting ports would sever the node outright rather than the channel);
// detours around the cut remain possible. A direct port-to-port route
// (full mesh, dragonfly intra-group) has only the two ports to remove, so
// cutting it severs the endpoints — model a flaky mesh wire with Slow
// instead. Call Verify afterwards: a cut that disconnects two live nodes
// is an unrecoverable configuration, and AppendRoute panics if asked to
// route across one.
func (d *Degraded) CutRoute(src, dst int) error {
	if err := d.checkPair(src, dst); err != nil {
		return err
	}
	if d.cut == nil {
		d.cut = make([]bool, d.NumLinks())
	}
	d.scratch = d.Network.AppendRoute(d.scratch[:0], src, dst)
	seg := d.scratch
	if len(seg) > 2 {
		seg = seg[1 : len(seg)-1]
	}
	for _, l := range seg {
		d.cut[l] = true
	}
	return nil
}

// clean reports whether no link of the segment is cut.
func (d *Degraded) clean(seg []int) bool {
	for _, l := range seg {
		if d.cut[l] {
			return false
		}
	}
	return true
}

// legClean reports whether the underlying minimal src -> dst route avoids
// every cut link.
func (d *Degraded) legClean(src, dst int) bool {
	d.scratch = d.Network.AppendRoute(d.scratch[:0], src, dst)
	return d.clean(d.scratch)
}

// detour returns the lowest-numbered intermediate node w whose src -> w
// and w -> dst legs both avoid the cut links, or -1 if none exists.
func (d *Degraded) detour(src, dst int) int {
	for w := 0; w < d.Nodes(); w++ {
		if w == src || w == dst {
			continue
		}
		if d.legClean(src, w) && d.legClean(w, dst) {
			return w
		}
	}
	return -1
}

// AppendRoute implements Network: the underlying minimal route while it
// survives, otherwise the deterministic one-stop detour around the cut
// links. Routing across a disconnected pair is a caller error (Verify
// catches it at fault-application time) and panics.
func (d *Degraded) AppendRoute(path []int, src, dst int) []int {
	n0 := len(path)
	path = d.Network.AppendRoute(path, src, dst)
	if d.cut == nil || d.clean(path[n0:]) {
		return path
	}
	path = path[:n0]
	w := d.detour(src, dst)
	if w < 0 {
		panic(fmt.Sprintf("topo: no route %d -> %d survives the cut links (Verify after every outage)", src, dst))
	}
	path = d.Network.AppendRoute(path, src, w)
	return d.Network.AppendRoute(path, w, dst)
}

// Routable reports whether src can still reach dst (directly or via the
// one-stop detour).
func (d *Degraded) Routable(src, dst int) bool {
	if src == dst {
		return true
	}
	if d.cut == nil || d.legClean(src, dst) {
		return true
	}
	return d.detour(src, dst) >= 0
}

// Verify checks that every ordered pair of live nodes (all nodes when
// live is nil) can still route; the first disconnected pair is returned
// as an error.
func (d *Degraded) Verify(live []bool) error {
	n := d.Nodes()
	for src := 0; src < n; src++ {
		if live != nil && !live[src] {
			continue
		}
		for dst := 0; dst < n; dst++ {
			if dst == src || (live != nil && !live[dst]) {
				continue
			}
			if !d.Routable(src, dst) {
				return fmt.Errorf("topo: nodes %d and %d are disconnected by the cut links", src, dst)
			}
		}
	}
	return nil
}
