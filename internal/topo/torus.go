package topo

import (
	"fmt"

	"nmppak/internal/sim"
)

// torus2D is an x×y wraparound grid. Node i sits at (i mod x, i div x);
// every node owns four directed channels (+x, -x, +y, -y) to its grid
// neighbors plus its injection (egress) and ejection (ingress) ports.
// Routing is dimension-order — the shorter wraparound direction along x,
// then along y — so all traffic between two columns funnels through the
// same row channels and contends, which is exactly the fidelity the flat
// full mesh lacked.
//
// Link IDs: egress(i) = i, ingress(i) = n + i,
// channel(i, dir) = 2n + 4i + dir with dir in {+x=0, -x=1, +y=2, -y=3}.
type torus2D struct {
	linkSpec
	x, y int
}

func (t *torus2D) Name() string { return fmt.Sprintf("torus%dx%d", t.x, t.y) }

const (
	dirXPlus = iota
	dirXMinus
	dirYPlus
	dirYMinus
)

func (t *torus2D) channel(node, dir int) int { return 2*t.n + 4*node + dir }

func (t *torus2D) AppendRoute(path []int, src, dst int) []int {
	path = append(path, src) // egress port
	cx, cy := src%t.x, src/t.x
	dx, dy := dst%t.x, dst/t.x
	// Walk x via the shorter wraparound (ties break toward +x), then y.
	steps := (dx - cx + t.x) % t.x
	dir, move := dirXPlus, 1
	if steps > t.x-steps {
		steps, dir, move = t.x-steps, dirXMinus, t.x-1
	}
	for ; steps > 0; steps-- {
		path = append(path, t.channel(cy*t.x+cx, dir))
		cx = (cx + move) % t.x
	}
	steps = (dy - cy + t.y) % t.y
	dir, move = dirYPlus, 1
	if steps > t.y-steps {
		steps, dir, move = t.y-steps, dirYMinus, t.y-1
	}
	for ; steps > 0; steps-- {
		path = append(path, t.channel(cy*t.x+cx, dir))
		cy = (cy + move) % t.y
	}
	return append(path, t.n+dst) // ingress port
}

// BarrierCycles prices each tree hop at the torus's worst-case unloaded
// route latency: the diameter in channel crossings plus the final wire
// into the ingress port.
func (t *torus2D) BarrierCycles() sim.Cycle {
	return t.treeBarrier(t.x/2 + t.y/2 + 1)
}
