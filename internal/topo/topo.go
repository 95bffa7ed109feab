// Package topo models the scale-out interconnect as a routed network of
// serializing links, replacing the flat full-mesh LinkConfig that
// internal/scaleout started with. A Network is a static set of directed
// links plus a minimal-routing function; messages traverse their route
// store-and-forward, holding each link for bytes/BytesPerCycle cycles and
// paying LatencyCycles between consecutive links, with per-link
// contention resolved in deterministic arrival order on the internal/sim
// event kernel. Three topologies are provided:
//
//   - FullMesh: every node pair joined by a dedicated wire; a message
//     crosses only its source's egress port and its destination's ingress
//     port. This is cycle-exact with the pre-refactor LinkConfig model
//     (golden-pinned by the scaleout and experiments tests).
//   - Torus2D: an X×Y wraparound grid with dimension-order (x then y)
//     routing; messages share the per-node directed channels of every
//     intermediate hop, so neighboring traffic contends even when sources
//     and destinations differ.
//   - Dragonfly: near-square groups of nodes, each group an all-to-all
//     clique, with one global channel per ordered group pair hosted by a
//     deterministic gateway node; minimal routing goes local → global →
//     local, concentrating inter-group traffic on the global channels.
//
// The same occupancy discipline prices both the analytic all-to-all
// exchanges (Exchange) and the event-driven streaming of the overlapped
// scale-out runtime (Flight), so BSP and overlapped replays see one
// consistent network model.
package topo

import (
	"fmt"

	"nmppak/internal/sim"
)

// Kind selects a topology family.
type Kind int

const (
	// FullMesh is a dedicated wire per node pair (the PR 3 model).
	FullMesh Kind = iota
	// Torus2D is an X×Y wraparound grid with dimension-order routing.
	Torus2D
	// Dragonfly is all-to-all groups joined by per-group-pair global links.
	Dragonfly
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case FullMesh:
		return "fullmesh"
	case Torus2D:
		return "torus2d"
	case Dragonfly:
		return "dragonfly"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Config declares an interconnect: a topology family, its shape, and the
// per-link parameters every topology shares. Zero torus dimensions select
// an automatic near-square shape (dragonfly groups are always near-square),
// so the same Config can be reused across machine sizes.
type Config struct {
	Kind Kind
	// LatencyCycles is the wire/router latency paid between consecutive
	// links of a route (1600 cy = 1 us at 1.6 GHz).
	LatencyCycles sim.Cycle
	// BytesPerCycle is the per-link bandwidth (15.625 B/cy = 25 GB/s).
	BytesPerCycle float64
	// TorusX, TorusY are the Torus2D dimensions; both zero auto-factors
	// the node count into the most nearly square grid.
	TorusX, TorusY int
}

// Fingerprint renders c in the layout %+v gave it when the dragonfly
// group size was a field (always 0, the automatic shape, outside tests).
// Checkpoint config digests hash this text, so it must not change.
func (c Config) Fingerprint() string {
	return fmt.Sprintf("{Kind:%v LatencyCycles:%d BytesPerCycle:%v TorusX:%d TorusY:%d GroupSize:0}",
		c.Kind, c.LatencyCycles, c.BytesPerCycle, c.TorusX, c.TorusY)
}

// Default returns the default interconnect: a 25 GB/s, 1 us full mesh —
// a 200 Gb/s-class NIC with RDMA-ish latency, identical to the
// pre-refactor DefaultLink.
func Default() Config {
	return Config{Kind: FullMesh, LatencyCycles: 1600, BytesPerCycle: 15.625}
}

// Torus returns the default link parameters on an X×Y torus (zero dims:
// auto near-square).
func Torus(x, y int) Config {
	c := Default()
	c.Kind = Torus2D
	c.TorusX, c.TorusY = x, y
	return c
}

// DragonflyGroups returns the default link parameters on a dragonfly of
// near-square groups (dragonflyShape).
func DragonflyGroups() Config {
	c := Default()
	c.Kind = Dragonfly
	return c
}

// torusShape resolves the configured torus dimensions for n nodes: both
// zero picks the most nearly square factoring of n (X >= Y).
func (c Config) torusShape(n int) (x, y int) {
	x, y = c.TorusX, c.TorusY
	if x == 0 && y == 0 {
		for y = intSqrt(n); y > 1; y-- {
			if n%y == 0 {
				break
			}
		}
		if y < 1 {
			y = 1
		}
		x = n / y
	}
	return x, y
}

// dragonflyShape is the group size for n nodes: the smallest divisor of n
// that is >= sqrt(n), so groups are at least as wide as they are many, the
// canonical dragonfly balance. A machine of more than one group therefore
// never has single-node groups.
func dragonflyShape(n int) (groupSize int) {
	g := intSqrt(n)
	if g*g < n {
		g++ // ceil(sqrt(n))
	}
	for n%g != 0 {
		g++
	}
	return g
}

// minBytesPerCycle is the lowest link bandwidth Validate accepts. A
// message holds each link for bytes/BytesPerCycle cycles: at this floor
// (1.6 MB/s at 1.6 GHz) a message of up to about 9 PB still prices inside
// the int64 cycle range, while at a rate like 1e-300 an ordinary halo
// payload leaves it and the conversion would price the link as free.
const minBytesPerCycle = 1e-3

// maxLatencyCycles is the highest link latency Validate accepts: 2^32
// cycles, about 2.7 s per link at 1.6 GHz, a million times a 1 us NIC
// hop. Up to 2^16 nodes, the most a scaleout run allows, the worst
// barrier crosses under 2^21 latency transitions (a 2^16-node torus ring:
// 2 × 16 tree hops of 2^15 + 1 transitions each) and the worst route,
// a detour around a cut on that ring, under 2^17, so neither leaves
// 2^53 cycles. An unbounded latency wraps them: at 2^58 cycles an 8×8
// torus's barrier is negative.
const maxLatencyCycles = 1 << 32

// ValidateDegrade checks a link-degrade factor against the configuration:
// the factor must lie in (0, 1] and leave the links at least
// minBytesPerCycle, so that a degraded link still prices every message
// inside the cycle range. Degraded.Slow enforces the same floor on links
// that repeated degrades compound.
func (c Config) ValidateDegrade(factor float64) error {
	if !(factor > 0 && factor <= 1) {
		return fmt.Errorf("topo: degrade factor %g outside (0, 1]", factor)
	}
	if !(c.BytesPerCycle/(1/factor) >= minBytesPerCycle) { // as Slow prices it
		return fmt.Errorf("topo: degrade factor %g takes the %g B/cycle links below the %g B/cycle floor", factor, c.BytesPerCycle, minBytesPerCycle)
	}
	return nil
}

// Validate checks the configuration against a machine size, rejecting a
// link bandwidth that is NaN or below minBytesPerCycle, a link latency
// outside [0, maxLatencyCycles], and a torus whose dimensions do not
// multiply to the node count (including half-specified dimensions).
func (c Config) Validate(nodes int) error {
	if nodes < 1 {
		return fmt.Errorf("topo: node count must be >= 1, got %d", nodes)
	}
	if !(c.BytesPerCycle >= minBytesPerCycle) {
		return fmt.Errorf("topo: link bandwidth must be at least %g B/cycle, got %v", minBytesPerCycle, c.BytesPerCycle)
	}
	if c.LatencyCycles < 0 || c.LatencyCycles > maxLatencyCycles {
		return fmt.Errorf("topo: link latency must be in [0, %d] cycles, got %d", int64(maxLatencyCycles), c.LatencyCycles)
	}
	switch c.Kind {
	case FullMesh, Dragonfly:
	case Torus2D:
		if c.TorusX < 0 || c.TorusY < 0 {
			return fmt.Errorf("topo: torus dimensions must be non-negative, got %dx%d", c.TorusX, c.TorusY)
		}
		x, y := c.torusShape(nodes)
		if x < 1 || y < 1 || nodes%x != 0 || nodes/x != y { // x*y may overflow
			return fmt.Errorf("topo: torus %dx%d is not a rectangular tiling of %d nodes", x, y, nodes)
		}
	default:
		return fmt.Errorf("topo: unknown topology kind %d", int(c.Kind))
	}
	return nil
}

// Build validates the configuration and constructs the Network instance
// for an n-node machine.
func (c Config) Build(nodes int) (Network, error) {
	if err := c.Validate(nodes); err != nil {
		return nil, err
	}
	ls := linkSpec{n: nodes, lat: c.LatencyCycles, bpc: c.BytesPerCycle}
	switch c.Kind {
	case Torus2D:
		x, y := c.torusShape(nodes)
		ls.links = 2*nodes + 4*nodes
		return &torus2D{linkSpec: ls, x: x, y: y}, nil
	case Dragonfly:
		g := dragonflyShape(nodes)
		groups := nodes / g
		ls.links = 2*nodes + groups*g*(g-1) + groups*(groups-1)
		return &dragonfly{linkSpec: ls, g: g, groups: groups}, nil
	default:
		ls.links = 2 * nodes
		return &fullMesh{linkSpec: ls}, nil
	}
}

// intSqrt returns floor(sqrt(n)) for small non-negative n.
func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// ceilLog2 returns ceil(log2 n), 0 for n <= 1.
func ceilLog2(n int) int {
	h := 0
	for c := 1; c < n; c <<= 1 {
		h++
	}
	return h
}
