package topo

import (
	"slices"
	"testing"

	"nmppak/internal/sim"
)

// FuzzRoute drives arbitrary (topology, machine size, src, dst, message
// size) tuples through the routing and occupancy layer and asserts the
// structural invariants every topology must uphold:
//
//   - the returned path is walkable: it starts at src's egress port, ends
//     at dst's ingress port, and every intermediate channel leaves the
//     node the previous hop arrived at (adjacency, checked by decoding
//     each topology's link numbering and walking a cursor from src to
//     dst);
//   - link IDs are in range and never repeat (routes are minimal);
//   - paths are deterministic for (src, dst), across calls and across
//     independently built Network instances;
//   - store-and-forward occupancy conserves the message: every hop holds
//     its link for exactly Dur(bytes) — the full message crosses every
//     link of the path — while Exchange accounts the payload once
//     (TotalBytes equals the message bytes, not bytes × hops), and an
//     uncontended delivery lands at the closed-form time
//     Dur + (hops-1) × (Latency + Dur).
func FuzzRoute(f *testing.F) {
	f.Add(uint8(0), uint8(8), uint16(0), uint16(5), uint32(4096))
	f.Add(uint8(1), uint8(8), uint16(3), uint16(6), uint32(1))
	f.Add(uint8(1), uint8(12), uint16(11), uint16(4), uint32(100_000))
	f.Add(uint8(2), uint8(8), uint16(1), uint16(7), uint32(777))
	f.Add(uint8(2), uint8(16), uint16(15), uint16(2), uint32(64))
	f.Add(uint8(2), uint8(63), uint16(9), uint16(41), uint32(8))
	f.Fuzz(func(t *testing.T, kind, n uint8, src, dst uint16, msgBytes uint32) {
		nodes := int(n)%64 + 1
		var cfg Config
		switch kind % 3 {
		case 0:
			cfg = Default()
		case 1:
			cfg = Torus(0, 0)
		case 2:
			cfg = DragonflyGroups()
		}
		net, err := cfg.Build(nodes)
		if err != nil {
			t.Fatalf("auto-shaped %v rejected %d nodes: %v", cfg.Kind, nodes, err)
		}
		s, d := int(src)%nodes, int(dst)%nodes
		if s == d {
			return // local data never enters the network
		}

		path := net.AppendRoute(nil, s, d)
		if len(path) < 2 {
			t.Fatalf("%s: route %d->%d has %d links", net.Name(), s, d, len(path))
		}
		for _, l := range path {
			if l < 0 || l >= net.NumLinks() {
				t.Fatalf("%s: route %d->%d uses link %d of %d", net.Name(), s, d, l, net.NumLinks())
			}
		}
		seen := make(map[int]bool, len(path))
		for _, l := range path {
			if seen[l] {
				t.Fatalf("%s: route %d->%d crosses link %d twice", net.Name(), s, d, l)
			}
			seen[l] = true
		}
		walkRoute(t, net, path, s, d)

		// Determinism: same instance and an independently built twin.
		if again := net.AppendRoute(nil, s, d); !slices.Equal(path, again) {
			t.Fatalf("%s: route %d->%d not deterministic: %v vs %v", net.Name(), s, d, path, again)
		}
		twin, err := cfg.Build(nodes)
		if err != nil {
			t.Fatal(err)
		}
		if tp := twin.AppendRoute(nil, s, d); !slices.Equal(path, tp) {
			t.Fatalf("%s: route %d->%d differs across instances: %v vs %v", net.Name(), s, d, path, tp)
		}

		// Occupancy: a single uncontended message holds every path link for
		// exactly Dur(b), store-and-forward, and lands at the closed-form
		// delivery time.
		b := int64(msgBytes%1_000_000) + 1
		eng := &sim.Engine{}
		fl := NewFlight(net)
		fl.Reset(eng, nil)
		delivered := sim.Cycle(-1)
		fl.OnDeliver(func(int, int, int32) { delivered = eng.Now() })
		fl.Send(s, d, b, 0)
		eng.Run()
		dur := fl.Dur(b)
		end := dur // link 0 is reserved at Send time, from cycle 0
		for h := 1; h < len(path); h++ {
			if fl.free[path[h-1]] != end {
				t.Fatalf("%s: link %d held until %d, want %d (hop bytes must equal message bytes)",
					net.Name(), path[h-1], fl.free[path[h-1]], end)
			}
			end += net.LatencyCycles() + dur
		}
		if fl.free[path[len(path)-1]] != end {
			t.Fatalf("%s: final link %d held until %d, want %d", net.Name(), path[len(path)-1], fl.free[path[len(path)-1]], end)
		}
		if delivered != end {
			t.Fatalf("%s: %d bytes %d->%d delivered at %d, want Dur+(hops-1)*(lat+Dur) = %d",
				net.Name(), b, s, d, delivered, end)
		}
		for l, free := range fl.free {
			if free != 0 && !seen[l] {
				t.Fatalf("%s: off-route link %d was reserved until %d", net.Name(), l, free)
			}
		}

		// Exchange accounts the payload once, not once per hop.
		m := make([][]int64, nodes)
		for i := range m {
			m[i] = make([]int64, nodes)
		}
		m[s][d] = b
		st := Exchange(net, m)
		if st.TotalBytes != b || st.Messages != 1 {
			t.Fatalf("%s: Exchange counted %d bytes / %d messages for one %d-byte message",
				net.Name(), st.TotalBytes, st.Messages, b)
		}
		if st.Cycles != end {
			t.Fatalf("%s: Exchange finished at %d, single-message delivery is at %d", net.Name(), st.Cycles, end)
		}
	})
}

// walkRoute validates adjacency by decoding the topology's link numbering
// and walking a cursor along the path: every hop must leave the node the
// previous hop arrived at, and the walk must end at dst.
func walkRoute(t *testing.T, net Network, path []int, src, dst int) {
	t.Helper()
	n := net.Nodes()
	if path[0] != src {
		t.Fatalf("%s: route %d->%d starts at link %d, want egress port %d", net.Name(), src, dst, path[0], src)
	}
	if last := path[len(path)-1]; last != n+dst {
		t.Fatalf("%s: route %d->%d ends at link %d, want ingress port %d", net.Name(), src, dst, last, n+dst)
	}
	mid := path[1 : len(path)-1]
	cur := src
	switch m := net.(type) {
	case *fullMesh:
		if len(mid) != 0 {
			t.Fatalf("fullmesh: route %d->%d has intermediate links %v", src, dst, mid)
		}
		cur = dst // every node pair is joined by a dedicated wire
	case *torus2D:
		cx, cy := cur%m.x, cur/m.x
		for _, l := range mid {
			off := l - 2*n
			if off < 0 || off >= 4*n {
				t.Fatalf("%s: link %d is not a torus channel", net.Name(), l)
			}
			node, dir := off/4, off%4
			if node != cy*m.x+cx {
				t.Fatalf("%s: hop leaves node %d but cursor is at node %d — not adjacent", net.Name(), node, cy*m.x+cx)
			}
			switch dir {
			case dirXPlus:
				cx = (cx + 1) % m.x
			case dirXMinus:
				cx = (cx + m.x - 1) % m.x
			case dirYPlus:
				cy = (cy + 1) % m.y
			case dirYMinus:
				cy = (cy + m.y - 1) % m.y
			}
		}
		cur = cy*m.x + cx
	case *dragonfly:
		if len(mid) == 0 {
			if src/m.g != dst/m.g {
				t.Fatalf("%s: inter-group route %d->%d crosses no channels", net.Name(), src, dst)
			}
			cur = dst // intra-group pairs are a clique: dedicated wire
			break
		}
		locals := m.groups * m.g * (m.g - 1)
		for _, l := range mid {
			off := l - 2*n
			switch {
			case off >= 0 && off < locals:
				grp := off / (m.g * (m.g - 1))
				rem := off % (m.g * (m.g - 1))
				u, v := rem/(m.g-1), rem%(m.g-1)
				if v >= u {
					v++
				}
				if cur != grp*m.g+u {
					t.Fatalf("%s: local channel leaves node %d but cursor is at %d — not adjacent", net.Name(), grp*m.g+u, cur)
				}
				cur = grp*m.g + v
			case off >= locals && off < locals+m.groups*(m.groups-1):
				goff := off - locals
				a, bb := goff/(m.groups-1), goff%(m.groups-1)
				if bb >= a {
					bb++
				}
				if gw := a*m.g + bb%m.g; cur != gw {
					t.Fatalf("%s: global channel %d->%d leaves gateway %d but cursor is at %d — not adjacent", net.Name(), a, bb, gw, cur)
				}
				cur = bb*m.g + a%m.g
			default:
				t.Fatalf("%s: link %d is neither a local nor a global channel", net.Name(), l)
			}
		}
	default:
		t.Fatalf("unknown topology type %T", net)
	}
	if cur != dst {
		t.Fatalf("%s: route %d->%d walks to node %d instead", net.Name(), src, dst, cur)
	}
}
