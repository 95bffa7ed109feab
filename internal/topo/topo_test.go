package topo

import (
	"math"
	"strings"
	"testing"

	"nmppak/internal/sim"
)

func mat(n int) [][]int64 {
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
	}
	return m
}

func build(t *testing.T, c Config, n int) Network {
	t.Helper()
	net, err := c.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// testLink is the 10 B/cy, 100 cy configuration the pre-refactor
// LinkConfig exchange test pinned its numbers against.
func testLink(k Kind) Config {
	return Config{Kind: k, LatencyCycles: 100, BytesPerCycle: 10}
}

// The full mesh must reproduce the pre-refactor LinkConfig exchange model
// cycle for cycle: these are the exact numbers the old
// scaleout.TestExchangeModel pinned.
func TestFullMeshExchangeModel(t *testing.T) {
	lc := testLink(FullMesh)
	if st := Exchange(build(t, lc, 1), mat(1)); st.Cycles != 0 || st.TotalBytes != 0 {
		t.Fatalf("1-node exchange should be free, got %+v", st)
	}
	// Two nodes, one message each way: 1000 B -> 101 cy egress (100 + 1
	// launch) + 100 latency + 101 cy ingress = 302.
	bytes := mat(2)
	bytes[0][1] = 1000
	bytes[1][0] = 1000
	st := Exchange(build(t, lc, 2), bytes)
	if st.Cycles != 302 {
		t.Fatalf("exchange cycles = %d, want 302", st.Cycles)
	}
	if st.TotalBytes != 2000 || st.Messages != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Ingress contention: two senders to one receiver serialize at the
	// receiver, 302 + 101 = 403.
	bytes = mat(3)
	bytes[0][2] = 1000
	bytes[1][2] = 1000
	st = Exchange(build(t, lc, 3), bytes)
	if st.Cycles != 403 {
		t.Fatalf("contended exchange cycles = %d, want 403", st.Cycles)
	}
	if build(t, lc, 1).BarrierCycles() != 0 {
		t.Fatal("1-node barrier must be free")
	}
	if got := build(t, lc, 8).BarrierCycles(); got != 2*3*100 {
		t.Fatalf("8-node barrier = %d, want 600", got)
	}
	if build(t, lc, 5).BarrierCycles() != build(t, lc, 8).BarrierCycles() {
		t.Fatal("5 nodes needs the same tree depth as 8")
	}
	// A dragonfly's barrier prices its actual worst route: a single
	// group (a prime node count) is a clique priced like the mesh (1
	// latency transition), several groups cross local -> global -> local
	// -> ingress (4).
	dfly := testLink(Dragonfly)
	if got := build(t, dfly, 7).BarrierCycles(); got != 2*3*100 {
		t.Fatalf("single-group dragonfly barrier = %d, want 600", got)
	}
	if got := build(t, dfly, 8).BarrierCycles(); got != 2*3*100*4 {
		t.Fatalf("two-group dragonfly barrier = %d, want 2400", got)
	}
}

// Validate must reject impossible shapes with telling errors and accept
// the shapes the studies use.
func TestConfigValidateShapes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		nodes int
		want  string
	}{
		{"zero bandwidth", Config{Kind: FullMesh}, 4, "bandwidth"},
		{"NaN bandwidth", Config{Kind: FullMesh, BytesPerCycle: math.NaN()}, 4, "bandwidth"},
		{"unpriceable bandwidth", Config{Kind: FullMesh, BytesPerCycle: 1e-300}, 4, "bandwidth"},
		{"infinite bandwidth", Config{Kind: FullMesh, BytesPerCycle: math.Inf(1)}, 4, ""},
		{"negative latency", Config{Kind: FullMesh, BytesPerCycle: 1, LatencyCycles: -1}, 4, "latency"},
		{"latency past the cycle range", Config{Kind: Torus2D, TorusX: 8, TorusY: 8, BytesPerCycle: 1, LatencyCycles: 1 << 58}, 64, "latency"},
		{"latency at the ceiling", Config{Kind: Torus2D, BytesPerCycle: 1, LatencyCycles: maxLatencyCycles}, 64, ""},
		{"bad node count", Default(), 0, "node count"},
		{"non-rectangular torus", Torus(3, 2), 8, "rectangular"},
		{"half-specified torus", Torus(4, 0), 8, "rectangular"},
		{"negative torus dim", Torus(-4, -2), 8, "non-negative"},
		{"torus wider than int", Torus(1<<62+1, 4), 4, "rectangular"}, // x*y wraps to 4
		{"torus taller than int", Torus(4, 1<<62+1), 4, "rectangular"},
		{"prime auto torus is a ring", Torus(0, 0), 7, ""}, // 7x1 is legal
		{"prime dragonfly is one group", DragonflyGroups(), 7, ""},
		{"unknown kind", Config{Kind: Kind(99), BytesPerCycle: 1}, 4, "unknown"},
	} {
		err := tc.cfg.Validate(tc.nodes)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: Validate accepted an impossible shape", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		// Build must refuse the same shapes.
		if _, berr := tc.cfg.Build(tc.nodes); berr == nil {
			t.Errorf("%s: Build accepted what Validate rejects", tc.name)
		}
	}
	for _, tc := range []struct {
		cfg   Config
		nodes int
		name  string
	}{
		{Default(), 8, "fullmesh"},
		{Torus(4, 2), 8, "torus4x2"},
		{Torus(0, 0), 8, "torus4x2"},
		{Torus(0, 0), 16, "torus4x4"},
		{DragonflyGroups(), 8, "dragonfly2x4"},
		{DragonflyGroups(), 12, "dragonfly3x4"},
		{DragonflyGroups(), 64, "dragonfly8x8"},
		{DragonflyGroups(), 7, "dragonfly1x7"}, // single group: a clique
	} {
		net, err := tc.cfg.Build(tc.nodes)
		if err != nil {
			t.Fatalf("%v on %d nodes: %v", tc.cfg.Kind, tc.nodes, err)
		}
		if net.Name() != tc.name {
			t.Errorf("%v on %d nodes: name %q, want %q", tc.cfg.Kind, tc.nodes, net.Name(), tc.name)
		}
	}
}

// At the latency ceiling, the largest machine a run allows must still
// price its barrier and its longest minimal route far inside the cycle
// range, on every topology, including the 2^16-node ring, whose barrier
// and diameter are the worst.
func TestLatencyCeilingKeepsCyclesInRange(t *testing.T) {
	const nodes = 1 << 16
	for _, c := range []Config{Default(), Torus(0, 0), Torus(nodes, 1), DragonflyGroups()} {
		c.LatencyCycles = maxLatencyCycles
		net := build(t, c, nodes)
		if b := net.BarrierCycles(); b <= 0 || b >= 1<<53 {
			t.Errorf("%s: barrier %d cycles at the latency ceiling", net.Name(), b)
		}
		worst := 0
		for _, dst := range []int{1, nodes / 2, nodes/2 + 255, nodes - 1} {
			worst = max(worst, len(net.AppendRoute(nil, 0, dst))-1)
		}
		if lat := sim.Cycle(worst) * net.LatencyCycles(); lat <= 0 || lat >= 1<<53 {
			t.Errorf("%s: a %d-transition route pays %d latency cycles at the ceiling", net.Name(), worst, lat)
		}
	}
}

// A degrade factor must lie in (0, 1] and leave the links at least
// minBytesPerCycle: at 15.625 B/cycle a factor of 1e-9 or 1e-300 would
// price a degraded link as nearly or entirely free.
func TestConfigValidateDegrade(t *testing.T) {
	cfg := Default() // 15.625 B/cycle
	for _, tc := range []struct {
		factor float64
		want   string
	}{
		{1, ""},
		{0.5, ""},
		{1e-4, ""}, // 1.5625e-3 B/cycle, just above the floor
		{0, "outside"},
		{1.5, "outside"},
		{math.NaN(), "outside"},
		{-0.5, "outside"},
		{1e-5, "floor"},
		{1e-9, "floor"},
		{1e-300, "floor"},
	} {
		err := cfg.ValidateDegrade(tc.factor)
		if tc.want == "" {
			if err != nil {
				t.Errorf("factor %g: unexpected error %v", tc.factor, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("factor %g: error %v does not mention %q", tc.factor, err, tc.want)
		}
	}
}

// Routes must begin at the source's egress port, end at the destination's
// ingress port, be minimal in length, and be deterministic.
func TestRouteStructure(t *testing.T) {
	for _, c := range []Config{Default(), Torus(4, 2), DragonflyGroups()} {
		net := build(t, c, 8)
		for src := 0; src < 8; src++ {
			for dst := 0; dst < 8; dst++ {
				if src == dst {
					continue
				}
				path := net.AppendRoute(nil, src, dst)
				if len(path) < 2 {
					t.Fatalf("%s: %d->%d route too short: %v", net.Name(), src, dst, path)
				}
				if path[0] != src {
					t.Fatalf("%s: %d->%d does not start at egress %d: %v", net.Name(), src, dst, src, path)
				}
				if path[len(path)-1] != 8+dst {
					t.Fatalf("%s: %d->%d does not end at ingress: %v", net.Name(), src, dst, path)
				}
				for _, l := range path {
					if l < 0 || l >= net.NumLinks() {
						t.Fatalf("%s: %d->%d link %d out of range [0,%d)", net.Name(), src, dst, l, net.NumLinks())
					}
				}
				again := net.AppendRoute(nil, src, dst)
				for i := range path {
					if again[i] != path[i] {
						t.Fatalf("%s: %d->%d route not deterministic", net.Name(), src, dst)
					}
				}
			}
		}
	}
}

// Dimension-order torus routes must have exactly manhattan-distance
// channel hops (shortest wraparound per dimension).
func TestTorusRouteLength(t *testing.T) {
	net := build(t, Torus(4, 4), 16)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				continue
			}
			sx, sy := src%4, src/4
			dx, dy := dst%4, dst/4
			hx := (dx - sx + 4) % 4
			if hx > 2 {
				hx = 4 - hx
			}
			hy := (dy - sy + 4) % 4
			if hy > 2 {
				hy = 4 - hy
			}
			path := net.AppendRoute(nil, src, dst)
			if got := len(path) - 2; got != hx+hy {
				t.Fatalf("torus %d->%d: %d channel hops, want %d (path %v)", src, dst, got, hx+hy, path)
			}
		}
	}
}

// Dragonfly: intra-group messages cross only the ports (a clique wire);
// inter-group messages cross exactly one global channel, and all traffic
// between the same group pair shares it.
func TestDragonflyRoutes(t *testing.T) {
	net := build(t, DragonflyGroups(), 8)
	d := net.(*dragonfly)
	if got := net.AppendRoute(nil, 0, 1); len(got) != 2 {
		t.Fatalf("intra-group route %v should be direct", got)
	}
	glob := d.global(0, 1)
	seen := map[int]bool{}
	for src := 0; src < 4; src++ {
		for dst := 4; dst < 8; dst++ {
			path := net.AppendRoute(nil, src, dst)
			found := false
			for _, l := range path {
				if l == glob {
					found = true
				}
			}
			if !found {
				t.Fatalf("route %d->%d %v misses the group 0->1 global channel %d", src, dst, path, glob)
			}
			for _, l := range path {
				seen[l] = true
			}
		}
	}
	if back := d.global(1, 0); seen[back] {
		t.Fatal("forward traffic used the reverse global channel")
	}
}

// On a uniform all-to-all load, the multi-hop topologies must be strictly
// slower than the full mesh (shared channels serialize what dedicated
// wires run in parallel), and a repeat run must be identical.
func TestToposlowerThanMeshAndDeterministic(t *testing.T) {
	bytes := mat(8)
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s != d {
				bytes[s][d] = 10_000
			}
		}
	}
	mesh := Exchange(build(t, testLink(FullMesh), 8), bytes)
	for _, c := range []Config{testLink(Torus2D), testLink(Dragonfly)} {
		net := build(t, c, 8)
		st := Exchange(net, bytes)
		if st.Cycles <= mesh.Cycles {
			t.Errorf("%s exchange %d cycles not slower than fullmesh %d", net.Name(), st.Cycles, mesh.Cycles)
		}
		if st.TotalBytes != mesh.TotalBytes || st.Messages != mesh.Messages {
			t.Errorf("%s moved different traffic: %+v vs %+v", net.Name(), st, mesh)
		}
		if again := Exchange(net, bytes); again != st {
			t.Errorf("%s exchange not deterministic: %+v vs %+v", net.Name(), again, st)
		}
		if net.BarrierCycles() <= build(t, testLink(FullMesh), 8).BarrierCycles() {
			t.Errorf("%s barrier not costlier than fullmesh", net.Name())
		}
	}
}

// A Flight must serialize messages on a shared channel: two simultaneous
// sends through the same torus channel finish one hold apart.
func TestFlightChannelContention(t *testing.T) {
	net := build(t, testLink(Torus2D), 8) // torus4x2
	eng := &sim.Engine{}
	f := NewFlight(net)
	f.Reset(eng, nil)
	var at [2]sim.Cycle
	f.OnDeliver(func(_, _ int, tag int32) { at[tag] = eng.Now() })
	// On the 4x2 torus, 0->1 routes [egress0, chan(0,+x), ingress1] and
	// 0->2 routes [egress0, chan(0,+x), chan(1,+x), ingress2]: the two
	// messages share the egress port and node 0's +x channel.
	f.Send(0, 1, 1000, 0)
	f.Send(0, 2, 1000, 1)
	eng.Run()
	first, second := at[0], at[1]
	if first == 0 || second == 0 {
		t.Fatal("messages not delivered")
	}
	// Message 1: egress 101 + lat 100 + chan 101 + lat 100 + ingress 101 = 503.
	if first != 503 {
		t.Fatalf("first delivery at %d, want 503", first)
	}
	// Message 2 queues behind message 1 on the egress port (starts at 101)
	// and behind it on node 0's +x channel, then crosses a second channel:
	// egress [101,202] + lat -> chan0 [302,403] + lat -> chan1 [503,604]
	// + lat -> ingress [704,805].
	if second != 805 {
		t.Fatalf("second delivery at %d, want 805", second)
	}
}
