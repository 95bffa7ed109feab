package topo

import (
	"strings"
	"testing"
)

// An untouched Degraded wrapper must be invisible: identical exchange
// stats on every topology, and re-wrapping returns the same instance.
func TestDegradedHealthyIsTransparent(t *testing.T) {
	bytes := mat(8)
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s != d {
				bytes[s][d] = 5_000
			}
		}
	}
	for _, c := range []Config{testLink(FullMesh), testLink(Torus2D), testLink(Dragonfly)} {
		net := build(t, c, 8)
		d := NewDegraded(net)
		if NewDegraded(d) != d {
			t.Fatalf("%s: re-wrapping must return the same Degraded", net.Name())
		}
		want := Exchange(net, bytes)
		if got := Exchange(d, bytes); got != want {
			t.Fatalf("%s: healthy Degraded exchange %+v, want %+v", net.Name(), got, want)
		}
		if d.Name() != net.Name() || d.BarrierCycles() != net.BarrierCycles() {
			t.Fatalf("%s: wrapper changed name or barrier", net.Name())
		}
	}
}

// Slowing a route stretches exactly the reservations on its links: on the
// two-node mesh every number is computable by hand, and degradations of
// the same link compound.
func TestSlowStretchesExchange(t *testing.T) {
	bytes := mat(2)
	bytes[0][1] = 1000
	d := NewDegraded(build(t, testLink(FullMesh), 2))
	// Healthy: egress 101 + latency 100 + ingress 101 = 302.
	if st := Exchange(d, bytes); st.Cycles != 302 {
		t.Fatalf("healthy cycles = %d, want 302", st.Cycles)
	}
	// Half bandwidth on egress0 and ingress1: 202 + 100 + 202 = 504.
	if err := d.Slow(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if st := Exchange(d, bytes); st.Cycles != 504 {
		t.Fatalf("degraded cycles = %d, want 504", st.Cycles)
	}
	// Compounding: another halving quarters the bandwidth, 404 + 100 + 404.
	if err := d.Slow(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if st := Exchange(d, bytes); st.Cycles != 908 {
		t.Fatalf("doubly degraded cycles = %d, want 908", st.Cycles)
	}
	// The reverse channel is untouched.
	back := mat(2)
	back[1][0] = 1000
	if st := Exchange(d, back); st.Cycles != 302 {
		t.Fatalf("reverse cycles = %d, want 302", st.Cycles)
	}
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"factor 0", d.Slow(0, 1, 0), "factor"},
		{"factor >1", d.Slow(0, 1, 1.5), "factor"},
		{"out of range", d.Slow(0, 9, 0.5), "outside"},
		{"self", d.Slow(1, 1, 0.5), "local path"},
		{"unpriceable factor", d.Slow(0, 1, 1e-300), "floor"},
	} {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, tc.err, tc.want)
		}
	}
	if st := Exchange(d, bytes); st.Cycles != 908 {
		t.Fatalf("refused degrades changed the link: cycles = %d, want 908", st.Cycles)
	}
	// Degrades compound down to the floor and no further: the two halvings
	// left 2.5 B/cycle, a hundredth leaves 0.025, and another hundredth
	// would leave 2.5e-4, below minBytesPerCycle, so it is refused and
	// the link stays as it was.
	if err := d.Slow(0, 1, 0.01); err != nil {
		t.Fatal(err)
	}
	before := Exchange(d, bytes).Cycles
	if err := d.Slow(0, 1, 0.01); err == nil || !strings.Contains(err.Error(), "floor") {
		t.Fatalf("compounding past the floor returned %v", err)
	}
	if after := Exchange(d, bytes).Cycles; after != before {
		t.Fatalf("a refused degrade changed the link: cycles %d, want %d", after, before)
	}
}

// Cutting a torus channel reroutes traffic deterministically around the
// cut without touching the endpoints' ports, and the detoured network
// still completes a full exchange.
func TestCutReroutesOnTorus(t *testing.T) {
	d := NewDegraded(build(t, testLink(Torus2D), 8)) // torus4x2
	base := d.AppendRoute(nil, 0, 1)
	if err := d.CutRoute(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(nil); err != nil {
		t.Fatalf("single channel cut must not disconnect the torus: %v", err)
	}
	detour := d.AppendRoute(nil, 0, 1)
	if len(detour) <= len(base) {
		t.Fatalf("detour %v not longer than base route %v", detour, base)
	}
	if detour[0] != base[0] || detour[len(detour)-1] != base[len(base)-1] {
		t.Fatalf("detour %v does not keep the endpoints of %v", detour, base)
	}
	for _, l := range detour {
		if d.cut[l] {
			t.Fatalf("detour %v crosses cut link %d", detour, l)
		}
	}
	again := d.AppendRoute(nil, 0, 1)
	for i := range detour {
		if again[i] != detour[i] {
			t.Fatalf("detour not deterministic: %v vs %v", again, detour)
		}
	}
	if !d.Routable(0, 1) || !d.Routable(1, 0) {
		t.Fatal("cut pair must remain routable")
	}
	bytes := mat(8)
	for s := 0; s < 8; s++ {
		for dst := 0; dst < 8; dst++ {
			if s != dst {
				bytes[s][dst] = 5_000
			}
		}
	}
	healthy := Exchange(build(t, testLink(Torus2D), 8), bytes)
	cut := Exchange(d, bytes)
	if cut.TotalBytes != healthy.TotalBytes || cut.Messages != healthy.Messages {
		t.Fatalf("cut network moved different traffic: %+v vs %+v", cut, healthy)
	}
	if cut.Cycles < healthy.Cycles {
		t.Fatalf("detoured exchange %d cycles beat the healthy %d", cut.Cycles, healthy.Cycles)
	}
	if rerun := Exchange(d, bytes); rerun != cut {
		t.Fatalf("cut exchange not deterministic: %+v vs %+v", rerun, cut)
	}
}

// A full-mesh route is port-to-port, so cutting it severs the endpoints:
// Verify reports the disconnection, a live mask excluding both endpoints
// clears it, and routing across the cut panics.
func TestCutDisconnectsOnFullMesh(t *testing.T) {
	d := NewDegraded(build(t, testLink(FullMesh), 4))
	if err := d.CutRoute(0, 1); err != nil {
		t.Fatal(err)
	}
	if d.Routable(0, 1) {
		t.Fatal("cut mesh pair should not be routable")
	}
	err := d.Verify(nil)
	if err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("Verify = %v, want a disconnection error", err)
	}
	// Node 0 lost its egress port and node 1 its ingress port; with both
	// out of the run the survivors are whole.
	if err := d.Verify([]bool{false, false, true, true}); err != nil {
		t.Fatalf("survivors 2,3 should verify: %v", err)
	}
	// Node 1 can still send (egress intact) but never receive.
	if err := d.Verify([]bool{false, true, true, true}); err == nil {
		t.Fatal("node 1 lost its ingress; Verify should fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AppendRoute across a disconnected pair must panic")
		}
	}()
	d.AppendRoute(nil, 0, 1)
}
