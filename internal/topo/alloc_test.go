//go:build !race

// The race detector makes sync.Pool drop values at random, so allocation
// counts are only meaningful without it.

package topo

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// TestFlightExchangeAllocs pins a warm Flight's per-message cost: once its
// routes, message slab and pooled event queue have grown to the working
// size, an exchange allocates nothing, whether it carries three messages
// or 240 multi-hop ones. So neither a message nor a hop allocates. GC is
// off and the test runs on one P, as sim's allocation tests do: a
// collection empties the event-queue pool, and a queue a warm-up put in
// another P's pool slot would be out of reach.
func TestFlightExchangeAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 16
	f := NewFlight(build(t, testLink(Torus2D), n)) // torus4x4
	sparse := mat(n)
	sparse[0][5], sparse[3][12], sparse[15][0] = 4096, 100, 1
	dense := mat(n)
	for s := range dense {
		for d := range dense[s] {
			if s != d {
				dense[s][d] = int64(1000 + 37*s + d)
			}
		}
	}
	for _, tc := range []struct {
		name string
		m    [][]int64
		msgs int64
	}{{"sparse", sparse, 3}, {"dense", dense, n * (n - 1)}} {
		var st ExchangeStats
		round := func() { st = f.Exchange(tc.m, nil) }
		for range 4 {
			round()
		}
		if a := testing.AllocsPerRun(50, round); a != 0 {
			t.Errorf("%s: allocs per warm exchange = %v, want 0", tc.name, a)
		}
		if st.Messages != tc.msgs || st.Cycles <= 0 {
			t.Errorf("%s: exchange sent %d messages in %d cycles, want %d messages", tc.name, st.Messages, st.Cycles, tc.msgs)
		}
	}
}

// TestFlightExchangeGrowsSlabOnce pins a cold Flight's slab growth: every
// message of an exchange is in flight before its engine runs, so the first
// exchange sizes the slab in one step, to the capacity one slices.Grow for
// that many messages gives, instead of doubling its way there.
func TestFlightExchangeGrowsSlabOnce(t *testing.T) {
	const n = 16
	dense := mat(n)
	for s := range dense {
		for d := range dense[s] {
			if s != d && (s+d)%7 != 0 {
				dense[s][d] = int64(500 + s*d)
			}
		}
	}
	f := NewFlight(build(t, testLink(Torus2D), n))
	st := f.Exchange(dense, nil)
	if want := cap(slices.Grow([]msg(nil), int(st.Messages))); len(f.msgs) != int(st.Messages) || cap(f.msgs) != want {
		t.Errorf("slab len %d cap %d after %d messages, want len %d cap %d", len(f.msgs), cap(f.msgs), st.Messages, st.Messages, want)
	}
}
