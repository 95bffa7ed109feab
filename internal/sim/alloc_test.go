//go:build !race

// The race detector makes sync.Pool drop values at random, so allocation
// counts are only meaningful without it.

package sim

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// steadyAllocs warms f up and returns its allocations per run. GC is off,
// because a collection empties the bucket pool, and the test runs on one P:
// testing.AllocsPerRun measures at GOMAXPROCS=1, and buckets a warm-up put
// in another P's pool slot would be out of reach.
func steadyAllocs(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range 4 {
		f()
	}
	return testing.AllocsPerRun(50, f)
}

// TestEngineAllocs pins the scheduler's allocation behaviour: once the
// pooled buckets have grown to their working size, At+Run must not
// allocate at all.
func TestEngineAllocs(t *testing.T) {
	var e Engine
	fn := func() {}
	round := func() {
		for i := 0; i < 512; i++ {
			e.At(e.Now()+Cycle(i*13%97), fn)
		}
		e.Run()
	}
	if a := steadyAllocs(round); a != 0 {
		t.Errorf("allocs per 512-event round = %v, want 0", a)
	}
}

// TestFreshEngineAllocs covers the topo.Exchange pattern: a new Engine per
// call, drained by Run. Its buckets come warm from the pool, so once warm
// the call allocates nothing.
func TestFreshEngineAllocs(t *testing.T) {
	fn := func() {}
	round := func() {
		var e Engine
		for i := 0; i < 256; i++ {
			e.At(Cycle(i*7%31), fn)
		}
		e.Run()
	}
	if a := steadyAllocs(round); a != 0 {
		t.Errorf("allocs per fresh-engine round = %v, want 0", a)
	}
}
