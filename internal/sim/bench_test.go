package sim_test

import (
	"testing"

	"nmppak/internal/sim"
)

// BenchmarkEventKernel is the perf baseline for scheduler work: a
// self-refilling event population (as the hardware models produce) with a
// scattered timestamp pattern, exercising radix-bucket pushes, refills and
// the FIFO order of equal-time events. Each iteration starts a fresh
// Engine, so it also covers taking the queue from the pool and returning
// it. It reports the refill moves per dispatched event as moves/event.
func BenchmarkEventKernel(b *testing.B) {
	const window = 512
	b.ReportAllocs()
	var p sim.Probe
	for b.Loop() {
		var e sim.Engine
		e.SetProbe(&p)
		n := 0
		var spawn func()
		spawn = func() {
			n++
			if n >= 100_000 {
				return
			}
			// Two children at pseudo-random offsets keep the queue near
			// the window size without shrinking to a trivial population.
			if n%2 == 0 {
				e.After(sim.Cycle(n*7919%window)+1, spawn)
			}
			e.After(sim.Cycle(n*104729%window)+1, spawn)
		}
		e.At(0, spawn)
		e.Run()
	}
	b.ReportMetric(float64(p.Moves)/float64(p.Dispatched), "moves/event")
}
