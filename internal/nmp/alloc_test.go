//go:build !race

// The race detector makes sync.Pool drop values at random, so allocation
// counts are only meaningful without it.

package nmp

import (
	"runtime/debug"
	"testing"
)

// A warm StepIteration resets pooled scratch in place: a whole Simulate
// allocates the same with 32 PEs per channel as with 4, instead of
// rebuilding every PE's state on every iteration.
func TestSimulateAllocsIndependentOfPECount(t *testing.T) {
	tr := getTrace(t)
	// No GC during the measurement, so the pool cannot be emptied between
	// steps.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(pes int) float64 {
		cfg := DefaultConfig()
		cfg.PEsPerChannel = pes
		if _, err := Simulate(tr, cfg); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := Simulate(tr, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	wide, narrow := allocs(32), allocs(4)
	if d := wide - narrow; d > 8 || d < -8 {
		t.Fatalf("Simulate allocates %.0f times with 32 PEs/channel and %.0f with 4 (%d iterations): scratch is rebuilt per step",
			wide, narrow, len(tr.Iterations))
	}
}
