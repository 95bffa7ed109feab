//go:build !race

// The race detector makes sync.Pool drop values at random, so allocation
// counts are only meaningful without it.

package nmp

import (
	"runtime/debug"
	"testing"

	"nmppak/internal/dram"
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

// An engine's channel states are one block: NewEngine allocates the
// engine and the block, and ResumeEngine only the engine, adopting the
// snapshot's block. Neither count grows with dram.Channels.
func TestEngineAllocsIndependentOfChannels(t *testing.T) {
	tr := getTrace(t)
	cfg := DefaultConfig()
	if got := testing.AllocsPerRun(20, func() {
		if _, err := NewEngine(tr, cfg); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("NewEngine makes %v allocations for %d channels, want at most 2 (the engine and its channel block)", got, dram.Channels)
	}
	e, err := NewEngine(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.StepIteration()
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, err := ResumeEngine(tr, cfg, st); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("ResumeEngine makes %v allocations for %d channels, want at most 1 (the engine)", got, dram.Channels)
	}
}
