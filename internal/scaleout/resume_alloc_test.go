//go:build !race

// The race detector instruments allocations, so heap byte counts are only
// meaningful without it.

package scaleout

import (
	goruntime "runtime"
	"testing"
)

// heapBytes returns the bytes f allocates on the heap.
func heapBytes(f func()) uint64 {
	goruntime.GC()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	f()
	goruntime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A session resumed at its last boundary shards only the iteration it
// then steps: with the trace's shard memo warm, ResumeSession plus
// Step(1) must cost far less heap than one ShardTrace of the whole trace,
// which is what every resume used to pay.
func TestResumeSessionShardsOnlyWhatItSteps(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	iters := len(tr.Iterations)
	for _, p := range []Partitioner{HashPartitioner{}, NewMinimizerPartitioner(12)} {
		cfg := DefaultConfig(8)
		cfg.Partitioner = p
		s, err := NewSession(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Step(iters - 1)
		blob, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		resume := func() {
			s, err := ResumeSession(tr, cfg, blob)
			if err != nil {
				t.Fatal(err)
			}
			if s.Step(1) != 1 {
				t.Fatal("resumed session did not step its last iteration")
			}
		}
		resume() // warms the shard memo and the engine pools
		got := heapBytes(resume)
		shard := heapBytes(func() { ShardTrace(tr, cfg.Nodes, p) })
		t.Logf("%s: resume+step %d B, ShardTrace %d B", p.Name(), got, shard)
		if got > shard/4 {
			t.Errorf("%s: resume at %d/%d plus one step allocates %d B, over a quarter of one ShardTrace (%d B)",
				p.Name(), iters-1, iters, got, shard)
		}
	}
}
