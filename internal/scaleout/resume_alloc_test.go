//go:build !race

// The race detector instruments allocations, so heap byte counts are only
// meaningful without it.

package scaleout

import (
	"reflect"
	goruntime "runtime"
	"runtime/debug"
	"testing"

	"nmppak/internal/trace"
)

// heapBytes returns the bytes f allocates on the heap. The collector is
// off while f runs: the forced collection leaves every pooled arena and
// engine scratch in the pools' victim caches, which a second collection
// inside f would drop, charging f for rebuilding them.
func heapBytes(f func()) uint64 {
	goruntime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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

// A session holds one sharded iteration at a time: resumed from the
// iteration-0 blob and stepped through the whole trace, it allocates a
// small fraction of one ShardTrace of the same trace. Measured at 8 nodes
// on this trace: 0.16 of one ShardTrace under the hash partitioner and
// 0.15 under the minimizer one, against 1.14 for a feed that appended
// every sub-iteration it sharded to the node traces and kept it. After
// every Step each node trace is back to empty slots.
func TestSessionHoldsOneIterationInFlight(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	iters := len(tr.Iterations)
	// One P: heapBytes' forced collection moves every pooled arena and
	// engine scratch to its P's victim cache, which a goroutine resumed
	// on another P cannot take from.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	for _, p := range []Partitioner{HashPartitioner{}, NewMinimizerPartitioner(12)} {
		cfg := DefaultConfig(8)
		cfg.Partitioner = p
		blob, err := Checkpoint(reads, tr, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			s, err := ResumeSession(tr, cfg, blob)
			if err != nil {
				t.Fatal(err)
			}
			if s.Step(iters) != iters {
				t.Fatal("resumed session did not step the whole trace")
			}
		}
		run() // warms the engine pools and the shard arenas
		got := heapBytes(run)
		shard := heapBytes(func() { ShardTrace(tr, cfg.Nodes, p) })
		t.Logf("%s: resume+step %d B, ShardTrace %d B, ratio %.3f", p.Name(), got, shard, float64(got)/float64(shard))
		if got > shard/4 {
			t.Errorf("%s: resume at 0 plus %d steps allocates %d B, over a quarter of one ShardTrace (%d B)",
				p.Name(), iters, got, shard)
		}

		s, err := ResumeSession(tr, cfg, blob)
		if err != nil {
			t.Fatal(err)
		}
		for s.Remaining() > 0 {
			s.Step(1)
			for o, nt := range s.run.feed.traces {
				if next := s.run.engines[o].Next(); next != s.Next() {
					t.Fatalf("%s: node %d's engine at %d, session at %d", p.Name(), o, next, s.Next())
				}
				for it := range nt.Iterations {
					if !reflect.DeepEqual(nt.Iterations[it], trace.Iteration{}) {
						t.Fatalf("%s: after stepping to %d, node %d still holds iteration %d", p.Name(), s.Next(), o, it)
					}
				}
			}
		}
	}
}

// A warm 64-node CountSharded on TestCountShardedAllocsLinearInNodes'
// input builds no records: it allocates one vector of every k-mer
// instance, a cursor per source and bucket, the read ends, a record
// matrix and owner totals per worker, and the result. Two workers keep
// the per-worker part fixed on any host; the call then allocates
// 2,324,688 to 2,362,616 bytes, and the bound is under 5% above that.
func TestCountShardedBytes(t *testing.T) {
	reads := testReads(t, 20_000)
	cfg := DefaultConfig(64)
	cfg.Workers = 2
	count := func() {
		if _, err := CountSharded(reads, cfg); err != nil {
			t.Fatal(err)
		}
	}
	count()
	const bound = 2_476_000
	if got := heapBytes(count); got > bound {
		t.Fatalf("CountSharded at n=%d allocates %d bytes per call, bound %d", cfg.Nodes, got, bound)
	}
}

// stateBytesPerNode bounds the bytes a checkpoint's CheckpointState
// allocates per node: one durations header and one engine state (248 B
// on 64-bit), which holds the engine's channel block by pointer. A copy
// of the block (dram.Channels channel states, 13,952 B) is far past it.
const stateBytesPerNode = 320

// A warm elastic capture writes its blob into the buffer of the one it
// replaces and reads every engine's state in place, so it allocates a
// few per-run slices (the durations and engine-state headers the
// CheckpointState carries) and nothing per engine or per DRAM channel:
// the same count at 2 and 8 nodes, and a few hundred bytes per node.
func TestCaptureAllocs(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	const bound = 2
	for _, nodes := range []int{2, 4, 8} {
		cfg := DefaultConfig(nodes)
		cfg.CheckpointEvery = 2
		s, err := open(reads, tr, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.Step(4)
		if s.run.ckpt == nil {
			t.Fatal("no capture in the first four iterations")
		}
		capture := func() {
			if err := s.run.capture(s.next); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(20, capture)
		b := heapBytes(func() {
			for range 10 {
				capture()
			}
		}) / 10
		t.Logf("%d nodes: %v allocations and %d B per capture", nodes, got, b)
		if got > bound {
			t.Errorf("warm capture at %d nodes makes %v allocations, bound %d", nodes, got, bound)
		}
		if max := uint64(stateBytesPerNode * nodes); b > max {
			t.Errorf("warm capture at %d nodes allocates %d B, bound %d B", nodes, b, max)
		}
	}
}

// Session.Checkpoint sizes the blob before writing it, so it allocates
// the blob once, at its exact size, plus the same few per-run slices as
// a capture; in bytes, the blob rounded up to its size class (at most an
// eighth more) and a few hundred bytes per node.
func TestSessionCheckpointAllocs(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	const bound = 3
	for _, nodes := range []int{2, 8} {
		s, err := NewSession(reads, tr, DefaultConfig(nodes))
		if err != nil {
			t.Fatal(err)
		}
		s.Step(3)
		var blob []byte
		checkpoint := func() {
			if blob, err = s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(20, checkpoint)
		b := heapBytes(func() {
			for range 10 {
				checkpoint()
			}
		}) / 10
		t.Logf("%d nodes: %v allocations and %d B (blob %d B) per Session.Checkpoint", nodes, got, b, cap(blob))
		if got > bound {
			t.Errorf("Session.Checkpoint at %d nodes makes %v allocations, bound %d (the blob and two slices)", nodes, got, bound)
		}
		if max := uint64(cap(blob)*9/8 + stateBytesPerNode*nodes); b > max {
			t.Errorf("Session.Checkpoint at %d nodes allocates %d B for a %d B blob, bound %d B", nodes, b, cap(blob), max)
		}
		if len(blob) != cap(blob) {
			t.Errorf("Session.Checkpoint at %d nodes returns %d bytes in a %d-byte buffer", nodes, len(blob), cap(blob))
		}
	}
}
