package conformance

import (
	"sync"
	"testing"

	"nmppak/internal/topo"
)

var (
	fxOnce sync.Once
	fx     *Fixture
	fxErr  error
)

// fixture builds the shared workload once per test binary (trace capture
// is the expensive part; every cell of the sweep replays it).
func fixture(t *testing.T) *Fixture {
	t.Helper()
	fxOnce.Do(func() { fx, fxErr = NewFixture(12_000) })
	if fxErr != nil {
		t.Fatal(fxErr)
	}
	return fx
}

// TestMatrix sweeps topology × discipline × partitioner × node count with
// a mid-trace checkpoint, asserting resume equivalence, blob determinism
// and round-trip stability for every cell (and that the one illegal cell
// family, overlap × rebalance, is rejected by validation). In -short mode
// only the 4-node column runs.
func TestMatrix(t *testing.T) {
	f := fixture(t)
	nodes := []int{1, 4, 8}
	if testing.Short() {
		nodes = []int{4}
	}
	for _, c := range Matrix(nodes) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			if err := Verify(f, c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckpointIterationSweep pins resume equivalence at every legal
// checkpoint boundary — including 0 (before any compaction iteration) and
// the trace end (after the last one) — on one representative cell per
// discipline, plus the rebalancing runtime whose state machine is the
// richest.
func TestCheckpointIterationSweep(t *testing.T) {
	f := fixture(t)
	iters := len(f.Trace.Iterations)
	if iters < 2 {
		t.Fatalf("fixture trace has only %d iterations; the sweep needs at least 2", iters)
	}
	cells := []Case{
		{Topo: topo.Torus2D, Overlap: false, Part: PartMinimizer, Nodes: 4},
		{Topo: topo.FullMesh, Overlap: true, Part: PartHash, Nodes: 4},
		{Topo: topo.Dragonfly, Overlap: false, Part: PartRebalance, Nodes: 4},
	}
	step := 1
	if testing.Short() {
		step = (iters + 2) / 3
	}
	var probes []int
	for at := 0; at <= iters; at += step {
		probes = append(probes, at)
	}
	if probes[len(probes)-1] != iters {
		probes = append(probes, iters) // never lose the trace-end boundary
	}
	for _, base := range cells {
		for _, at := range probes {
			c := base
			c.At = at
			t.Run(c.Name(), func(t *testing.T) {
				if err := Verify(f, c); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestParallelMatrix sweeps the serial-vs-parallel equivalence matrix:
// topology × discipline (BSP, overlap, rebalance, elastic with a
// mid-phase node loss, with and without periodic captures) × node count
// × boundary stride, asserting bit-identical Results, byte-identical
// telemetry traces, byte-identical checkpoint blobs and cross-mode
// (parallel-captured/serially-restored and vice versa) resume equivalence
// for Workers ∈ {1, 4}; the "/d3" cells also cut the run every 3
// iterations and flip the worker count at each cut. In -short mode only
// the 4-node column runs; the full sweep includes the 64-node column the
// speedup benchmarks target.
func TestParallelMatrix(t *testing.T) {
	f := fixture(t)
	nodes := []int{1, 4, 8, 64}
	if testing.Short() {
		nodes = []int{4}
	}
	for _, c := range ParallelMatrix(nodes) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			if err := VerifyParallel(f, c, 4); err != nil {
				t.Fatal(err)
			}
		})
	}
}
