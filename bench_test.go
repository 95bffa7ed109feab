// Benchmarks regenerating each table and figure of the paper's evaluation
// on the quick workload (one benchmark per artifact; see DESIGN.md §3 for
// the experiment index and cmd/experiments for full-scale runs). The
// bodies live in internal/benchsuite so cmd/bench can replay the exact
// same code when regenerating the BENCH_*.json regression baseline.
package nmppak_test

import (
	"testing"

	"nmppak/internal/benchsuite"
)

// BenchmarkFig5Breakdown measures the end-to-end software pipeline whose
// stage split is Fig. 5.
func BenchmarkFig5Breakdown(b *testing.B) { benchsuite.Run(b, "Fig5Breakdown") }

// BenchmarkFig6StallModel measures the CPU stall-attribution model run.
func BenchmarkFig6StallModel(b *testing.B) { benchsuite.Run(b, "Fig6StallModel") }

// BenchmarkFig7SizeDistribution measures the instrumented-compaction size
// histogram extraction (Figs. 7 and 8 share the trace).
func BenchmarkFig7SizeDistribution(b *testing.B) { benchsuite.Run(b, "Fig7SizeDistribution") }

// BenchmarkFig8OversizeProportion measures the per-iteration threshold
// scan of Fig. 8.
func BenchmarkFig8OversizeProportion(b *testing.B) { benchsuite.Run(b, "Fig8OversizeProportion") }

// BenchmarkTable1BatchSweep measures one batched assembly (the Table 1
// sweep's 10%-batch point).
func BenchmarkTable1BatchSweep(b *testing.B) { benchsuite.Run(b, "Table1BatchSweep") }

// BenchmarkFig12NMP measures the NMP-PaK hardware simulation (the headline
// Fig. 12 bar).
func BenchmarkFig12NMP(b *testing.B) { benchsuite.Run(b, "Fig12NMP") }

// BenchmarkFig12GPU measures the GPU baseline model (Fig. 12/§6.6).
func BenchmarkFig12GPU(b *testing.B) { benchsuite.Run(b, "Fig12GPU") }

// BenchmarkFig13Utilization exercises the utilization accounting path
// (Fig. 13 derives from the same runs as Fig. 12).
func BenchmarkFig13Utilization(b *testing.B) { benchsuite.Run(b, "Fig13Utilization") }

// BenchmarkFig14Traffic measures the logical flow-traffic accounting of
// Fig. 14 over the trace.
func BenchmarkFig14Traffic(b *testing.B) { benchsuite.Run(b, "Fig14Traffic") }

// BenchmarkFig15PESweep measures one point of the PE/channel sensitivity
// sweep (16 PEs).
func BenchmarkFig15PESweep(b *testing.B) { benchsuite.Run(b, "Fig15PESweep") }

// BenchmarkTable3AreaPower measures the area/power model (Table 3).
func BenchmarkTable3AreaPower(b *testing.B) { benchsuite.Run(b, "Table3AreaPower") }

// BenchmarkCommSplit measures the §6.3 communication-split simulation.
func BenchmarkCommSplit(b *testing.B) { benchsuite.Run(b, "CommSplit") }

// BenchmarkFootprint measures the §3.5/§4.4 footprint accounting.
func BenchmarkFootprint(b *testing.B) { benchsuite.Run(b, "Footprint") }

// BenchmarkAblationStaticMapping measures the static-DIMM-mapping ablation
// configuration (the per-iteration remap's counterfactual).
func BenchmarkAblationStaticMapping(b *testing.B) { benchsuite.Run(b, "AblationStaticMapping") }

// BenchmarkAblationNoHybrid measures NMP-PaK with CPU offload disabled.
func BenchmarkAblationNoHybrid(b *testing.B) { benchsuite.Run(b, "AblationNoHybrid") }

// BenchmarkKmerCount measures one optimized counting pass over the quick
// workload's reads (the §4.5 software path in isolation).
func BenchmarkKmerCount(b *testing.B) { benchsuite.Run(b, "KmerCount") }

// BenchmarkScaleOut8xBSP measures the 8-node distributed pipeline with
// BSP supersteps (compute, exchange, barrier every iteration).
func BenchmarkScaleOut8xBSP(b *testing.B) { benchsuite.Run(b, "ScaleOut8xBSP") }

// BenchmarkScaleOut8xOverlap measures the same machine under the
// overlapped halo-exchange runtime.
func BenchmarkScaleOut8xOverlap(b *testing.B) { benchsuite.Run(b, "ScaleOut8xOverlap") }

// BenchmarkScaleOut8xTorus measures the BSP machine on a routed 4x2
// torus instead of the idealized full mesh (comm_frac shows the cost of
// dimension-order routing and shared channels).
func BenchmarkScaleOut8xTorus(b *testing.B) { benchsuite.Run(b, "ScaleOut8xTorus") }

// BenchmarkScaleOut8xDragonfly measures the BSP machine on a dragonfly
// (all-to-all groups, per-group-pair global channels).
func BenchmarkScaleOut8xDragonfly(b *testing.B) { benchsuite.Run(b, "ScaleOut8xDragonfly") }

// BenchmarkScaleOut64xMeshParallel measures the 64-node overlapped
// machine with its engines pre-stepped on the worker pool on a full mesh,
// reporting speedup_vs_serial against a Workers=1 anchor run off the
// clock (and failing unless both produce identical results).
func BenchmarkScaleOut64xMeshParallel(b *testing.B) { benchsuite.Run(b, "ScaleOut64xMeshParallel") }

// BenchmarkScaleOut64xTorusParallel is the parallel-runtime bench on the
// routed 8x8 torus.
func BenchmarkScaleOut64xTorusParallel(b *testing.B) { benchsuite.Run(b, "ScaleOut64xTorusParallel") }

// BenchmarkScaleOut64xDragonflyParallel is the parallel-runtime bench on
// the dragonfly.
func BenchmarkScaleOut64xDragonflyParallel(b *testing.B) {
	benchsuite.Run(b, "ScaleOut64xDragonflyParallel")
}

// BenchmarkScaleOut64xBSPParallel measures the BSP superstep drain on
// the 64-node machine (same speedup_vs_serial
// contract as the overlapped parallel benches, plus a Workers ∈ {2, 4}
// sweep off the clock).
func BenchmarkScaleOut64xBSPParallel(b *testing.B) { benchsuite.Run(b, "ScaleOut64xBSPParallel") }

// BenchmarkScaleOut64xRebalanceParallel measures the rebalancing runtime
// on the worker pool, with migrations bounding every epoch.
func BenchmarkScaleOut64xRebalanceParallel(b *testing.B) {
	benchsuite.Run(b, "ScaleOut64xRebalanceParallel")
}

// BenchmarkScaleOut64xElasticParallel measures the elastic overlapped
// runtime — periodic captures plus a mid-phase node loss and recovery —
// on the worker pool.
func BenchmarkScaleOut64xElasticParallel(b *testing.B) {
	benchsuite.Run(b, "ScaleOut64xElasticParallel")
}

// BenchmarkTenancyFleet measures one multi-tenant fleet simulation: six
// mixed-width jobs time-sharing an 8-node fleet under fair-share
// checkpoint preemption (seed blobs built off the clock).
func BenchmarkTenancyFleet(b *testing.B) { benchsuite.Run(b, "TenancyFleet") }
