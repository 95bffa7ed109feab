// Scale-out: capture one compaction trace, then replay it on 1-8 virtual
// NMP-PaK nodes joined by a 25 GB/s interconnect — distributed k-mer
// counting, distributed MacroNode construction, and distributed Iterative
// Compaction with halo exchange. Prints the strong-scaling curve under
// both replay disciplines (BSP supersteps vs. overlapped halo exchange),
// a topology comparison (idealized full mesh vs. routed torus and
// dragonfly), and a partitioner comparison (hash / minimizer /
// weight-aware balanced / measurement-driven rebalancing) at the largest
// machine.
package main

import (
	"fmt"
	"log"

	"nmppak"
)

func main() {
	g, err := nmppak.GenerateGenome(nmppak.GenomeConfig{
		Length: 200_000, Seed: 1,
		RepeatFraction: 0.3, RepeatUnit: 200, // some skew so partitioning matters
	})
	if err != nil {
		log.Fatal(err)
	}
	reads, err := nmppak.SimulateReads(g, nmppak.ReadConfig{
		ReadLen: 100, Coverage: 30, ErrorRate: 0.01, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	tr, _, err := nmppak.CaptureTrace(reads, 32, 3, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("genome %d bp, %d reads, %d compaction iterations\n\n",
		g.TotalLength(), len(reads), len(tr.Iterations))

	var base, res *nmppak.ScaleOutResult
	fmt.Println("nodes  mode     total ms  speedup  efficiency  comm    remote TNs  imbalance")
	for _, n := range []int{1, 2, 4, 8} {
		for _, overlap := range []bool{false, true} {
			cfg := nmppak.DefaultScaleOutConfig(n)
			cfg.Overlap = overlap
			res, err = nmppak.SimulateScaleOut(reads, tr, cfg)
			if err != nil {
				log.Fatal(err)
			}
			if base == nil {
				base = res
			}
			mode := "bsp"
			if overlap {
				mode = "overlap"
			}
			fmt.Printf("%5d  %-7s  %8.3f  %6.2fx  %9.1f%%  %5.1f%%  %9.1f%%  %9.2f\n",
				n, mode, res.Seconds*1e3, res.Speedup(base), res.Efficiency(base)*100,
				res.CommFraction*100, res.RemoteTNFrac*100, res.Imbalance)
		}
	}
	fmt.Printf("\nphases at %d nodes, overlapped (cycles):\n", res.Nodes)
	fmt.Printf("  count      compute %10d  exchange %8d  barrier %6d\n",
		res.Count.Compute, res.Count.Exchange, res.Count.Barrier)
	fmt.Printf("  construct  compute %10d  exchange %8d  barrier %6d\n",
		res.Construct.Compute, res.Construct.Exchange, res.Construct.Barrier)
	fmt.Printf("  compact    compute %10d  exposed  %8d  barrier %6d\n",
		res.Compact.Compute, res.Compact.Exchange, res.Compact.Barrier)

	// Topology comparison at 8 nodes: the same shards and traffic routed
	// through a full mesh of dedicated wires, a 2D torus (dimension-order
	// routing, shared channels) and a dragonfly (per-group-pair global
	// channels). Routed contention turns the idealized mesh numbers into
	// the honest ones.
	fmt.Println("\ntopology       mode     total ms  comm    speedup vs mesh")
	var meshTotal float64
	for _, tc := range []nmppak.TopoConfig{
		nmppak.DefaultTopo(),
		nmppak.TorusTopo(0, 0),
		nmppak.DragonflyTopo(),
	} {
		for _, overlap := range []bool{false, true} {
			cfg := nmppak.DefaultScaleOutConfig(8)
			cfg.Topo = tc
			cfg.Overlap = overlap
			r, err := nmppak.SimulateScaleOut(reads, tr, cfg)
			if err != nil {
				log.Fatal(err)
			}
			if meshTotal == 0 {
				meshTotal = float64(r.TotalCycles)
			}
			mode := "bsp"
			if overlap {
				mode = "overlap"
			}
			fmt.Printf("%-13s  %-7s  %8.3f  %5.1f%%  %14.2fx\n",
				r.Topology, mode, r.Seconds*1e3, r.CommFraction*100,
				meshTotal/float64(r.TotalCycles))
		}
	}

	// Partitioner comparison at 8 nodes: the balanced partitioner bins
	// minimizer super-buckets by the k-mer mass observed in a counting
	// pass; the rebalancer starts from a plain minimizer-bucket split and
	// migrates buckets off measured stragglers between iterations (BSP).
	kres, err := nmppak.CountKmers(reads, 32, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npartitioner    total ms  comm    remote TNs  imbalance")
	var static, rebalanced *nmppak.ScaleOutResult
	for _, p := range []nmppak.Partitioner{
		nmppak.HashPartitioner{},
		nmppak.NewMinimizerPartitioner(12),
		nmppak.NewBalancedPartitioner(kres, 12, 8),
		nmppak.NewRebalancePartitioner(12, 1),
	} {
		cfg := nmppak.DefaultScaleOutConfig(8)
		cfg.Partitioner = p
		r, err := nmppak.SimulateScaleOut(reads, tr, cfg)
		if err != nil {
			log.Fatal(err)
		}
		switch p.(type) {
		case nmppak.MinimizerPartitioner:
			static = r
		case *nmppak.RebalancePartitioner:
			rebalanced = r
		}
		fmt.Printf("%-13s  %8.3f  %5.1f%%  %9.1f%%  %9.2f\n",
			p.Name(), r.Seconds*1e3, r.CommFraction*100, r.RemoteTNFrac*100, r.Imbalance)
	}
	fmt.Printf("\nrebalancing: imbalance %.3f (static minimizer buckets) -> %.3f after %d migrations moving %.2f MB\n",
		static.Imbalance, rebalanced.Imbalance, rebalanced.Rebalances,
		float64(rebalanced.MigratedBytes)/1e6)
}
