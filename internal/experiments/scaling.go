package experiments

import (
	"fmt"

	"nmppak/internal/report"
	"nmppak/internal/scaleout"
	"nmppak/internal/topo"
)

// scalingNodes are the machine sizes the scaling study sweeps.
var scalingNodes = []int{1, 2, 4, 8}

// topoSweepNodes are the machine sizes of the topology sweep; the larger
// points are where routed contention separates the topologies.
var topoSweepNodes = []int{8, 16, 64}

// skewedScalingWorkload derives the repeat-heavy variant of the workload
// the partitioner sweep is judged on: short repeat units covering almost
// half the genome concentrate k-mer mass into few minimizer super-buckets.
func skewedScalingWorkload(w Workload) Workload {
	w.RepeatFraction = 0.45
	w.RepeatUnit = 150
	return w
}

// scaleOutConfig builds the study's scale-out system for the workload.
func scaleOutConfig(w Workload, n int) scaleout.Config {
	cfg := scaleout.DefaultConfig(n)
	cfg.K = w.K
	cfg.MinCount = w.MinCount
	cfg.Workers = w.Workers
	return cfg
}

// scalingRuns memoizes scale-out simulations within one study so that
// identical configurations — in particular the 1-node baseline, which
// every partitioner column shares because a single node owns every key
// regardless of partitioner — are simulated once and reused.
type scalingRuns struct {
	ctx   *Context
	cache map[string]*scaleout.Result
}

// run simulates (or replays from cache) the study workload under cfg.
// The cache key is the full timing-relevant configuration (machine size,
// discipline, partitioner, counting knobs, topology and per-node NMP
// hardware); on one node ownership is trivial, so the partitioner drops
// out of the key and every 1-node partitioner column shares one cached
// baseline. The replay discipline stays in the key even at n=1 — totals
// coincide there, but the Compact phase split attributes barriers
// differently. Partitioners are keyed by Name() plus, when they expose
// one, a Fingerprint of their internal state (BalancedPartitioner does),
// so same-named instances built from different samples cannot collide.
func (sr *scalingRuns) run(cfg scaleout.Config) (*scaleout.Result, error) {
	pkey := cfg.Partitioner.Name()
	if fp, ok := cfg.Partitioner.(interface{ Fingerprint() uint64 }); ok {
		pkey = fmt.Sprintf("%s:%x", pkey, fp.Fingerprint())
	}
	if cfg.Nodes == 1 {
		pkey = "-"
	}
	key := fmt.Sprintf("n%d|ov%t|p%s|k%d|m%d|t%+v|h%+v", cfg.Nodes, cfg.Overlap,
		pkey, cfg.K, cfg.MinCount, cfg.Topo, cfg.NMP)
	if r, ok := sr.cache[key]; ok {
		return r, nil
	}
	tr, err := sr.ctx.Trace()
	if err != nil {
		return nil, err
	}
	r, err := scaleout.Simulate(sr.ctx.Reads, tr, cfg)
	if err != nil {
		return nil, err
	}
	sr.cache[key] = r
	return r, nil
}

// Scaling runs the scale-out study the paper's §6.4 supercomputer
// comparison gestures at but never measures: the same sharded
// multi-node structure as PaKman's MPI runs (distributed counting,
// distributed MacroNode construction, distributed Iterative Compaction
// with halo exchange), with every node a full NMP-PaK system.
//
// Strong scaling holds the workload fixed while nodes grow; weak scaling
// holds the per-node genome share fixed (GenomeLen/8 per node, so the
// 8-node point is the full workload). On top of the BSP baseline the
// study sweeps the runtime knobs: overlapped halo exchange
// (Config.Overlap) against BSP at every machine size, the interconnect
// topology (idealized full mesh vs. routed torus and dragonfly, both
// disciplines, up to 64 nodes), and the partitioner choice (hash /
// minimizer / weight-aware balanced / measurement-driven rebalancing) on
// a repeat-heavy skewed workload at 8 nodes. The N=1 compaction phase is
// cycle-identical to the single-node SimulateNMP result; speedups are
// deterministic replays, reproducible bit for bit.
func Scaling(c *Context) (*Report, error) {
	sr := &scalingRuns{ctx: c, cache: map[string]*scaleout.Result{}}

	// Strong scaling: fixed workload, growing machine, BSP replay.
	strong := make([]*scaleout.Result, 0, len(scalingNodes))
	for _, n := range scalingNodes {
		res, err := sr.run(scaleOutConfig(c.W, n))
		if err != nil {
			return nil, err
		}
		strong = append(strong, res)
	}

	// Overlapped replay on the same machines (the 1-node entry is the
	// shared cached baseline: with one node both disciplines coincide).
	overlap := make([]*scaleout.Result, 0, len(scalingNodes))
	for _, n := range scalingNodes {
		cfg := scaleOutConfig(c.W, n)
		cfg.Overlap = true
		res, err := sr.run(cfg)
		if err != nil {
			return nil, err
		}
		overlap = append(overlap, res)
	}

	// Weak scaling: per-node share fixed at 1/8 of the workload genome.
	perNode := c.W.GenomeLen / scalingNodes[len(scalingNodes)-1]
	weak := make([]*scaleout.Result, 0, len(scalingNodes))
	for _, n := range scalingNodes {
		w := c.W
		w.GenomeLen = perNode * n
		wc, err := NewContext(w)
		if err != nil {
			return nil, err
		}
		wtr, err := wc.Trace()
		if err != nil {
			return nil, err
		}
		res, err := scaleout.Simulate(wc.Reads, wtr, scaleOutConfig(w, n))
		if err != nil {
			return nil, err
		}
		weak = append(weak, res)
	}

	cycles := func(rs []*scaleout.Result) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = float64(r.TotalCycles)
		}
		return out
	}
	comm := func(rs []*scaleout.Result) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = r.CommFraction
		}
		return out
	}
	text := report.Scaling("Strong scaling (fixed workload, BSP)", scalingNodes, cycles(strong), comm(strong)) +
		"\n" + report.Scaling(fmt.Sprintf("Weak scaling (%d bp genome per node)", perNode),
		scalingNodes, cycles(weak), comm(weak))

	// Overlap-vs-BSP: same shards, same per-node compute, different
	// schedule; the win is whatever link time hides behind lagging nodes.
	ovt := &report.Table{
		Title:   "Overlapped halo exchange vs. BSP (same shards and trace)",
		Headers: []string{"nodes", "bsp compact", "overlap compact", "gain", "bsp total", "overlap total", "gain", "exposed comm"},
	}
	for i := range scalingNodes {
		b, o := strong[i], overlap[i]
		ovt.AddRow(scalingNodes[i],
			fmt.Sprintf("%d", b.Compact.Total()),
			fmt.Sprintf("%d", o.Compact.Total()),
			report.Ratio(float64(b.Compact.Total()), float64(o.Compact.Total())),
			fmt.Sprintf("%d", b.TotalCycles),
			fmt.Sprintf("%d", o.TotalCycles),
			report.Ratio(float64(b.TotalCycles), float64(o.TotalCycles)),
			fmt.Sprintf("%d", o.Compact.Exchange))
	}
	text += "\n" + ovt.String()

	// Topology sweep: the same workload and shards on a full mesh, a 2D
	// torus and a dragonfly (auto shapes), BSP and overlapped, at the
	// machine sizes where routed contention separates them. Runs are
	// memoized like everything else in the study; the full-mesh 8-node
	// rows are the strong-scaling runs replayed from cache.
	topoCfgs := []struct {
		label string
		cfg   topo.Config
	}{
		{"mesh", topo.Default()},
		{"torus", topo.Torus(0, 0)},
		{"dfly", topo.DragonflyGroups()},
	}
	tt := &report.Table{
		Title:   "Topology sweep (routed contention vs. the idealized full mesh)",
		Headers: []string{"nodes", "topology", "bsp cycles", "bsp comm", "overlap cycles", "overlap comm", "bsp speedup"},
	}
	topoMeasured := map[string]float64{}
	for _, n := range topoSweepNodes {
		for _, tc := range topoCfgs {
			cfg := scaleOutConfig(c.W, n)
			cfg.Topo = tc.cfg
			rb, err := sr.run(cfg)
			if err != nil {
				return nil, err
			}
			cfg.Overlap = true
			ro, err := sr.run(cfg)
			if err != nil {
				return nil, err
			}
			tt.AddRow(n, rb.Topology,
				fmt.Sprintf("%d", rb.TotalCycles),
				report.Percent(rb.CommFraction),
				fmt.Sprintf("%d", ro.TotalCycles),
				report.Percent(ro.CommFraction),
				fmt.Sprintf("%.2fx", rb.Speedup(strong[0])))
			if n == topoSweepNodes[0] || n == topoSweepNodes[len(topoSweepNodes)-1] {
				topoMeasured[fmt.Sprintf("comm_frac_%s_%dx", tc.label, n)] = rb.CommFraction
				topoMeasured[fmt.Sprintf("speedup_%s_%dx", tc.label, n)] = rb.Speedup(strong[0])
				topoMeasured[fmt.Sprintf("overlap_gain_%s_%dx", tc.label, n)] =
					float64(rb.TotalCycles) / float64(ro.TotalCycles)
			}
		}
	}
	text += "\n" + tt.String()

	// Partitioner sweep on the skewed (repeat-heavy) workload: the
	// balanced partitioner must recover the minimizer scheme's locality
	// without its load imbalance. The 1-node baseline is derived once and
	// shared by every partitioner column (ownership is trivial on one
	// node), and the weight-aware table is built from the same counting
	// result the sharded pipeline recounts.
	sw := skewedScalingWorkload(c.W)
	sctx, err := NewContext(sw)
	if err != nil {
		return nil, err
	}
	skres, err := sctx.Kmers()
	if err != nil {
		return nil, err
	}
	const sweepNodes = 8
	ssr := &scalingRuns{ctx: sctx, cache: map[string]*scaleout.Result{}}
	sbase, err := ssr.run(scaleOutConfig(sw, 1))
	if err != nil {
		return nil, err
	}
	pt := &report.Table{
		Title: fmt.Sprintf("Partitioner sweep, skewed workload (repeats %.0f%%/%d bp), %d nodes",
			sw.RepeatFraction*100, sw.RepeatUnit, sweepNodes),
		Headers: []string{"partitioner", "cycles", "speedup", "imbalance", "remote TNs", "comm"},
	}
	sweepParts := []scaleout.Partitioner{
		scaleout.HashPartitioner{},
		scaleout.NewMinimizerPartitioner(12),
		scaleout.NewBalancedPartitioner(skres, 12, sweepNodes),
		scaleout.NewRebalancePartitioner(12, 1),
	}
	sweep := make([]*scaleout.Result, len(sweepParts))
	for i, p := range sweepParts {
		cfg := scaleOutConfig(sw, sweepNodes)
		cfg.Partitioner = p
		res, err := ssr.run(cfg)
		if err != nil {
			return nil, err
		}
		sweep[i] = res
		pt.AddRow(p.Name(),
			fmt.Sprintf("%d", res.TotalCycles),
			fmt.Sprintf("%.2fx", res.Speedup(sbase)),
			fmt.Sprintf("%.3f", res.Imbalance),
			report.Percent(res.RemoteTNFrac),
			report.Percent(res.CommFraction))
	}
	text += "\n" + pt.String()
	reb8 := sweep[len(sweep)-1]
	text += fmt.Sprintf("rebalance: %d migrations moved %.2f MB of MacroNodes between iterations (charged to the network).\n",
		reb8.Rebalances, float64(reb8.MigratedBytes)/1e6)

	phase := &report.Table{
		Title:   "Strong-scaling phase split (cycles, BSP)",
		Headers: []string{"nodes", "count", "construct", "compact", "exchange", "remote TNs", "imbalance"},
	}
	for _, r := range strong {
		phase.AddRow(r.Nodes,
			fmt.Sprintf("%d", r.Count.Total()),
			fmt.Sprintf("%d", r.Construct.Total()),
			fmt.Sprintf("%d", r.Compact.Total()),
			fmt.Sprintf("%d", r.Count.Exchange+r.Construct.Exchange+r.Compact.Exchange),
			report.Percent(r.RemoteTNFrac),
			fmt.Sprintf("%.2f", r.Imbalance))
	}
	text += "\n" + phase.String() +
		"N=1 compaction is cycle-identical to the single-node SimulateNMP replay.\n"

	hash8, min8, bal8 := sweep[0], sweep[1], sweep[2]
	measured := map[string]float64{
		"imbalance_reb_8x":      reb8.Imbalance,
		"remote_tn_reb_8x":      reb8.RemoteTNFrac,
		"rebalance_moved_mb_8x": float64(reb8.MigratedBytes) / 1e6,
		"comm_frac_8x":          strong[len(strong)-1].CommFraction,
		"weak_eff_8x":           weak[len(weak)-1].Speedup(weak[0]),
		"imbalance_8x":          strong[len(strong)-1].Imbalance,
		"remote_tn_8x":          strong[len(strong)-1].RemoteTNFrac,
		"n1_compact_cy":         float64(strong[0].Compact.Total()),
		"overlap_compact_8x":    float64(overlap[len(overlap)-1].Compact.Total()),
		"bsp_compact_8x":        float64(strong[len(strong)-1].Compact.Total()),
		"overlap_total_gain_8x": float64(strong[len(strong)-1].TotalCycles) / float64(overlap[len(overlap)-1].TotalCycles),
		"imbalance_hash_8x":     hash8.Imbalance,
		"imbalance_min_8x":      min8.Imbalance,
		"imbalance_bal_8x":      bal8.Imbalance,
		"remote_tn_bal_8x":      bal8.RemoteTNFrac,
		"remote_tn_hash_8x":     hash8.RemoteTNFrac,
	}
	for i, n := range scalingNodes {
		if n == 1 {
			continue
		}
		measured[fmt.Sprintf("speedup_%dx", n)] = strong[i].Speedup(strong[0])
		measured[fmt.Sprintf("eff_%dx", n)] = strong[i].Efficiency(strong[0])
	}
	for k, v := range topoMeasured {
		measured[k] = v
	}
	return &Report{
		ID:       "scaling",
		Title:    "Scale-out strong/weak scaling, overlap and partitioner study",
		Text:     text,
		Measured: measured,
	}, nil
}
