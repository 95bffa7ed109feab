package experiments

import (
	"fmt"
	"reflect"
	"time"

	"nmppak/internal/assemble"
	"nmppak/internal/compact"
	"nmppak/internal/footprint"
	"nmppak/internal/kmer"
	"nmppak/internal/metrics"
	"nmppak/internal/pakgraph"
	"nmppak/internal/readsim"
	"nmppak/internal/report"
)

// Fig5 measures the runtime breakdown of the assembly pipeline stages
// (paper: A 2%, B 25%, C 24%, D 48%, E 1% on the optimized algorithm).
func Fig5(c *Context) (*Report, error) {
	out, err := c.Assemble(1, compact.FlowPipelined)
	if err != nil {
		return nil, err
	}
	total := out.Times.Total().Seconds()
	frac := func(d time.Duration) float64 { return d.Seconds() / total }
	tab := &report.Table{
		Title:   "Runtime breakdown of the PaKman pipeline (optimized algorithm)",
		Headers: []string{"stage", "seconds", "fraction"},
	}
	tab.AddRow("A access+distribute", out.Times.Distribute.Seconds(), report.Percent(frac(out.Times.Distribute)))
	tab.AddRow("B k-mer counting", out.Times.KmerCount.Seconds(), report.Percent(frac(out.Times.KmerCount)))
	tab.AddRow("C MN construct+wiring", out.Times.Construct.Seconds(), report.Percent(frac(out.Times.Construct)))
	tab.AddRow("D iterative compaction", out.Times.Compact.Seconds(), report.Percent(frac(out.Times.Compact)))
	tab.AddRow("E graph walk+contig gen", out.Times.Walk.Seconds(), report.Percent(frac(out.Times.Walk)))
	return &Report{
		ID: "fig5", Title: "Pipeline runtime breakdown", Text: tab.String(),
		Measured: map[string]float64{
			"frac_kmer_counting": frac(out.Times.KmerCount),
			"frac_construct":     frac(out.Times.Construct),
			"frac_compaction":    frac(out.Times.Compact),
			"frac_walk":          frac(out.Times.Walk),
		},
		Paper: map[string]float64{
			"frac_kmer_counting": 0.25,
			"frac_construct":     0.24,
			"frac_compaction":    0.48,
			"frac_walk":          0.01,
		},
	}, nil
}

// Fig7 reports the MacroNode size distribution at iterations 0, 7 and the
// final iteration (paper Fig. 7: long tail, most nodes under 1 KB).
func Fig7(c *Context) (*Report, error) {
	tr, err := c.DeepTrace()
	if err != nil {
		return nil, err
	}
	iters := []int{0, 7, len(tr.Iterations) - 1}
	if iters[1] >= len(tr.Iterations) {
		iters[1] = len(tr.Iterations) / 2
	}
	// Buckets: <256B, 256-512, 512-1K, 1-2K, 2-4K, 4-8K, 8-16K, 16-32K, >32K
	bounds := []int{256, 512, 1024, 2048, 4096, 8192, 16384, 32768}
	labels := []string{"<256B", "256B", "512B", "1KB", "2KB", "4KB", "8KB", "16KB", ">32KB"}
	tab := &report.Table{
		Title:   "MacroNode size distribution during Iterative Compaction (counts)",
		Headers: append([]string{"iteration"}, labels...),
	}
	measured := map[string]float64{}
	for _, it := range iters {
		h := make([]int, len(bounds)+1)
		for _, n := range tr.Iterations[it].Nodes {
			sz := int(n.D1 + n.D2)
			b := 0
			for b < len(bounds) && sz >= bounds[b] {
				b++
			}
			h[b]++
		}
		row := make([]any, 0, len(h)+1)
		row = append(row, fmt.Sprintf("iter %d", it))
		for _, cnt := range h {
			row = append(row, cnt)
		}
		tab.AddRow(row...)
	}
	// Final-iteration tail fractions (paper: >1KB 7.4%, >2KB 1.2%, >4KB
	// 0.1%, >8KB 0.03% at completion).
	last := tr.Iterations[len(tr.Iterations)-1]
	total := float64(len(last.Nodes))
	for _, th := range []int{1024, 2048, 4096, 8192} {
		n := 0
		for _, nd := range last.Nodes {
			if int(nd.D1+nd.D2) > th {
				n++
			}
		}
		measured[fmt.Sprintf("final_frac_gt_%dB", th)] = float64(n) / total
	}
	return &Report{
		ID: "fig7", Title: "MacroNode size distribution", Text: tab.String(),
		Measured: measured,
		Paper: map[string]float64{
			"final_frac_gt_1024B": 0.074,
			"final_frac_gt_2048B": 0.012,
			"final_frac_gt_4096B": 0.001,
			"final_frac_gt_8192B": 0.0003,
		},
	}, nil
}

// Fig8 tracks the proportion of oversized MacroNodes across iterations
// (paper: >1KB stays below 7.4%, >8KB below 0.05% throughout).
func Fig8(c *Context) (*Report, error) {
	tr, err := c.DeepTrace()
	if err != nil {
		return nil, err
	}
	tab := &report.Table{
		Title:   "Proportion of MacroNodes exceeding size thresholds per iteration",
		Headers: []string{"iteration", ">1KB", ">2KB", ">4KB", ">8KB"},
	}
	var max1, max8 float64
	step := len(tr.Iterations) / 12
	if step < 1 {
		step = 1
	}
	for it := 0; it < len(tr.Iterations); it++ {
		nodes := tr.Iterations[it].Nodes
		total := float64(len(nodes))
		var f [4]float64
		for _, nd := range nodes {
			sz := int(nd.D1 + nd.D2)
			for i, th := range []int{1024, 2048, 4096, 8192} {
				if sz > th {
					f[i]++
				}
			}
		}
		for i := range f {
			f[i] /= total
		}
		if f[0] > max1 {
			max1 = f[0]
		}
		if f[3] > max8 {
			max8 = f[3]
		}
		if it%step == 0 || it == len(tr.Iterations)-1 {
			tab.AddRow(it, report.Percent(f[0]), report.Percent(f[1]), report.Percent(f[2]), report.Percent(f[3]))
		}
	}
	return &Report{
		ID: "fig8", Title: "Oversized MacroNode proportion over iterations", Text: tab.String(),
		Measured: map[string]float64{"max_frac_gt_1KB": max1, "max_frac_gt_8KB": max8},
		Paper:    map[string]float64{"max_frac_gt_1KB": 0.074, "max_frac_gt_8KB": 0.0005},
	}, nil
}

// Table1 sweeps the batch size and measures contig N50 (paper Table 1:
// 0.5% 875, 1% 1123, 3% 1209, 4% 1107, 5% 3014, 10% 3535 — quality
// degrades as batches shrink).
func Table1(c *Context) (*Report, error) {
	// The paper sequences at 100x coverage (Table 2); the batch-size
	// trade-off depends on per-batch coverage crossing the error-pruning
	// threshold, so this sweep re-sequences the workload's genome at the
	// paper's coverage regardless of the context default.
	reads, err := readsim.Simulate(c.Genome, readsim.Config{
		ReadLen: c.W.ReadLen, Coverage: 100, ErrorRate: c.W.ErrorRate, Seed: c.W.Seed,
	})
	if err != nil {
		return nil, err
	}
	fractions := []float64{0.005, 0.01, 0.03, 0.04, 0.05, 0.10}
	tab := &report.Table{
		Title:   "Contig quality (N50) across batch sizes (100x coverage)",
		Headers: []string{"batch size", "batches", "N50", "contigs", "genome frac"},
	}
	measured := map[string]float64{}
	for _, f := range fractions {
		batches := int(1/f + 0.5)
		out, err := assemble.Run(reads, assemble.Config{
			K: c.W.K, Workers: c.W.Workers, MinCount: c.W.MinCount, Batches: batches,
		})
		if err != nil {
			return nil, err
		}
		sum := metrics.Summarize(out.Contigs, c.Genome.Replicons)
		tab.AddRow(report.Percent(f), batches, sum.N50, sum.Contigs, fmt.Sprintf("%.3f", sum.GenomeFrac))
		measured[fmt.Sprintf("n50_batch_%g%%", f*100)] = float64(sum.N50)
	}
	return &Report{
		ID: "table1", Title: "N50 vs batch size", Text: tab.String(),
		Measured: measured,
		Paper: map[string]float64{
			"n50_batch_0.5%": 875, "n50_batch_1%": 1123, "n50_batch_3%": 1209,
			"n50_batch_4%": 1107, "n50_batch_5%": 3014, "n50_batch_10%": 3535,
		},
	}, nil
}

// SWOpt measures the §4.5 software-optimization speedups: optimized vs
// naive k-mer counting (paper: 416x on k-mer counting, 110x end-to-end;
// our gap is smaller because Go's sort and allocator behave better than
// the unoptimized C++ flow, but the direction and order must hold).
func SWOpt(c *Context) (*Report, error) {
	cfg := kmer.Config{K: c.W.K, Workers: c.W.Workers, MinCount: c.W.MinCount}
	t0 := time.Now()
	optRes, err := kmer.Count(c.Reads, cfg)
	if err != nil {
		return nil, err
	}
	tOpt := time.Since(t0)
	t0 = time.Now()
	naiveRes, err := kmer.CountNaive(c.Reads, cfg)
	if err != nil {
		return nil, err
	}
	tNaive := time.Since(t0)
	if err := sameCounts(optRes, naiveRes); err != nil {
		return nil, err
	}
	speedup := tNaive.Seconds() / tOpt.Seconds()
	text := fmt.Sprintf("k-mer counting: naive %.3fs, optimized %.3fs -> %.1fx speedup\n"+
		"(paper reports 416x against the original single-vector serial C++ flow;\n"+
		" the Go naive path lacks the repeated-reallocation pathology at full scale)\n",
		tNaive.Seconds(), tOpt.Seconds(), speedup)
	return &Report{
		ID: "swopt", Title: "Software optimization speedup (§4.5)", Text: text,
		Measured: map[string]float64{"kmer_count_speedup": speedup},
		Paper:    map[string]float64{"kmer_count_speedup": 416},
	}, nil
}

// sameCounts reports whether the optimized and naive counting passes agree
// on every field of their results: k-mers, counts and pruning statistics.
func sameCounts(opt, naive *kmer.Result) error {
	if !reflect.DeepEqual(opt, naive) {
		return fmt.Errorf("swopt: implementations disagree")
	}
	return nil
}

// Footprint reproduces the memory-footprint comparison (§3.5/§4.4/§4.5):
// baseline PaKman organization on the whole dataset versus the optimized
// organization with 10% batches (paper: 14x overall, 1.4x from the
// §4.5 memory management alone).
func Footprint(c *Context) (*Report, error) {
	resAll, err := kmer.Count(c.Reads, kmer.Config{K: c.W.K, Workers: c.W.Workers, MinCount: c.W.MinCount})
	if err != nil {
		return nil, err
	}
	gAll, err := pakgraph.Build(resAll)
	if err != nil {
		return nil, err
	}
	batch := c.Reads[:len(c.Reads)/10]
	resBatch, err := kmer.Count(batch, kmer.Config{K: c.W.K, Workers: c.W.Workers, MinCount: c.W.MinCount})
	if err != nil {
		return nil, err
	}
	gBatch, err := pakgraph.Build(resBatch)
	if err != nil {
		return nil, err
	}

	baseline := footprint.Estimate(gAll, resAll.TotalExtracted, 1, footprint.BaselineParams())
	optWhole := footprint.Estimate(gAll, resAll.TotalExtracted, 1, footprint.OptimizedParams())
	optBatched := footprint.Estimate(gBatch, resAll.TotalExtracted, 10, footprint.OptimizedParams())

	mgmt := footprint.Ratio(baseline, optWhole)
	overall := footprint.Ratio(baseline, optBatched)
	text := fmt.Sprintf(
		"baseline (by-value, whole dataset):   %8.1f MB\n"+
			"optimized organization, whole:        %8.1f MB  (%.2fx, paper ~1.4x)\n"+
			"optimized + 10%% batches:              %8.1f MB  (%.1fx, paper 14x)\n"+
			"input reads:                          %8.1f MB -> footprint/input %.1fx (paper 13-25x)\n",
		mb(baseline), mb(optWhole), mgmt, mb(optBatched), overall,
		mb(inputBytes(c)), float64(baseline)/float64(inputBytes(c)))
	return &Report{
		ID: "footprint", Title: "Memory footprint reduction", Text: text,
		Measured: map[string]float64{
			"mgmt_ratio":          mgmt,
			"overall_ratio":       overall,
			"footprint_per_input": float64(baseline) / float64(inputBytes(c)),
		},
		Paper: map[string]float64{"mgmt_ratio": 1.4, "overall_ratio": 14, "footprint_per_input": 19},
	}, nil
}

func mb(b int64) float64 { return float64(b) / 1e6 }

func inputBytes(c *Context) int64 {
	var t int64
	for _, r := range c.Reads {
		t += int64(r.Seq.Len())
	}
	return t
}
