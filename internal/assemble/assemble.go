// Package assemble orchestrates the end-to-end PaKman pipeline (Fig. 2):
// (A) access and distribute reads into batches, (B) k-mer counting, (C)
// MacroNode construction and wiring, (D) Iterative Compaction, and (E)
// graph walk and contig generation — with the paper's customized batch
// processing (§4.4): each batch is counted, built and compacted
// independently; the small compacted PaK-graphs are merged; and contig
// generation runs once over the merged graph.
package assemble

import (
	"fmt"
	"time"

	"nmppak/internal/compact"
	"nmppak/internal/dna"
	"nmppak/internal/kmer"
	"nmppak/internal/metrics"
	"nmppak/internal/pakgraph"
	"nmppak/internal/readsim"
	"nmppak/internal/walk"
)

// Config parameterizes an assembly run.
type Config struct {
	K        int    // k-mer length (paper: 32)
	Workers  int    // <=0: GOMAXPROCS
	MinCount uint32 // per-batch k-mer pruning threshold (error filtering)
	// Batches splits the read set into this many sequentially processed
	// batches (1 = whole-dataset processing). The paper's default batch
	// size is 10% of the input (Batches=10).
	Batches int
	// CompactThreshold stops per-batch and final compaction when the live
	// node count falls below it (paper: 100,000; scale to workload).
	CompactThreshold int
	// MaxIters bounds each compaction run (safety net; <=0 unbounded).
	MaxIters int
	Flow     compact.Flow
	// MinContigLen filters the reported contigs.
	MinContigLen int
	// Observer, when set, receives compaction events (used for trace
	// capture). Run rejects it with more than one batch, whose compaction
	// runs would restart the iteration indices of one trace.
	Observer compact.Observer
}

// StageTimes records wall-clock per pipeline stage (Fig. 5's breakdown).
type StageTimes struct {
	Distribute time.Duration // A: access & distribute reads
	KmerCount  time.Duration // B
	Construct  time.Duration // C: MacroNode construction & wiring
	Compact    time.Duration // D: Iterative Compaction (incl. merge)
	Walk       time.Duration // E: graph walk & contig generation
}

// Total sums all stages.
func (s StageTimes) Total() time.Duration {
	return s.Distribute + s.KmerCount + s.Construct + s.Compact + s.Walk
}

// Output is the result of an assembly run.
type Output struct {
	Contigs []dna.Seq
	Summary metrics.Summary
	Times   StageTimes
	// CompactStats concatenates iteration stats from every compaction run
	// (per batch, then the final merged pass).
	CompactStats []compact.IterStats
	// FinalGraph is the merged, fully compacted graph (post-walk contents
	// are unchanged by walking).
	FinalGraph *pakgraph.Graph
	// KmerDistinct/KmerPruned aggregate counting statistics over batches.
	KmerDistinct int64
	KmerPruned   int64
	// PeakGraphNodes is the largest per-batch graph size observed, the
	// proxy for the in-flight memory footprint under batching.
	PeakGraphNodes int
}

// Run executes the pipeline.
func Run(reads []readsim.Read, cfg Config) (*Output, error) {
	if cfg.K < 2 || cfg.K > dna.MaxK {
		return nil, fmt.Errorf("assemble: K=%d out of range [2,%d]", cfg.K, dna.MaxK)
	}
	if cfg.Batches <= 0 {
		cfg.Batches = 1
	}
	if cfg.Batches > len(reads) && len(reads) > 0 {
		cfg.Batches = len(reads)
	}
	if cfg.Observer != nil && cfg.Batches > 1 {
		return nil, fmt.Errorf("assemble: an Observer traces one compaction run, got %d batches", cfg.Batches)
	}
	out := &Output{}

	// Stage A: distribute reads into batches.
	t0 := time.Now()
	batches := splitBatches(reads, cfg.Batches)
	out.Times.Distribute = time.Since(t0)

	var merged *pakgraph.Graph
	for bi, batch := range batches {
		// Stage B: k-mer counting.
		t0 = time.Now()
		res, err := kmer.Count(batch, kmer.Config{K: cfg.K, Workers: cfg.Workers, MinCount: cfg.MinCount})
		if err != nil {
			return nil, fmt.Errorf("assemble: batch %d: %w", bi, err)
		}
		out.Times.KmerCount += time.Since(t0)
		out.KmerDistinct += int64(len(res.Kmers))
		out.KmerPruned += res.PrunedKinds

		// Stage C: MacroNode construction and wiring.
		t0 = time.Now()
		g, err := pakgraph.Build(res)
		if err != nil {
			return nil, fmt.Errorf("assemble: batch %d: %w", bi, err)
		}
		out.Times.Construct += time.Since(t0)
		if g.Len() > out.PeakGraphNodes {
			out.PeakGraphNodes = g.Len()
		}

		// Stage D: per-batch Iterative Compaction.
		t0 = time.Now()
		cres, err := compact.Run(g, compact.Options{
			Workers:   cfg.Workers,
			Threshold: cfg.CompactThreshold,
			MaxIters:  cfg.MaxIters,
			Flow:      cfg.Flow,
			Observer:  cfg.Observer,
		})
		if err != nil {
			return nil, fmt.Errorf("assemble: batch %d: %w", bi, err)
		}
		out.CompactStats = append(out.CompactStats, cres.Stats...)
		out.Contigs = append(out.Contigs, cres.Completed...)

		// Merge the compacted batch graph (§4.4: "The compacted PaK-graphs
		// from all batches are merged for contig generation").
		if merged == nil {
			merged = g
		} else if err := merged.Merge(g); err != nil {
			return nil, err
		}
		out.Times.Compact += time.Since(t0)
	}

	// Final compaction over the merged graph, then Stage E: walk.
	t0 = time.Now()
	if cfg.Batches > 1 {
		cres, err := compact.Run(merged, compact.Options{
			Workers:   cfg.Workers,
			Threshold: cfg.CompactThreshold,
			MaxIters:  cfg.MaxIters,
			Flow:      cfg.Flow,
		})
		if err != nil {
			return nil, err
		}
		out.CompactStats = append(out.CompactStats, cres.Stats...)
		out.Contigs = append(out.Contigs, cres.Completed...)
	}
	out.Times.Compact += time.Since(t0)

	t0 = time.Now()
	out.Contigs = append(out.Contigs, walk.Contigs(merged, walk.Options{})...)
	if cfg.MinContigLen > 0 {
		kept := out.Contigs[:0]
		for _, c := range out.Contigs {
			if c.Len() >= cfg.MinContigLen {
				kept = append(kept, c)
			}
		}
		out.Contigs = kept
	}
	out.Times.Walk = time.Since(t0)

	out.FinalGraph = merged
	out.Summary = metrics.Summarize(out.Contigs, nil)
	return out, nil
}

// splitBatches partitions reads into n contiguous batches.
func splitBatches(reads []readsim.Read, n int) [][]readsim.Read {
	if n <= 1 || len(reads) == 0 {
		return [][]readsim.Read{reads}
	}
	out := make([][]readsim.Read, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := len(reads)*i/n, len(reads)*(i+1)/n
		if lo < hi {
			out = append(out, reads[lo:hi])
		}
	}
	return out
}
