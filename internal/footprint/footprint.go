// Package footprint models the assembly's runtime memory footprint — the
// quantity behind the paper's 14x reduction claim (§3.5, §4.4, §4.5) and
// the GPU capacity analysis (§6.6).
//
// Two software organizations are modeled:
//
//   - Baseline PaKman: MacroNode structs stored by value in MN_map and
//     passed by value through the call stack, duplicating node payloads;
//     std::vector growth slack; invalidated nodes compacted/moved every
//     iteration; the whole dataset processed at once.
//   - NMP-PaK (§4.4/§4.5): pointer-indirected map (one copy of each node),
//     deferred deletion, and batch processing so only one batch's graph is
//     live at a time.
//
// The model takes measured per-node byte sizes from real graphs, so the
// reported ratio reflects the actual workload rather than constants.
package footprint

import (
	"nmppak/internal/pakgraph"
)

// The overheads both organizations share: the per-node hash-map
// bookkeeping (bucket, hash, key copy) in bytes, and the compacted-graph
// residue each batch leaves behind (tens of MB in the paper) as a fraction
// of the batch graph. Typed, so Estimate rounds as with float64 fields.
const (
	mapEntryOverhead float64 = 48
	residueFraction  float64 = 0.02
)

// Params captures the overheads that differ between the organizations.
type Params struct {
	// ValueCopies is how many transient copies of a node payload the
	// by-value baseline keeps live on the call stack / in temporaries
	// during construction and compaction (the §4.5 analysis).
	ValueCopies float64
	// VectorSlack is the capacity/size ratio of exponentially grown
	// vectors (std::vector doubles: average slack 1.5x was measured ~1.4x
	// in §4.5's 528->379 GB improvement).
	VectorSlack float64
	// KmerBufferBytesPerKmer is the k-mer counting buffer (packed k-mer +
	// sort workspace).
	KmerBufferBytesPerKmer int
}

// BaselineParams models the original PaKman organization.
func BaselineParams() Params {
	return Params{
		ValueCopies:            1.0, // one extra live copy from by-value calls
		VectorSlack:            1.4,
		KmerBufferBytesPerKmer: 16, // single giant vector, repeated doubling
	}
}

// OptimizedParams models the §4.5 pointer-based organization.
func OptimizedParams() Params {
	return Params{
		ValueCopies:            0, // pointers: no duplicate payloads
		VectorSlack:            1.0,
		KmerBufferBytesPerKmer: 9, // preallocated exact-size per-thread vectors
	}
}

// Estimate computes the peak resident bytes for assembling a dataset of
// totalKmers whose per-batch graph is g, processed in `batches` sequential
// batches under params p, with each earlier batch's residue
// (residueFraction of the batch graph) still resident.
func Estimate(g *pakgraph.Graph, totalKmers int64, batches int, p Params) int64 {
	if batches < 1 {
		batches = 1
	}
	var graphBytes int64
	for i := range g.Nodes {
		payload := float64(g.Nodes[i].SizeBytes())
		perNode := payload*(1+p.ValueCopies)*p.VectorSlack + mapEntryOverhead
		graphBytes += int64(perNode)
	}
	kmerBytes := totalKmers / int64(batches) * int64(p.KmerBufferBytesPerKmer)
	residue := int64(residueFraction * float64(graphBytes) * float64(batches-1))
	return graphBytes + kmerBytes + residue
}

// Ratio compares two estimates.
func Ratio(baseline, optimized int64) float64 {
	if optimized <= 0 {
		return 0
	}
	return float64(baseline) / float64(optimized)
}
