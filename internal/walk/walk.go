// Package walk generates contigs from a (typically compacted) PaK-graph —
// Stage E of the PaKman pipeline (Fig. 2E). The paper measures this stage
// at ~1% of runtime once Iterative Compaction has shrunk the graph.
//
// A contig is spelled by starting at a wire whose prefix side is terminal
// (a read/contig beginning), emitting prefix + key + suffix, and repeatedly
// hopping to the successor node through the suffix extension: arriving at
// node w via suffix s of node v, the traversal entered through w's prefix
// extension (v+s)[:|s|] and continues through an unused wire of that
// prefix, appending its suffix extension — until a terminal suffix or a
// dead end. Each wire is traversed at most once; remaining unused wires
// (cycles) are walked from an arbitrary start.
package walk

import (
	"sort"

	"nmppak/internal/dna"
	"nmppak/internal/pakgraph"
)

// Options controls contig generation. It has no fields: every contig is
// returned and callers filter by length (assemble.Config.MinContigLen).
// It stays so that callers outside this module, such as the benchmark
// module, keep compiling.
type Options struct{}

// Contigs walks g and returns the spelled contigs, longest first.
// Completed contigs finished during compaction should be appended by the
// caller (assemble does this).
func Contigs(g *pakgraph.Graph, _ Options) []dna.Seq {
	k1 := g.K1()
	// used[i][wi] marks wire wi of g.Nodes[i] as walked.
	used := make([][]bool, g.Len())
	for i := range g.Nodes {
		used[i] = make([]bool, len(g.Nodes[i].Wires))
	}
	var out []dna.Seq

	// Both passes visit nodes in ascending key order. Pass 1: walks
	// beginning at terminal prefixes.
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for wi, w := range n.Wires {
			if used[i][wi] || !n.Prefixes[w.P].Terminal {
				continue
			}
			out = append(out, traverse(g, used, i, wi, k1))
		}
	}
	// Pass 2: leftover wires (cycles or dead-start fragments).
	for i := range g.Nodes {
		for wi := range g.Nodes[i].Wires {
			if !used[i][wi] {
				out = append(out, traverse(g, used, i, wi, k1))
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Len() != out[j].Len() {
			return out[i].Len() > out[j].Len()
		}
		return out[i].Cmp(out[j]) < 0
	})
	return out
}

// traverse spells one contig starting at wire wi of node g.Nodes[ni],
// consuming wires as it goes.
func traverse(g *pakgraph.Graph, used [][]bool, ni, wi int, k1 int) dna.Seq {
	n := &g.Nodes[ni]
	w := n.Wires[wi]
	used[ni][wi] = true
	contig := n.Prefixes[w.P].Seq.Concat(n.Key.Seq(k1))
	for {
		s := n.Suffixes[w.S]
		contig = contig.Concat(s.Seq)
		if s.Terminal {
			return contig
		}
		ni = g.Index(dna.NeighborViaSuffix(n.Key, k1, s.Seq))
		if ni < 0 {
			return contig // dangling edge (possible only on merged noisy graphs)
		}
		next := &g.Nodes[ni]
		// The traversal entered next through prefix extension
		// (key+s)[:|s|].
		arr := dna.JoinRange(n.Key.Seq(k1), s.Seq, 0, s.Seq.Len())
		pj := -1
		for i, e := range next.Prefixes {
			if !e.Terminal && e.Seq.Equal(arr) {
				pj = i
				break
			}
		}
		if pj < 0 {
			return contig
		}
		// Choose the highest-count unused wire departing from that prefix.
		best, bestCount := -1, uint32(0)
		for i, nw := range next.Wires {
			if int(nw.P) == pj && !used[ni][i] && nw.Count > bestCount {
				best, bestCount = i, nw.Count
			}
		}
		if best < 0 {
			return contig
		}
		used[ni][best] = true
		n, w = next, next.Wires[best]
	}
}
