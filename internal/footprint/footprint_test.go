package footprint

import (
	"testing"

	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/pakgraph"
	"nmppak/internal/readsim"
)

func buildGraph(t testing.TB) (*pakgraph.Graph, int64) {
	t.Helper()
	g, err := genome.Generate(genome.Config{Length: 20000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(g, readsim.Config{ReadLen: 100, Coverage: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := kmer.Count(reads, kmer.Config{K: 32})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := pakgraph.Build(res)
	if err != nil {
		t.Fatal(err)
	}
	return pg, res.TotalExtracted
}

func TestOptimizedSmallerThanBaseline(t *testing.T) {
	g, kmers := buildGraph(t)
	base := Estimate(g, kmers, 1, BaselineParams())
	opt := Estimate(g, kmers, 1, OptimizedParams())
	if opt >= base {
		t.Fatalf("optimized %d >= baseline %d", opt, base)
	}
	// §4.5 reports ~1.4x from pointer indirection + deferred deletion.
	r := Ratio(base, opt)
	if r < 1.2 || r > 3 {
		t.Fatalf("organization ratio %.2f outside plausible range", r)
	}
}

func TestBatchingReducesFootprintRoughlyLinearly(t *testing.T) {
	g, kmers := buildGraph(t)
	// Batching shrinks the per-batch graph: model it by scaling the graph
	// itself is not possible here, so we check the k-mer buffer component
	// scales and the combined §4.4+§4.5 ratio lands near the paper's 14x
	// when the graph also shrinks 10x (simulated via a subgraph).
	whole := Estimate(g, kmers, 1, BaselineParams())
	sub := subgraph(g, 10)
	batched := Estimate(sub, kmers, 10, OptimizedParams())
	r := Ratio(whole, batched)
	if r < 6 || r > 30 {
		t.Fatalf("combined reduction %.1fx outside plausible range (paper: 14x)", r)
	}
}

// subgraph keeps roughly 1/n of the nodes (footprint modeling only).
func subgraph(g *pakgraph.Graph, n int) *pakgraph.Graph {
	out := &pakgraph.Graph{K: g.K}
	for i := 0; i < len(g.Nodes); i += n {
		out.Nodes = append(out.Nodes, g.Nodes[i])
	}
	return out
}
