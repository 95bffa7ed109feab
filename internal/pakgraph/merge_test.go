package pakgraph_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nmppak/internal/compact"
	"nmppak/internal/dna"
	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/pakgraph"
	"nmppak/internal/readsim"
)

// refMerge is the keyed merge Graph.Merge replaces: a map from key to node,
// other's nodes folded in one by one, then the keys sorted. It works on
// deep copies, so neither input is touched.
func refMerge(g, other *pakgraph.Graph) []pakgraph.MacroNode {
	nodes := make(map[dna.Kmer]*pakgraph.MacroNode, g.Len()+other.Len())
	for i := range g.Nodes {
		n := clone(&g.Nodes[i])
		nodes[n.Key] = &n
	}
	for i := range other.Nodes {
		on := clone(&other.Nodes[i])
		n := nodes[on.Key]
		if n == nil {
			nodes[on.Key] = &on
			continue
		}
		for _, e := range on.Prefixes {
			refAddExt(&n.Prefixes, e)
		}
		for _, e := range on.Suffixes {
			refAddExt(&n.Suffixes, e)
		}
		n.Rewire()
	}
	out := make([]pakgraph.MacroNode, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, *n)
	}
	slices.SortFunc(out, func(a, b pakgraph.MacroNode) int {
		if a.Key < b.Key {
			return -1
		}
		return 1
	})
	return out
}

// refAddExt folds e into exts the way merging does: an entry with the same
// sequence and terminal flag gains e's count as weight, otherwise e is
// appended with its count as weight.
func refAddExt(exts *[]pakgraph.Ext, e pakgraph.Ext) {
	for i := range *exts {
		if x := &(*exts)[i]; x.Terminal == e.Terminal && x.Seq.Equal(e.Seq) {
			x.Weight += e.Count
			return
		}
	}
	*exts = append(*exts, pakgraph.Ext{Seq: e.Seq, Weight: e.Count, Terminal: e.Terminal})
}

func clone(n *pakgraph.MacroNode) pakgraph.MacroNode {
	return pakgraph.MacroNode{
		Key:      n.Key,
		Prefixes: slices.Clone(n.Prefixes),
		Suffixes: slices.Clone(n.Suffixes),
		Wires:    slices.Clone(n.Wires),
	}
}

// TestMergeMatchesKeyedReference: on pairs of compacted batch graphs of one
// genome (the Batches > 1 path of the assembler, where many keys survive in
// both batches), the linear merge of the two ascending node lists equals
// the keyed reference merge node for node, and the result is valid.
func TestMergeMatchesKeyedReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		gen, err := genome.Generate(genome.Config{Length: 3000 + r.Intn(3000), Seed: r.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		reads, err := readsim.Simulate(gen, readsim.Config{ReadLen: 100, Coverage: 16, ErrorRate: 0.004, Seed: r.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		k := 15 + r.Intn(10)
		half := len(reads) / 2
		// Odd trials stop compaction early, so more keys overlap.
		maxIters := 0
		if trial%2 == 1 {
			maxIters = 2
		}
		var gs [2]*pakgraph.Graph
		for b, batch := range [][]readsim.Read{reads[:half], reads[half:]} {
			res, err := kmer.Count(batch, kmer.Config{K: k, MinCount: 1})
			if err != nil {
				t.Fatal(err)
			}
			if gs[b], err = pakgraph.Build(res); err != nil {
				t.Fatal(err)
			}
			if _, err := compact.Run(gs[b], compact.Options{MaxIters: maxIters}); err != nil {
				t.Fatal(err)
			}
		}
		shared := 0
		for i := range gs[1].Nodes {
			if gs[0].Index(gs[1].Nodes[i].Key) >= 0 {
				shared++
			}
		}
		if shared == 0 {
			t.Fatalf("trial %d: the batch graphs share no key", trial)
		}
		want := refMerge(gs[0], gs[1])
		if err := gs[0].Merge(gs[1]); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gs[0].Nodes, want) {
			t.Fatalf("trial %d (k=%d, %d shared keys): Merge differs from the keyed reference", trial, k, shared)
		}
		if err := gs[0].Validate(); err != nil {
			t.Fatalf("trial %d: merged graph invalid: %v", trial, err)
		}
	}
}
