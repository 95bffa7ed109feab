package compact

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nmppak/internal/dna"
	"nmppak/internal/pakgraph"
	"nmppak/internal/walk"
)

// TestPropertyCompactionPreservesSpelledContent is the repository's
// strongest property test: for random read sets, the set of k-mers spelled
// by the graph's contigs (walk output plus compaction-completed contigs)
// must be invariant under compaction depth. (The exact contig partition at
// ambiguous path crossings may legally differ between depths — both are
// valid spellings of the same path system — so the invariant is over
// content, not contig boundaries.)
func TestPropertyCompactionPreservesSpelledContent(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		k := 5 + r.Intn(8)
		var seqs []string
		for i := 0; i < 1+r.Intn(4); i++ {
			seqs = append(seqs, randDNA(r, 100+r.Intn(400)))
		}
		ref := spellKmerSet(t, k, seqs, 0)
		for depth := 1; depth <= 4; depth++ {
			got := spellKmerSet(t, k, seqs, depth)
			if len(got) != len(ref) {
				t.Fatalf("k=%d depth=%d: spelled k-mer count changed %d -> %d", k, depth, len(ref), len(got))
			}
			for km := range ref {
				if !got[km] {
					t.Fatalf("k=%d depth=%d: k-mer %s lost", k, depth, km)
				}
			}
		}
	}
}

// spellKmerSet builds, compacts to the given depth (0 = none) and returns
// the set of k-mers appearing in any spelled contig.
func spellKmerSet(t *testing.T, k int, seqs []string, depth int) map[string]bool {
	t.Helper()
	g := graphFromStrings(t, k, seqs...)
	var completed []dna.Seq
	if depth > 0 {
		res, err := Run(g, Options{MaxIters: depth, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		completed = res.Completed
	}
	contigs := append(walk.Contigs(g, walk.Options{}), completed...)
	set := make(map[string]bool)
	for _, c := range contigs {
		s := c.String()
		for i := 0; i+k <= len(s); i++ {
			set[s[i:i+k]] = true
		}
	}
	return set
}

// TestPropertyWireConservation: compaction preserves, per iteration, the
// total wire count minus completed contigs and merged wires; more simply,
// the total traversal units (wires) spelled by walks never grows.
func TestPropertyWireConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := graphFromStrings(t, 6, randDNA(r, 300))
		before := totalWireCount(g)
		res, err := Run(g, Options{})
		if err != nil {
			return false
		}
		after := totalWireCount(g) + int64(len(res.Completed))
		return after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func totalWireCount(g *pakgraph.Graph) int64 {
	var n int64
	for i := range g.Nodes {
		n += int64(len(g.Nodes[i].Wires))
	}
	return n
}

// TestPropertyNoAdjacentInvalidationByConstruction re-checks the
// independence argument directly on graph state for random inputs: the set
// of invalidation targets computed on any graph is an independent set.
func TestPropertyInvalidationSetIndependent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := graphFromStrings(t, 7, randDNA(r, 250), randDNA(r, 250))
		k1 := g.K1()
		targets := make(map[dna.Kmer]bool)
		for i := range g.Nodes {
			if g.Nodes[i].IsInvalidationTarget(k1) {
				targets[g.Nodes[i].Key] = true
			}
		}
		for key := range targets {
			for _, nb := range neighbors(g.Node(key), k1) {
				if targets[nb] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyIterationsShrinkMonotonically: live node count never grows.
func TestPropertyIterationsShrinkMonotonically(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := graphFromStrings(t, 6, randDNA(r, 400))
		res, err := Run(g, Options{})
		if err != nil {
			return false
		}
		for i := 1; i < len(res.Stats); i++ {
			if res.Stats[i].LiveNodes > res.Stats[i-1].LiveNodes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// neighbors lists the keys n's non-terminal extensions lead to.
func neighbors(n *pakgraph.MacroNode, k1 int) []dna.Kmer {
	var keys []dna.Kmer
	for _, e := range n.Prefixes {
		if !e.Terminal {
			keys = append(keys, dna.NeighborViaPrefix(n.Key, k1, e.Seq))
		}
	}
	for _, e := range n.Suffixes {
		if !e.Terminal {
			keys = append(keys, dna.NeighborViaSuffix(n.Key, k1, e.Seq))
		}
	}
	return keys
}
