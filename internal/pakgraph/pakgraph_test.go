package pakgraph

import (
	"slices"
	"testing"

	"nmppak/internal/dna"
	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/readsim"
)

// singleRead builds a read set containing one read spelling the whole
// string s.
func singleRead(t *testing.T, s string) []readsim.Read {
	t.Helper()
	return []readsim.Read{{Seq: dna.MustParseSeq(s)}}
}

func buildGraph(t *testing.T, reads []readsim.Read, k int) *Graph {
	t.Helper()
	res, err := kmer.Count(reads, kmer.Config{K: k})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildSingleReadPath(t *testing.T) {
	// "ACGTT" with k=4 has k-mers ACGT, CGTT; nodes are 3-mers ACG, CGT,
	// GTT. Fig. 3(b): each k-mer wires two MacroNodes.
	g := buildGraph(t, singleRead(t, "ACGTT"), 4)
	if g.Len() != 3 {
		t.Fatalf("nodes = %d want 3", g.Len())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	start := g.Node(dna.MustParseKmer("ACG"))
	if start == nil {
		t.Fatal("missing node ACG")
	}
	// Start node: terminal prefix (read start), suffix 'T' (from ACGT).
	tp, _ := start.TerminalCount()
	if tp != 1 {
		t.Fatalf("start node terminal prefix = %d want 1", tp)
	}
	mid := g.Node(dna.MustParseKmer("CGT"))
	if len(mid.Prefixes) != 1 || len(mid.Suffixes) != 1 {
		t.Fatalf("middle node exts: %d/%d", len(mid.Prefixes), len(mid.Suffixes))
	}
	if mid.Prefixes[0].Terminal || mid.Suffixes[0].Terminal {
		t.Fatal("middle node must have no terminals")
	}
	if mid.Prefixes[0].Seq.String() != "A" || mid.Suffixes[0].Seq.String() != "T" {
		t.Fatalf("middle exts %q/%q", mid.Prefixes[0].Seq, mid.Suffixes[0].Seq)
	}
	end := g.Node(dna.MustParseKmer("GTT"))
	_, ts := end.TerminalCount()
	if ts != 1 {
		t.Fatalf("end node terminal suffix = %d want 1", ts)
	}
}

func TestBuildPaperFig3Example(t *testing.T) {
	// Fig. 3(a): with k=5, k-mers AGTCA, CGTCA, TGTCA, GTCAT, GTCAG all
	// share (k-1)-mer GTCA and collapse into one MacroNode with three
	// prefixes and two suffixes.
	reads := []readsim.Read{
		{Seq: dna.MustParseSeq("AGTCAT")},
		{Seq: dna.MustParseSeq("CGTCAG")},
		{Seq: dna.MustParseSeq("TGTCAT")},
	}
	g := buildGraph(t, reads, 5)
	n := g.Node(dna.MustParseKmer("GTCA"))
	if n == nil {
		t.Fatal("missing MacroNode GTCA")
	}
	realP, realS := 0, 0
	for _, e := range n.Prefixes {
		if !e.Terminal {
			realP++
		}
	}
	for _, e := range n.Suffixes {
		if !e.Terminal {
			realS++
		}
	}
	if realP != 3 || realS != 2 {
		t.Fatalf("GTCA has %d prefixes / %d suffixes, want 3/2", realP, realS)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildBalancedAndValid(t *testing.T) {
	g, err := genome.Generate(genome.Config{Length: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(g, readsim.Config{ReadLen: 100, Coverage: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pg := buildGraph(t, reads, 32)
	if err := pg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Roughly one node per genome position.
	if pg.Len() < 4000 || pg.Len() > 5100 {
		t.Fatalf("node count %d out of expected range", pg.Len())
	}
}

func TestBuildWithPruningStillValid(t *testing.T) {
	g, err := genome.Generate(genome.Config{Length: 4000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(g, readsim.Config{ReadLen: 100, Coverage: 15, ErrorRate: 0.01, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := kmer.Count(reads, kmer.Config{K: 32, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	// Pruning breaks chains; balance padding must keep the graph valid.
	if err := pg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRewirePairsByWeight(t *testing.T) {
	n := &MacroNode{Key: dna.MustParseKmer("ACGT")}
	n.Prefixes = []Ext{{Seq: dna.MustParseSeq("A"), Weight: 10}, {Seq: dna.MustParseSeq("C"), Weight: 4}}
	n.Suffixes = []Ext{{Seq: dna.MustParseSeq("T"), Weight: 8}, {Seq: dna.MustParseSeq("G"), Weight: 6}}
	n.Rewire()
	// Heavy pairs with heavy: A(10)<->T(8), C(4)<->G(6).
	want := []Wire{{0, 0, 1}, {1, 1, 1}}
	if len(n.Wires) != len(want) {
		t.Fatalf("wires = %v", n.Wires)
	}
	for i, w := range want {
		if n.Wires[i] != w {
			t.Fatalf("wire %d = %v want %v", i, n.Wires[i], w)
		}
	}
	if n.TotalPrefixCount() != n.TotalSuffixCount() {
		t.Fatal("not balanced")
	}
}

func TestRewirePadsForkAndMerge(t *testing.T) {
	// Fork: one prefix feeding two suffixes. The lighter suffix must start
	// a new contig via a terminal-prefix pad (unitig break).
	n := &MacroNode{Key: dna.MustParseKmer("ACGT")}
	n.Prefixes = []Ext{{Seq: dna.MustParseSeq("A"), Weight: 10}}
	n.Suffixes = []Ext{{Seq: dna.MustParseSeq("T"), Weight: 7}, {Seq: dna.MustParseSeq("G"), Weight: 3}}
	n.Rewire()
	tp, ts := n.TerminalCount()
	if tp != 1 || ts != 0 {
		t.Fatalf("fork terminals %d/%d want 1/0", tp, ts)
	}
	if len(n.Wires) != 2 {
		t.Fatalf("wires = %v", n.Wires)
	}
	if n.TotalPrefixCount() != n.TotalSuffixCount() {
		t.Fatal("not balanced")
	}
	// Merge: two prefixes into one suffix -> terminal-suffix pad.
	m := &MacroNode{Key: dna.MustParseKmer("ACGT")}
	m.Prefixes = []Ext{{Seq: dna.MustParseSeq("A"), Weight: 5}, {Seq: dna.MustParseSeq("C"), Weight: 9}}
	m.Suffixes = []Ext{{Seq: dna.MustParseSeq("T"), Weight: 14}}
	m.Rewire()
	tp, ts = m.TerminalCount()
	if tp != 0 || ts != 1 {
		t.Fatalf("merge terminals %d/%d want 0/1", tp, ts)
	}
	// The heavier prefix C keeps the real suffix.
	for _, w := range m.Wires {
		if w.P == 1 && m.Suffixes[w.S].Terminal {
			t.Fatal("heavy prefix was wired to the pad")
		}
	}
}

func TestIsInvalidationTarget(t *testing.T) {
	// "ATGA" with k=3: k-mers ATG, TGA; nodes AT, TG, GA. Under the A<C<T<G
	// order (Fig. 4b), GA is the largest key; its only neighbor is TG, so
	// GA is the unique invalidation target.
	g := buildGraph(t, singleRead(t, "ATGA"), 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.Node(dna.MustParseKmer("GA")).IsInvalidationTarget(2) {
		t.Fatal("GA must be an invalidation target (larger than neighbor TG)")
	}
	if g.Node(dna.MustParseKmer("TG")).IsInvalidationTarget(2) {
		t.Fatal("TG must not be a target (neighbor GA is larger)")
	}
	if g.Node(dna.MustParseKmer("AT")).IsInvalidationTarget(2) {
		t.Fatal("AT must not be a target")
	}
}

func TestSelfLoopNeverInvalidated(t *testing.T) {
	// Homopolymer: "TTTTT" with k=3 -> single node "TT" with self-loop.
	g := buildGraph(t, singleRead(t, "TTTTT"), 3)
	n := g.Node(dna.MustParseKmer("TT"))
	if n == nil {
		t.Fatal("missing TT")
	}
	_, selfLoop := neighborKeys(n, 2)
	if !selfLoop {
		t.Fatal("expected self-loop")
	}
	if n.IsInvalidationTarget(2) {
		t.Fatal("self-loop node must not be invalidated")
	}
}

func TestSizeBytesAndHistogram(t *testing.T) {
	g := buildGraph(t, singleRead(t, "ACGTTGCAAC"), 4)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.SizeBytes() <= 8 {
			t.Fatalf("node size %d too small", n.SizeBytes())
		}
		if n.Data1Bytes()+n.Data2Bytes() != n.SizeBytes() {
			t.Fatal("size decomposition mismatch")
		}
	}
	h := sizeHistogram(g, 5, 8) // 32B..256B buckets
	total := 0
	for _, c := range h {
		total += c
	}
	if total != g.Len() {
		t.Fatalf("histogram covers %d of %d nodes", total, g.Len())
	}
}

// TestValidateKeyOrder: Build lays nodes out in strictly ascending key
// order, Index and Node find every key, and Validate rejects a Nodes slice
// that is out of order or repeats a key.
func TestValidateKeyOrder(t *testing.T) {
	build := func() *Graph { return buildGraph(t, singleRead(t, "ACGTTGCAACGGTCA"), 5) }
	g := build()
	for i := 1; i < len(g.Nodes); i++ {
		if g.Nodes[i-1].Key >= g.Nodes[i].Key {
			t.Fatalf("Build: keys %d and %d not strictly ascending", i-1, i)
		}
	}
	for i := range g.Nodes {
		if g.Index(g.Nodes[i].Key) != i || g.Node(g.Nodes[i].Key) != &g.Nodes[i] {
			t.Fatalf("Index/Node do not find node %d", i)
		}
	}
	if g.Index(dna.MustParseKmer("GGGG")) != -1 || g.Node(dna.MustParseKmer("GGGG")) != nil {
		t.Fatal("absent key found")
	}
	for _, tc := range []struct {
		name   string
		mutate func(ns []MacroNode) []MacroNode
		ok     bool
	}{
		{"built", func(ns []MacroNode) []MacroNode { return ns }, true},
		{"swapped", func(ns []MacroNode) []MacroNode { ns[1], ns[2] = ns[2], ns[1]; return ns }, false},
		{"reversed", func(ns []MacroNode) []MacroNode { slices.Reverse(ns); return ns }, false},
		{"duplicate", func(ns []MacroNode) []MacroNode { return slices.Insert(ns, 3, ns[3]) }, false},
	} {
		g := build()
		g.Nodes = tc.mutate(g.Nodes)
		if err := g.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestMergePreservesValidity(t *testing.T) {
	gA := buildGraph(t, singleRead(t, "ACGTTGCA"), 4)
	gB := buildGraph(t, singleRead(t, "TTGCAACG"), 4)
	if err := gA.Merge(gB); err != nil {
		t.Fatal(err)
	}
	if err := gA.Validate(); err != nil {
		t.Fatal(err)
	}
	// Shared node TGC must have merged coverage weight.
	n := gA.Node(dna.MustParseKmer("TGC"))
	if n == nil {
		t.Fatal("missing merged node TGC")
	}
	var w uint32
	for _, e := range n.Prefixes {
		w += e.Weight
	}
	if w != 2 {
		t.Fatalf("merged node weight %d want 2", w)
	}
}

func TestMergeRejectsDifferentK(t *testing.T) {
	gA := buildGraph(t, singleRead(t, "ACGTTGCA"), 4)
	gB := buildGraph(t, singleRead(t, "ACGTTGCA"), 5)
	if err := gA.Merge(gB); err == nil {
		t.Fatal("expected error merging different k")
	}
}

// TestBuildRejectsInvalidK: a key is one packed dna.Kmer word, so a k
// outside [2, dna.MaxK] must be an error, not a graph of truncated keys.
func TestBuildRejectsInvalidK(t *testing.T) {
	kmers := []kmer.Counted{{Km: 1, Count: 3}}
	for _, tc := range []struct {
		res *kmer.Result
		ok  bool
	}{
		{nil, false},
		{&kmer.Result{K: 0, Kmers: kmers}, false},
		{&kmer.Result{K: 1, Kmers: kmers}, false},
		{&kmer.Result{K: 2, Kmers: kmers}, true},
		{&kmer.Result{K: dna.MaxK, Kmers: kmers}, true},
		{&kmer.Result{K: 33, Kmers: kmers}, false},
		{&kmer.Result{K: 40, Kmers: kmers}, false},
		{&kmer.Result{K: 64, Kmers: kmers}, false},
	} {
		g, err := Build(tc.res)
		if (err == nil) != tc.ok {
			k := -1
			if tc.res != nil {
				k = tc.res.K
			}
			t.Errorf("Build(k=%d) error %v, want ok=%v", k, err, tc.ok)
		}
		if err == nil {
			if verr := g.Validate(); verr != nil {
				t.Errorf("Build(k=%d) graph invalid: %v", tc.res.K, verr)
			}
		}
	}
}

func TestTotalTerminalsMatchesReadCount(t *testing.T) {
	reads := []readsim.Read{
		{Seq: dna.MustParseSeq("ACGTTGCAGG")},
		{Seq: dna.MustParseSeq("GGTCAATCGA")},
	}
	g := buildGraph(t, reads, 4)
	tp, ts := totalTerminals(g)
	if tp != 2 || ts != 2 {
		t.Fatalf("terminals %d/%d want 2/2", tp, ts)
	}
}

// neighborKeys returns the distinct keys of all nodes adjacent to n
// (reachable through any non-terminal extension), and whether any extension
// is a self-loop. Extension lists are small, so duplicates are filtered by
// a linear scan instead of a throwaway map.
func neighborKeys(n *MacroNode, k1 int) (keys []dna.Kmer, selfLoop bool) {
	keys = make([]dna.Kmer, 0, len(n.Prefixes)+len(n.Suffixes))
	add := func(k dna.Kmer) {
		if k == n.Key {
			selfLoop = true
			return
		}
		for _, have := range keys {
			if have == k {
				return
			}
		}
		keys = append(keys, k)
	}
	for _, e := range n.Prefixes {
		if !e.Terminal {
			add(dna.NeighborViaPrefix(n.Key, k1, e.Seq))
		}
	}
	for _, e := range n.Suffixes {
		if !e.Terminal {
			add(dna.NeighborViaSuffix(n.Key, k1, e.Seq))
		}
	}
	if len(keys) == 0 {
		keys = nil
	}
	return keys, selfLoop
}

// totalTerminals sums terminal counts graph-wide; compaction must conserve
// this quantity.
func totalTerminals(g *Graph) (prefix, suffix uint64) {
	for i := range g.Nodes {
		p, s := g.Nodes[i].TerminalCount()
		prefix += p
		suffix += s
	}
	return prefix, suffix
}

// sizeHistogram buckets node sizes by power of two between 2^minPow and
// 2^maxPow (Fig. 7's x-axis); bucket i counts nodes in [2^(minPow+i),
// 2^(minPow+i+1)), with underflow in bucket 0 and overflow in the last.
func sizeHistogram(g *Graph, minPow, maxPow int) []int {
	h := make([]int, maxPow-minPow+1)
	for i := range g.Nodes {
		sz := g.Nodes[i].SizeBytes()
		b := 0
		for p := minPow; p < maxPow; p++ {
			if sz >= 1<<(p+1) {
				b++
			}
		}
		h[b]++
	}
	return h
}
