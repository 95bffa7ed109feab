// Package pakgraph implements PaKman's MacroNode data structure and the
// PaK-graph (Figs. 2C and 3 of the paper).
//
// A MacroNode groups all k-mers sharing a (k-1)-mer: the (k-1)-mer is the
// node key; each k-mer contributes a one-base prefix or suffix extension.
// Extensions grow to multi-base strings as Iterative Compaction merges
// neighboring nodes. Terminal extensions mark positions where reads (and
// hence contigs) begin or end; their sequences carry any bases accumulated
// from compacted-away boundary nodes.
//
// Wires record the internal prefix<->suffix pairing of a node (PaKman's
// wiring information): a wire (p, s, count) says that `count` read
// traversals entered the node through prefix extension p and left through
// suffix extension s. Contig generation walks wires; compaction transfers
// them.
package pakgraph

import (
	"fmt"
	"slices"
	"sort"

	"nmppak/internal/dna"
	"nmppak/internal/kmer"
)

// Ext is one prefix or suffix extension of a MacroNode.
//
// Count is the structural multiplicity: the number of wires routed through
// this extension (1 except at forks/merges created during compaction
// splits). Weight is the sequencing-coverage mass (k-mer occurrence count)
// and is used only to order the prefix<->suffix pairing so that high-
// coverage paths pair with each other; it plays no role in the graph's
// structural invariants.
type Ext struct {
	Seq      dna.Seq
	Count    uint32
	Weight   uint32
	Terminal bool // read/contig boundary marker; Seq may still carry bases
}

// Wire pairs prefix extension P with suffix extension S for Count
// traversals.
type Wire struct {
	P, S  int32
	Count uint32
}

// MacroNode is one node of the PaK-graph. See the package comment.
type MacroNode struct {
	Key      dna.Kmer // the (k-1)-mer
	Prefixes []Ext
	Suffixes []Ext
	Wires    []Wire
}

// Graph is the PaK-graph for a fixed k. Nodes holds the MacroNodes in
// strictly ascending key order, the layout the paper's static DIMM mapping
// table assumes ("MacroNodes are stored in ascending (k-1)-mer order across
// DIMMs"); a key is found by binary search (Index, Node). Every function
// that changes Nodes keeps the order, and Validate checks it.
type Graph struct {
	K     int // k-mer length; keys are (K-1)-mers
	Nodes []MacroNode
}

// K1 returns the node key length (k-1).
func (g *Graph) K1() int { return g.K - 1 }

// Len returns the number of MacroNodes.
func (g *Graph) Len() int { return len(g.Nodes) }

// Index returns the position of the node keyed key in Nodes, or -1 when
// the graph holds no such node.
func (g *Graph) Index(key dna.Kmer) int {
	i := sort.Search(len(g.Nodes), func(i int) bool { return g.Nodes[i].Key >= key })
	if i < len(g.Nodes) && g.Nodes[i].Key == key {
		return i
	}
	return -1
}

// Node returns the node keyed key, or nil when the graph holds no such
// node. The pointer is valid until Nodes is next reassigned or filtered.
func (g *Graph) Node(key dna.Kmer) *MacroNode {
	if i := g.Index(key); i >= 0 {
		return &g.Nodes[i]
	}
	return nil
}

// CheckOrder reports the first node whose key does not strictly follow
// its predecessor's: out of order, or a duplicate.
func (g *Graph) CheckOrder() error {
	for i := 1; i < len(g.Nodes); i++ {
		if g.Nodes[i-1].Key >= g.Nodes[i].Key {
			return fmt.Errorf("pakgraph: node %d key %s does not follow node %d key %s in ascending order",
				i, g.Nodes[i].Key.StringK(g.K1()), i-1, g.Nodes[i-1].Key.StringK(g.K1()))
		}
	}
	return nil
}

// Build constructs the PaK-graph from counted k-mers (Fig. 3): each k-mer
// adds a suffix extension to the node of its leading (k-1)-mer and a prefix
// extension to the node of its trailing (k-1)-mer, weighted by the k-mer's
// occurrence count. Rewire then pairs each node's prefixes with its
// suffixes; extensions left unpaired (graph tips from genome/batch ends or
// pruned error k-mers, and the extra arms of forks and merges) receive
// terminal pads, which is where contigs will begin and end.
func Build(res *kmer.Result) (*Graph, error) {
	if res == nil {
		return nil, fmt.Errorf("pakgraph: nil k-mer result")
	}
	// A key is a (k-1)-mer packed into one dna.Kmer word, and k-mers of
	// more than dna.MaxK bases do not fit one either.
	if res.K < 2 || res.K > dna.MaxK {
		return nil, fmt.Errorf("pakgraph: invalid k=%d, want [2,%d]", res.K, dna.MaxK)
	}
	// The node set is every k-mer's two (k-1)-mers, sorted and
	// deduplicated, so Nodes is sized once.
	keys := make([]uint64, 0, 2*len(res.Kmers))
	for _, kc := range res.Kmers {
		keys = append(keys, uint64(kc.Km.Prefix()), uint64(kc.Km.Suffix(res.K)))
	}
	kmer.SortUint64(keys)
	keys = slices.Compact(keys)
	g := &Graph{K: res.K, Nodes: make([]MacroNode, len(keys))}
	for i, key := range keys {
		g.Nodes[i].Key = dna.Kmer(key)
	}
	for _, kc := range res.Kmers {
		l, r := kc.Km.Prefix(), kc.Km.Suffix(res.K)
		first, last := kc.Km.First(res.K), kc.Km.Last()
		addExt(&g.Nodes[g.Index(l)].Suffixes, extKey1(last), kc.Count, false)
		addExt(&g.Nodes[g.Index(r)].Prefixes, extKey1(first), kc.Count, false)
	}
	for i := range g.Nodes {
		g.Nodes[i].Rewire()
	}
	return g, nil
}

var base1 [4]dna.Seq

func init() {
	for b := 0; b < 4; b++ {
		base1[b] = dna.FromBases([]dna.Base{dna.Base(b)})
	}
}

func extKey1(b dna.Base) dna.Seq { return base1[b&3] }

// addExt merges (seq, weight, terminal) into the extension list, combining
// entries with identical sequence and terminal flag. Structural counts are
// assigned later by Rewire.
func addExt(exts *[]Ext, seq dna.Seq, weight uint32, terminal bool) {
	for i := range *exts {
		e := &(*exts)[i]
		if e.Terminal == terminal && e.Seq.Equal(seq) {
			e.Weight += weight
			return
		}
	}
	*exts = append(*exts, Ext{Seq: seq, Weight: weight, Terminal: terminal})
}

// Rewire recomputes the node's wires from scratch: prefixes and suffixes
// are sorted by coverage weight (descending) and paired one-to-one, so the
// dominant incoming path continues into the dominant outgoing path, as in
// PaKman's count-proportional wiring. Extensions left over on the longer
// side are wired to freshly added terminal pads — those are the unitig
// break points at forks, merges and tips. Extension counts are then set to
// their wire degree, the structural invariant Validate checks.
func (n *MacroNode) Rewire() {
	n.Wires = n.Wires[:0]
	// Index scratch lives on the stack for typical extension counts; only
	// heavily forked nodes spill to the heap.
	var pbuf, sbuf [16]int
	pi := sortedByWeight(pbuf[:0], n.Prefixes)
	si := sortedByWeight(sbuf[:0], n.Suffixes)
	m := len(pi)
	if len(si) < m {
		m = len(si)
	}
	for i := 0; i < m; i++ {
		n.Wires = append(n.Wires, Wire{P: int32(pi[i]), S: int32(si[i]), Count: 1})
	}
	for _, p := range pi[m:] { // unpaired prefixes: contig ends here
		n.Suffixes = append(n.Suffixes, Ext{Weight: n.Prefixes[p].Weight, Terminal: true})
		n.Wires = append(n.Wires, Wire{P: int32(p), S: int32(len(n.Suffixes) - 1), Count: 1})
	}
	for _, s := range si[m:] { // unpaired suffixes: contig starts here
		n.Prefixes = append(n.Prefixes, Ext{Weight: n.Suffixes[s].Weight, Terminal: true})
		n.Wires = append(n.Wires, Wire{P: int32(len(n.Prefixes) - 1), S: int32(s), Count: 1})
	}
	// Counts = wire degree.
	for i := range n.Prefixes {
		n.Prefixes[i].Count = 0
	}
	for i := range n.Suffixes {
		n.Suffixes[i].Count = 0
	}
	for _, w := range n.Wires {
		n.Prefixes[w.P].Count += w.Count
		n.Suffixes[w.S].Count += w.Count
	}
}

func sortedByWeight(buf []int, exts []Ext) []int {
	idx := buf
	for i := range exts {
		idx = append(idx, i)
	}
	// Extension lists are tiny (a handful of entries), so an insertion sort
	// beats sort.Slice here and avoids its comparator closure and reflect-
	// based swapper; the (terminal, weight, index) key is a total order, so
	// the result is identical.
	less := func(a, b int) bool {
		ea, eb := &exts[a], &exts[b]
		// Real extensions outrank terminal pads at equal weight, so pads
		// pair with pads only as a last resort.
		if ea.Terminal != eb.Terminal {
			return eb.Terminal
		}
		if ea.Weight != eb.Weight {
			return ea.Weight > eb.Weight
		}
		return a < b
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && less(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// IsInvalidationTarget implements the paper's Fig. 4(b) check: the node is
// removable when it has at least one real neighbor, no self-loop, and its
// key is strictly the lexicographically largest among all neighbor keys.
// This is the P1 decision evaluated once per live node per compaction
// iteration, so it runs allocation-free and bails out at the first
// neighbor that disqualifies the node (a self-loop is a neighbor key equal
// to n.Key, so the single >= comparison covers both conditions).
func (n *MacroNode) IsInvalidationTarget(k1 int) bool {
	has := false
	for i := range n.Prefixes {
		if e := &n.Prefixes[i]; !e.Terminal {
			if dna.NeighborViaPrefix(n.Key, k1, e.Seq) >= n.Key {
				return false
			}
			has = true
		}
	}
	for i := range n.Suffixes {
		if e := &n.Suffixes[i]; !e.Terminal {
			if dna.NeighborViaSuffix(n.Key, k1, e.Seq) >= n.Key {
				return false
			}
			has = true
		}
	}
	return has
}

// Data1Bytes models the size of the fields Stage P1/P2 load ("MN data1" in
// Fig. 10): the (k-1)-mer plus the packed prefix and suffix extension
// sequences and counts.
func (n *MacroNode) Data1Bytes() int {
	// Indexed loops: this is called once per live node per compaction
	// iteration, and ranging by value would copy each Ext (seq header +
	// counts) just to read one length.
	b := 8
	for i := range n.Prefixes {
		b += n.Prefixes[i].Seq.PackedBytes() + 7 // count(4) + len(2) + flags(1)
	}
	for i := range n.Suffixes {
		b += n.Suffixes[i].Seq.PackedBytes() + 7
	}
	return b
}

// Data2Bytes models the internal wiring information ("MN data2" in Fig.
// 10).
func (n *MacroNode) Data2Bytes() int { return 8 + 8*len(n.Wires) }

// SizeBytes is the full serialized MacroNode size used for the Fig. 7/8
// size distributions and the hybrid CPU-offload threshold.
func (n *MacroNode) SizeBytes() int { return n.Data1Bytes() + n.Data2Bytes() }

// TotalPrefixCount sums prefix extension counts (== suffix total when
// balanced).
func (n *MacroNode) TotalPrefixCount() uint64 {
	var t uint64
	for _, e := range n.Prefixes {
		t += uint64(e.Count)
	}
	return t
}

// TotalSuffixCount sums suffix extension counts.
func (n *MacroNode) TotalSuffixCount() uint64 {
	var t uint64
	for _, e := range n.Suffixes {
		t += uint64(e.Count)
	}
	return t
}

// TerminalCount returns the summed counts of terminal prefix and suffix
// extensions; its graph-wide total is invariant under compaction.
func (n *MacroNode) TerminalCount() (prefix, suffix uint64) {
	for _, e := range n.Prefixes {
		if e.Terminal {
			prefix += uint64(e.Count)
		}
	}
	for _, e := range n.Suffixes {
		if e.Terminal {
			suffix += uint64(e.Count)
		}
	}
	return prefix, suffix
}

// Validate checks structural invariants: strictly ascending keys,
// balance, wire index bounds, wire count conservation, and that every
// non-terminal extension points at an existing node. Used heavily by tests.
func (g *Graph) Validate() error {
	if err := g.CheckOrder(); err != nil {
		return err
	}
	k1 := g.K1()
	for ni := range g.Nodes {
		n := &g.Nodes[ni]
		key := n.Key
		if tp, ts := n.TotalPrefixCount(), n.TotalSuffixCount(); tp != ts {
			return fmt.Errorf("node %s unbalanced: prefixes %d suffixes %d", key.StringK(k1), tp, ts)
		}
		wiredP := make([]uint64, len(n.Prefixes))
		wiredS := make([]uint64, len(n.Suffixes))
		for _, w := range n.Wires {
			if int(w.P) >= len(n.Prefixes) || int(w.S) >= len(n.Suffixes) || w.P < 0 || w.S < 0 {
				return fmt.Errorf("node %s wire (%d,%d) out of range", key.StringK(k1), w.P, w.S)
			}
			wiredP[w.P] += uint64(w.Count)
			wiredS[w.S] += uint64(w.Count)
		}
		for i, e := range n.Prefixes {
			if wiredP[i] != uint64(e.Count) {
				return fmt.Errorf("node %s prefix %d wired %d of %d", key.StringK(k1), i, wiredP[i], e.Count)
			}
			if !e.Terminal {
				nb := dna.NeighborViaPrefix(n.Key, k1, e.Seq)
				if g.Index(nb) < 0 {
					return fmt.Errorf("node %s prefix %q dangles (neighbor %s missing)", key.StringK(k1), e.Seq.String(), nb.StringK(k1))
				}
			}
		}
		for i, e := range n.Suffixes {
			if wiredS[i] != uint64(e.Count) {
				return fmt.Errorf("node %s suffix %d wired %d of %d", key.StringK(k1), i, wiredS[i], e.Count)
			}
			if !e.Terminal {
				nb := dna.NeighborViaSuffix(n.Key, k1, e.Seq)
				if g.Index(nb) < 0 {
					return fmt.Errorf("node %s suffix %q dangles (neighbor %s missing)", key.StringK(k1), e.Seq.String(), nb.StringK(k1))
				}
			}
		}
	}
	return nil
}

// Merge folds other into g (used to combine per-batch compacted graphs,
// §4.4) by a linear merge of the two ascending node lists: nodes with the
// same key have their extensions merged and wires recomputed; balancing is
// preserved because both inputs are balanced. g shares other's extension
// and wire slices afterwards.
func (g *Graph) Merge(other *Graph) error {
	if g.K != other.K {
		return fmt.Errorf("pakgraph: merging graphs with k=%d and k=%d", g.K, other.K)
	}
	a, b := g.Nodes, other.Nodes
	out := make([]MacroNode, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch n, on := &a[0], &b[0]; {
		case n.Key < on.Key:
			out = append(out, *n)
			a = a[1:]
		case n.Key > on.Key:
			out = append(out, *on)
			b = b[1:]
		default:
			for _, e := range on.Prefixes {
				addExt(&n.Prefixes, e.Seq, e.Count, e.Terminal)
			}
			for _, e := range on.Suffixes {
				addExt(&n.Suffixes, e.Seq, e.Count, e.Terminal)
			}
			n.Rewire()
			out = append(out, *n)
			a, b = a[1:], b[1:]
		}
	}
	out = append(append(out, a...), b...)
	g.Nodes = out
	return nil
}
