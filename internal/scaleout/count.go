package scaleout

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"nmppak/internal/dna"
	"nmppak/internal/kmer"
	"nmppak/internal/pakgraph"
	"nmppak/internal/par"
	"nmppak/internal/readsim"
)

// Wire-format record sizes: a k-mer is one 8-byte word, a (k-mer, count)
// record adds a 4-byte count, and terminal-marker records are the same
// shape keyed by a (k-1)-mer.
const (
	countRecordBytes = 12
	graphRecordBytes = 12
)

// ShardedCount is the outcome of distributed k-mer counting: reads are
// split round-robin across nodes, each node extracts and locally
// pre-aggregates its k-mers (dedup, PaKman's combining step), the
// partial counts travel all-to-all to their owners, and each owner merges
// and prunes. The union of the per-node results is byte-identical to a
// single-node kmer.Count run, which TestShardedCountMergeEquivalence
// asserts. The all-to-all also carries PaKman's read-terminal (k-1)-mer
// records, which CountExchange prices and no owner keeps.
type ShardedCount struct {
	K     int
	Nodes int
	// Shards[i] holds exactly the k-mers owned by node i, in ascending
	// order, with the same pruning statistics kmer.Count would produce
	// for that subset.
	Shards []*kmer.Result

	ReadsPerNode     []int
	ExtractedPerNode []int64 // raw k-mer instances before local dedup
	RecordsToNode    []int64 // partial-count records each owner merges
	// CountExchange[src][dst] is the bytes of partial-count and terminal
	// records node src ships to owner dst (diagonal = locally retained,
	// free).
	CountExchange [][]int64
}

// CountSharded runs the distributed counting pass. Partition, k and
// MinCount come from cfg; reads are split round-robin so every node gets a
// near-equal share regardless of input order.
//
// Every source runs kmer.Count's two passes with the owner as the
// outermost partition (countSource): a counting pass resolves each word's
// owner once, as the read rolls by, and sizes its owner × top-digit
// bucket; extraction writes each word straight into its slot; and each
// bucket is deduplicated in cache, which leaves every owner's records in
// one span of the source's key and count columns. Each owner then sums the
// k-mer records all sources ship it through a kmer.Merger's digit buckets,
// which also sorts them, and prunes. The sources collapse their terminal
// words too, since their distinct count per owner prices the terminal
// records in CountExchange, but the owners merge only the k-mers.
func CountSharded(reads []readsim.Read, cfg Config) (*ShardedCount, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Nodes
	kc := kmer.Config{K: cfg.K, MinCount: cfg.MinCount}
	if err := kc.Validate(); err != nil {
		return nil, err
	}

	sc := &ShardedCount{
		K:                cfg.K,
		Nodes:            n,
		Shards:           make([]*kmer.Result, n),
		ReadsPerNode:     make([]int, n),
		ExtractedPerNode: make([]int64, n),
		RecordsToNode:    make([]int64, n),
		CountExchange:    mat(n),
	}
	for i := range reads {
		sc.ReadsPerNode[i%n]++
	}

	// Per-node extraction and local pre-aggregation, each node in parallel
	// (the intra-node parallelism of kmer.Count is already exercised by the
	// single-node path; here the unit of concurrency is the virtual node).
	srcs := make([]source, n)
	par.ForIdx(n, cfg.Workers, func(src int) {
		srcs[src] = countSource(reads, src, cfg)
	})
	for src := range srcs {
		sc.ExtractedPerNode[src] = int64(srcs[src].extracted)
		for s := 0; s < numStreams; s++ {
			for dst := 0; dst < n; dst++ {
				recs := srcs[src].seg[2*(s*n+dst)+1]
				sc.CountExchange[src][dst] += int64(recs) * countRecordBytes
				if s == kmerStream {
					sc.RecordsToNode[dst] += int64(recs)
				}
			}
		}
	}

	// Owner-side merge: the owner sums equal k-mers over every source's
	// records, then prunes. Pruning after the exchange sees the complete
	// count of every owned k-mer, so it is exactly the single-node
	// threshold. The merge runs in a reused Merger; only the surviving
	// k-mers get a vector of their own.
	minCount := max(cfg.MinCount, 1)
	par.ForIdx(n, cfg.Workers, func(dst int) {
		m := mergers.Get().(*kmer.Merger)
		defer mergers.Put(m)
		m.Reset(int(sc.RecordsToNode[dst]), 2*cfg.K)
		for i := range srcs {
			ws, _ := srcs[i].out(kmerStream, dst, n)
			for _, w := range ws {
				m.Count(dna.Kmer(w))
			}
		}
		m.Cursors()
		for i := range srcs {
			ws, cs := srcs[i].out(kmerStream, dst, n)
			for j, w := range ws {
				m.Place(dna.Kmer(w), cs[j])
			}
		}
		recs := m.Sum()
		res := &kmer.Result{K: cfg.K}
		kept := 0
		for _, e := range recs {
			res.TotalExtracted += int64(e.Count)
			if e.Count >= minCount {
				kept++
			} else {
				res.PrunedKinds++
				res.PrunedMass += int64(e.Count)
			}
		}
		if kept > 0 {
			res.Kmers = make([]kmer.Counted, 0, kept)
			for _, e := range recs {
				if e.Count >= minCount {
					res.Kmers = append(res.Kmers, e)
				}
			}
		}
		sc.Shards[dst] = res
	})
	return sc, nil
}

// mergers holds the owner-side Mergers CountSharded reuses. A Merger
// grows to the largest owner it has summed, which at a few nodes is most
// of the input, so the pool lets a collection reclaim it.
var mergers = sync.Pool{New: func() any { return new(kmer.Merger) }}

// The three record streams a counting source ships: distinct k-mers keyed
// by the k-mer, which the owners merge, and read-terminal prefixes and
// suffixes keyed by the (k-1)-mer, which only CountExchange counts.
const (
	kmerStream = iota
	prefixStream
	suffixStream
	numStreams
)

// A source's buckets hold about sourceBucketLen words each, under a digit
// of at most sourceDigitMax bits, and one of at most sourceScanMax words is
// deduplicated by scanning.
const (
	sourceBucketLen = 4
	sourceDigitMax  = 11
	sourceScanMax   = 32
)

// source is what one counting node ships, in two columns: for stream s and
// owner dst, the distinct words bound there and beside each its
// multiplicity on this node.
type source struct {
	words  []uint64
	counts []uint32
	// seg[2*(s*n+dst)] is the first slot of that span and seg[2*(s*n+dst)+1]
	// its record count.
	seg       []int
	extracted int // raw k-mer instances before dedup
}

// out returns the words and counts the source ships to owner dst on stream
// s.
func (src *source) out(s, dst, n int) ([]uint64, []uint32) {
	i := 2 * (s*n + dst)
	lo, hi := src.seg[i], src.seg[i]+src.seg[i+1]
	return src.words[lo:hi], src.counts[lo:hi]
}

// streamSlots is one stream's slot layout in a source's columns: its slots
// start at base, and its buckets are owner × digit, owner outermost, the
// digit being the word's top ds bits.
type streamSlots struct {
	base      int
	ds, shift uint
	cur       []int // per bucket: the count, then the write cursor, then the end
}

func (l *streamSlots) bucket(owner uint32, w uint64) int {
	return int(owner)<<l.ds | int(w>>l.shift)
}

// sourceScratch is a counting source's reused digit tables.
type sourceScratch struct{ cur []int }

// sourceScratches holds the digit tables CountSharded's sources reuse.
var sourceScratches = sync.Pool{New: func() any { return new(sourceScratch) }}

// countSource extracts the k-mers and terminal (k-1)-mers of source src's
// reads (every n-th read from src) and pre-aggregates them per owner, in
// the two passes of kmer.Count. (a) A counting pass resolves the owner of
// every k-mer once (ownersOf) and of every terminal word, keeping them in
// the count column in read order, and sizes each owner × digit bucket.
// (b) Extraction rolls the reads again and writes every word straight into
// its bucket's next slot. (c) Each bucket collapses into (word,
// multiplicity) records at the front of its owner's span.
func countSource(reads []readsim.Read, src int, cfg Config) source {
	n, k, mo := cfg.Nodes, cfg.K, cfg.Partitioner.owners(cfg.Nodes)
	total, terms := 0, 0
	for ri := src; ri < len(reads); ri += n {
		if c := reads[ri].Seq.Len() - k + 1; c > 0 {
			total += c
			terms++
		}
	}
	sizes := [numStreams]int{total, terms, terms}
	widths := [numStreams]int{2 * k, 2 * (k - 1), 2 * (k - 1)}
	scr := sourceScratches.Get().(*sourceScratch)
	defer sourceScratches.Put(scr)
	var ls [numStreams]streamSlots
	slots, tabs := 0, 0
	for s := range ls {
		ds := min(bits.Len(uint(sizes[s]/(n*sourceBucketLen))), sourceDigitMax, widths[s])
		ls[s] = streamSlots{base: slots, ds: uint(ds), shift: uint(widths[s] - ds)}
		slots += sizes[s]
		tabs += n << ds
	}
	scr.cur = grow(scr.cur, tabs)
	clear(scr.cur)
	for s, off := 0, 0; s < numStreams; s++ {
		nb := n << ls[s].ds
		ls[s].cur = scr.cur[off : off+nb]
		off += nb
	}
	out := source{
		words:     make([]uint64, slots),
		counts:    make([]uint32, slots),
		seg:       make([]int, 2*numStreams*n),
		extracted: total,
	}
	own := out.counts // every word's owner, in read order, until (c)

	kmask, tmask := dna.KmerMask(k), dna.KmerMask(k-1)
	km, tp, ts := &ls[kmerStream], &ls[prefixStream], &ls[suffixStream]
	// (a) Owners and bucket sizes.
	for ri, at, t := src, 0, 0; ri < len(reads); ri += n {
		seq := reads[ri].Seq
		c := seq.Len() - k + 1
		if c <= 0 {
			continue
		}
		o := own[at : at+c]
		mo.ownersOf(seq, k, o)
		var x, w, first uint64
		for j := 0; j < seq.Len(); j++ {
			if j&31 == 0 {
				w = seq.Word(j >> 5)
			}
			x = (x<<2 | w&3) & kmask
			w >>= 2
			if j == k-2 {
				first = x
			}
			if j >= k-1 {
				km.cur[km.bucket(o[j-k+1], x)]++
			}
		}
		last := x & tmask
		po := uint32(mo.owner(dna.Kmer(first), k-1))
		so := uint32(mo.owner(dna.Kmer(last), k-1))
		own[tp.base+t], own[ts.base+t] = po, so
		tp.cur[tp.bucket(po, first)]++
		ts.cur[ts.bucket(so, last)]++
		at += c
		t++
	}
	for s := range ls {
		sum := ls[s].base
		for b, c := range ls[s].cur {
			ls[s].cur[b] = sum
			sum += c
		}
	}
	// (b) Every word into its slot.
	place := func(l *streamSlots, owner uint32, w uint64) {
		b := l.bucket(owner, w)
		out.words[l.cur[b]] = w
		l.cur[b]++
	}
	for ri, at, t := src, 0, 0; ri < len(reads); ri += n {
		seq := reads[ri].Seq
		c := seq.Len() - k + 1
		if c <= 0 {
			continue
		}
		o := own[at : at+c]
		var x, w uint64
		for j := 0; j < seq.Len(); j++ {
			if j&31 == 0 {
				w = seq.Word(j >> 5)
			}
			x = (x<<2 | w&3) & kmask
			w >>= 2
			if j == k-2 {
				place(tp, own[tp.base+t], x)
			}
			if j >= k-1 {
				place(km, o[j-k+1], x)
			}
		}
		place(ts, own[ts.base+t], x&tmask)
		at += c
		t++
	}
	// (c) Collapse each bucket into its owner's span.
	for s := range ls {
		l := &ls[s]
		lo := l.base
		per := 1 << l.ds
		for dst := 0; dst < n; dst++ {
			start := lo
			w := start
			for _, hi := range l.cur[dst*per : (dst+1)*per] {
				w = out.collapse(w, lo, hi)
				lo = hi
			}
			out.seg[2*(s*n+dst)], out.seg[2*(s*n+dst)+1] = start, w-start
		}
	}
	return out
}

// collapse writes each distinct word of slots [lo, hi), with its
// multiplicity, to the slots from w (w <= lo) on, and returns the slot
// after the last. The owner sums in any order, so a short bucket is only
// deduplicated, each word folding into an equal one found by a scan; a
// longer one, which holds the copies of a repeat, goes through kmer's sort
// kernel and collapses its runs.
func (src *source) collapse(w, lo, hi int) int {
	words, counts := src.words, src.counts
	if hi-lo > sourceScanMax {
		b := words[lo:hi]
		kmer.SortUint64(b)
		for i := 0; i < len(b); {
			j := i + 1
			for j < len(b) && b[j] == b[i] {
				j++
			}
			words[w], counts[w] = b[i], uint32(j-i)
			w++
			i = j
		}
		return w
	}
	d := w // words[w:d] are distinct; d never passes the unread slots
	for i := lo; i < hi; i++ {
		x := words[i]
		j := w
		for j < d && words[j] != x {
			j++
		}
		if j < d {
			counts[j]++
			continue
		}
		words[d], counts[d] = x, 1
		d++
	}
	return d
}

// ShardGraphs is the outcome of distributed MacroNode construction: every
// counted k-mer is shipped to the owners of its leading and trailing
// (k-1)-mers (PaKman's second all-to-all), and each node builds the
// MacroNodes it owns. The shard graphs tile the single-node PaK-graph:
// their key sets partition it and every node is structurally identical.
// Simulate's prelude counts the exchange and receives (construction) and
// leaves Graphs nil.
type ShardGraphs struct {
	Graphs []*pakgraph.Graph
	// GraphExchange[src][dst] is the construction-exchange traffic; a
	// k-mer whose two key owners coincide is shipped once.
	GraphExchange [][]int64
	RecvPerNode   []int64 // construction records each node processes
}

// construction counts the construction all-to-all that Simulate and
// BuildShardGraphs share, with no records: every kept k-mer goes to the
// owners of its leading and trailing (k-1)-mers, once when they coincide.
// It returns a ShardGraphs holding the exchange matrix and per-node receive
// counts but no graphs, and each owner's MacroNode count, which is the
// number of distinct (k-1)-mers among the k-mer ends it owns. A source
// resolves each k-mer's two owners once (endOwners), fills its exchange
// row and counts the ends it gives each owner; a second pass writes every
// end into its owner's span of one vector, owner-major; and each owner
// sorts its span and counts the runs.
func (sc *ShardedCount) construction(cfg Config) (*ShardGraphs, []int) {
	n, k := sc.Nodes, sc.K
	mo := cfg.Partitioner.owners(n)
	sg := &ShardGraphs{GraphExchange: mat(n), RecvPerNode: make([]int64, n)}
	// Source src's k-mers own slots 2*at[src] to 2*at[src+1] of own: each
	// k-mer's prefix owner, then its suffix owner.
	at := make([]int, n+1)
	for src, sh := range sc.Shards {
		at[src+1] = at[src] + len(sh.Kmers)
	}
	own := make([]int32, 2*at[n])
	// ends[src*n+dst] is the number of ends source src gives owner dst,
	// then its write cursor in keys.
	ends := make([]int, n*n)
	par.ForIdx(n, cfg.Workers, func(src int) {
		o, row, cnt := own[2*at[src]:2*at[src+1]], sg.GraphExchange[src], ends[src*n:(src+1)*n]
		for i, kc := range sc.Shards[src].Kmers {
			po, so := mo.endOwners(kc.Km, k)
			o[2*i], o[2*i+1] = int32(po), int32(so)
			cnt[po]++
			cnt[so]++
			row[po]++ // records, until priced below
			if so != po {
				row[so]++
			}
		}
	})
	// span[dst] is the first slot of owner dst's ends in keys.
	span := make([]int, n+1)
	for dst := 0; dst < n; dst++ {
		span[dst+1] = span[dst]
		for src := 0; src < n; src++ {
			c := ends[src*n+dst]
			ends[src*n+dst] = span[dst+1]
			span[dst+1] += c
			sg.RecvPerNode[dst] += sg.GraphExchange[src][dst]
			sg.GraphExchange[src][dst] *= graphRecordBytes
		}
	}
	keys := make([]uint64, span[n])
	par.ForIdx(n, cfg.Workers, func(src int) {
		o, cur := own[2*at[src]:2*at[src+1]], ends[src*n:(src+1)*n]
		for i, kc := range sc.Shards[src].Kmers {
			po, so := o[2*i], o[2*i+1]
			keys[cur[po]] = uint64(kc.Km.Prefix())
			cur[po]++
			keys[cur[so]] = uint64(kc.Km.Suffix(k))
			cur[so]++
		}
	})
	macroNodes := make([]int, n)
	par.ForIdx(n, cfg.Workers, func(dst int) {
		ks := keys[span[dst]:span[dst+1]]
		kmer.SortUint64(ks)
		macroNodes[dst] = kmer.CountRuns(ks)
	})
	return sg, macroNodes
}

// BuildShardGraphs runs distributed MacroNode construction over a sharded
// count; cfg must have the count's node count and k. The exchange is
// construction's. A node receives every k-mer touching a key it owns, and
// each such node is the single-node graph's node of that key, so the shard
// graphs are one pakgraph.Build over the shards' k-mers in ascending order
// with its nodes split by key owner.
func (sc *ShardedCount) BuildShardGraphs(cfg Config) (*ShardGraphs, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Nodes != sc.Nodes || cfg.K != sc.K {
		return nil, fmt.Errorf("scaleout: building shard graphs for %d nodes at k=%d over a count of %d nodes at k=%d",
			cfg.Nodes, cfg.K, sc.Nodes, sc.K)
	}
	sg, macroNodes := sc.construction(cfg)
	var kms []kmer.Counted
	for _, sh := range sc.Shards {
		kms = append(kms, sh.Kmers...)
	}
	slices.SortFunc(kms, func(a, b kmer.Counted) int { return cmp.Compare(a.Km, b.Km) })
	g, err := pakgraph.Build(&kmer.Result{K: sc.K, Kmers: kms})
	if err != nil {
		return nil, err
	}
	sg.Graphs = make([]*pakgraph.Graph, sc.Nodes)
	for dst := range sg.Graphs {
		sg.Graphs[dst] = &pakgraph.Graph{K: sc.K, Nodes: make([]pakgraph.MacroNode, 0, macroNodes[dst])}
	}
	mo := cfg.Partitioner.owners(sc.Nodes)
	for _, mn := range g.Nodes {
		gs := sg.Graphs[mo.owner(mn.Key, sc.K-1)]
		gs.Nodes = append(gs.Nodes, mn)
	}
	return sg, nil
}

// mat returns an n×n matrix whose rows are capped windows of one backing
// array.
func mat(n int) [][]int64 {
	flat := make([]int64, n*n)
	m := make([][]int64, n)
	for i := range m {
		m[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

// matBlock is a reusable set of n×n matrices.
type matBlock [][][]int64

// take returns k zeroed n×n matrices from the block, adding to it when it
// holds fewer; they stay valid until the next take. n must not change
// between takes.
func (b *matBlock) take(k, n int) [][][]int64 {
	for len(*b) < k {
		*b = append(*b, mat(n))
	}
	ms := (*b)[:k]
	for _, m := range ms {
		for _, row := range m {
			clear(row)
		}
	}
	return ms
}
