package scaleout

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

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
// split round-robin across nodes, each node extracts its k-mers and
// pre-aggregates them (dedup, PaKman's combining step), the partial counts
// travel all-to-all to their owners, and each owner sums and prunes. The
// union of the per-node results is byte-identical to a single-node
// kmer.Count run, which TestShardedCountMergeEquivalence asserts. The
// all-to-all also carries PaKman's read-terminal (k-1)-mer records, which
// CountExchange prices and no owner keeps.
type ShardedCount struct {
	K     int
	Nodes int
	// Shards[i] holds exactly the k-mers owned by node i, in ascending
	// order, with the same pruning statistics kmer.Count would produce
	// for that subset.
	Shards []*kmer.Result

	ReadsPerNode     []int
	ExtractedPerNode []int64 // raw k-mer instances before local dedup
	// RecordsToNode[dst] is the partial-count records owner dst sums: one
	// per source and distinct k-mer of that source's reads dst owns.
	RecordsToNode []int64
	// CountExchange[src][dst] is the bytes of partial-count and terminal
	// records node src ships to owner dst (diagonal = locally retained,
	// free).
	CountExchange [][]int64
}

// CountSharded runs the distributed counting pass. Partition, k and
// MinCount come from cfg; reads are split round-robin so every node gets a
// near-equal share regardless of input order.
//
// It builds no record. (a) Each source rolls its reads to size its share
// of every top-digit bucket and (b) again to write its k-mers there, so a
// bucket holds its words in ascending source order. (c) Tallying each
// bucket then yields the owners' kept k-mers and every (source, owner)
// record count at once. Each source's first and last (k-1)-mers are
// sorted and deduplicated apart: a terminal record per word and owner.
func CountSharded(reads []readsim.Read, cfg Config) (*ShardedCount, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, k := cfg.Nodes, cfg.K
	if err := (kmer.Config{K: k, MinCount: cfg.MinCount}).Validate(); err != nil {
		return nil, err
	}

	sc := &ShardedCount{
		K:                k,
		Nodes:            n,
		Shards:           make([]*kmer.Result, n),
		ReadsPerNode:     make([]int, n),
		ExtractedPerNode: make([]int64, n),
		RecordsToNode:    make([]int64, n),
		CountExchange:    mat(n),
	}
	// Source src has at[src+1]-at[src] reads at least k long.
	at := make([]int, n+1)
	total := 0
	for i, rd := range reads {
		sc.ReadsPerNode[i%n]++
		if c := rd.Seq.Len() - k + 1; c > 0 {
			sc.ExtractedPerNode[i%n] += int64(c)
			at[i%n+1]++
			total += c
		}
	}
	for src := 0; src < n; src++ {
		at[src+1] += at[src]
	}

	// A source's share of a bucket is about countBucketLen words, so the
	// cursors stay a fraction of the words.
	ds := min(bits.Len(uint(total/(n*countBucketLen))), countDigitMax, 2*k)
	nb, shift := 1<<ds, uint(2*k-ds)
	cur := make([]int, n*nb) // cur[src*nb+b]: source src's count, cursor, then end in bucket b
	ends := make([]uint64, 2*at[n])
	mo := cfg.Partitioner.owners(n)
	kmask, tmask := dna.KmerMask(k), dna.KmerMask(k-1)

	// roll rolls source src's reads at least k long. Without place it
	// counts their k-mers per bucket in the source's row of cur and keeps
	// their ends; with place, the row holds cursors and every k-mer goes
	// to its bucket's.
	var words []uint64
	roll := func(src int, place bool) {
		pos := cur[src*nb : (src+1)*nb]
		pre, e := ends[2*at[src]:], at[src+1]-at[src]
		for ri := src; ri < len(reads); ri += n {
			seq := reads[ri].Seq
			if seq.Len() < k {
				continue
			}
			var x, w uint64
			for j := 0; j < seq.Len(); j++ {
				if j&31 == 0 {
					w = seq.Word(j >> 5)
				}
				x = (x<<2 | w&3) & kmask
				w >>= 2
				if j < k-1 {
					continue
				}
				if place {
					words[pos[x>>shift]] = x
				}
				pos[x>>shift]++
			}
			if !place {
				pre[0], pre[e] = uint64(dna.KmerFromSeq(seq, 0, k-1)), x&tmask
				pre = pre[1:]
			}
		}
	}

	// (a) Bucket sizes, and each source's read ends priced: the first
	// (k-1)-mers, then the last.
	par.ForIdx(n, cfg.Workers, func(src int) {
		roll(src, false)
		row := sc.CountExchange[src]
		for _, ws := range [2][]uint64{ends[2*at[src] : at[src]+at[src+1]], ends[at[src]+at[src+1] : 2*at[src+1]]} {
			kmer.SortUint64(ws)
			for i, x := range ws {
				if i == 0 || x != ws[i-1] {
					row[mo.owner(dna.Kmer(x), k-1)] += countRecordBytes
				}
			}
		}
	})
	// (b) Every k-mer into its source's share of its bucket.
	kmer.PrefixCursors(cur, nb)
	words = make([]uint64, total)
	par.ForIdx(n, cfg.Workers, func(src int) { roll(src, true) })

	// (c) The workers take the buckets one at a time; heads[b] is the
	// length of the head bucket b's tally rewrote.
	last := cur[(n-1)*nb:] // the bucket ends
	minCount := max(cfg.MinCount, 1)
	ts := make([]tally, min(par.Threads(cfg.Workers), nb))
	heads := make([]int, nb)
	var next atomic.Int64
	par.For(len(ts), len(ts), func(wi, _ int) {
		t := &ts[wi]
		t.mo, t.n, t.k = mo, n, k
		t.recs, t.owners = make([]int64, n*n), make([]ownerTally, n)
		for b := int(next.Add(1)) - 1; b < nb; b = int(next.Add(1)) - 1 {
			lo, hi := kmer.BucketSpan(last, b)
			if lo == hi {
				continue
			}
			t.start(hi - lo)
			for src, from := 0, lo; src < n; src++ {
				t.add(src, words[from:cur[src*nb+b]])
				from = cur[src*nb+b]
			}
			heads[b] = t.finish(words[lo:hi], minCount)
		}
	})

	for _, t := range ts {
		for src, row := range sc.CountExchange {
			for dst, r := range t.recs[src*n : (src+1)*n] {
				sc.RecordsToNode[dst] += r
				row[dst] += r * countRecordBytes
			}
		}
	}
	for dst := range sc.Shards {
		res, kept := &kmer.Result{K: k}, int64(0)
		for _, t := range ts {
			o := t.owners[dst]
			res.TotalExtracted += o.extracted
			res.PrunedKinds += o.prunedKinds
			res.PrunedMass += o.prunedMass
			kept += o.kept
		}
		if kept > 0 {
			res.Kmers = make([]kmer.Counted, 0, kept)
		}
		sc.Shards[dst] = res
	}
	// The heads, in bucket order, hold the kept words in ascending order.
	for b, h := range heads {
		lo, _ := kmer.BucketSpan(last, b)
		for i, head := 0, words[lo:lo+h]; i < len(head); {
			x, j := head[i], i+1
			var c, o uint32
			if minCount >= 2 {
				c, o, j = uint32(head[j]>>32), uint32(head[j]), j+1
			} else {
				for j < len(head) && head[j] == x {
					j++
				}
				c, o = uint32(j-i), uint32(mo.owner(dna.Kmer(x), k))
			}
			sh := sc.Shards[o]
			sh.Kmers, i = append(sh.Kmers, kmer.Counted{Km: dna.Kmer(x), Count: c}), j
		}
	}
	return sc, nil
}

const (
	// countBucketLen is the words per source a counting bucket aims for,
	// and countDigitMax caps its digit at kmer.Count's width.
	countBucketLen = 16
	countDigitMax  = 11

	// probeBudget caps a bucket's probes past the home slot, per word. A
	// real bucket spends well under one; one of words crafted to collide
	// finishes in a Go map, so no input makes counting quadratic.
	probeBudget = 4

	// fibMul is 2^64 over the golden ratio: a word times fibMul, shifted
	// down, spreads words that differ only in their low bases.
	fibMul = 0x9e3779b97f4a7c15
)

// slot is one distinct word of a bucket.
type slot struct {
	x     uint64
	n     uint32 // copies
	owner uint32
	src   int32 // the last source that hit the word
}

// ownerTally is what one worker has counted of one owner's k-mers.
type ownerTally struct{ extracted, prunedKinds, prunedMass, kept int64 }

// tally is one worker's counting state, the scale-out form of kmer's
// bucket tally. The bucket in hand has its distinct words in slots, in
// first-seen order. They are found through idx, an open-addressing table
// of slot numbers plus one (0: empty) kept at most half full, so it is
// sized by the distinct words, not their copies; or through over once
// the probes outrun their budget. recs and owners accumulate over every
// bucket the worker tallies.
type tally struct {
	mo     ownerMap
	n, k   int
	slots  []slot
	idx    []int32
	shift  uint
	budget int
	over   map[uint64]int32
	prev   int     // the last bucket's distinct words, which size the next table
	recs   []int64 // recs[src*n+dst]: k-mer records source src ships owner dst
	owners []ownerTally
}

// start begins a bucket of the given copies.
func (t *tally) start(copies int) {
	t.slots, t.over, t.budget = t.slots[:0], nil, 0
	t.size(2 * min(copies, max(t.prev, 8)))
}

// size empties the table and gives it the first power of two of at least
// m slots.
func (t *tally) size(m int) {
	lg := bits.Len(uint(m - 1))
	t.idx = grow(t.idx, 1<<lg)
	clear(t.idx)
	t.shift = uint(64 - lg)
}

// add tallies words of source src. A source's first hit on a word is one
// more record from src to the word's owner.
func (t *tally) add(src int, words []uint64) {
	recs := t.recs[src*t.n : (src+1)*t.n]
	for _, x := range words {
		j, fresh := t.at(x)
		s := &t.slots[j]
		if fresh {
			s.owner, s.src = uint32(t.mo.owner(dna.Kmer(x), t.k)), -1
		}
		s.n++
		if s.src != int32(src) {
			s.src = int32(src)
			recs[s.owner]++
		}
	}
}

// at returns x's slot number, and whether x is new, adding a slot if so.
func (t *tally) at(x uint64) (int, bool) {
	if t.over == nil {
		t.budget += probeBudget
		mask := uint64(len(t.idx) - 1)
		for i := x * fibMul >> t.shift; ; i = (i + 1) & mask {
			e := t.idx[i]
			if e == 0 {
				t.slots = append(t.slots, slot{x: x})
				t.idx[i] = int32(len(t.slots))
				if 2*len(t.slots) > len(t.idx) {
					t.rehash()
				}
				return len(t.slots) - 1, true
			}
			if t.slots[e-1].x == x {
				return int(e - 1), false
			}
			if t.budget--; t.budget < 0 {
				t.spill()
				break
			}
		}
	}
	if j, ok := t.over[x]; ok {
		return int(j), false
	}
	t.over[x] = int32(len(t.slots))
	t.slots = append(t.slots, slot{x: x})
	return len(t.slots) - 1, true
}

// rehash doubles the table and enters every slot again, its probes
// charged to the budget.
func (t *tally) rehash() {
	t.size(2 * len(t.idx))
	mask := uint64(len(t.idx) - 1)
	for j, s := range t.slots {
		i := s.x * fibMul >> t.shift
		for ; t.idx[i] != 0; i = (i + 1) & mask {
			if t.budget--; t.budget < 0 {
				t.spill()
				return
			}
		}
		t.idx[i] = int32(j + 1)
	}
}

// spill moves the bucket's lookup into a Go map.
func (t *tally) spill() {
	t.over = make(map[uint64]int32, 2*len(t.slots))
	for j, s := range t.slots {
		t.over[s.x] = int32(j)
	}
}

// finish adds the bucket's words to their owners' totals and rewrites
// the head of v, the bucket, with its kept words, ascending, returning the
// head's length. At minCount 2 or more the head holds a pair per kept
// word, the word then its copies and owner: each has at least two copies,
// so its pair fits where they were. Below that every word is kept and the
// head is the sorted bucket.
func (t *tally) finish(v []uint64, minCount uint32) (h int) {
	kept := t.slots[:0]
	for _, s := range t.slots {
		o := &t.owners[s.owner]
		o.extracted += int64(s.n)
		if s.n < minCount {
			o.prunedKinds++
			o.prunedMass += int64(s.n)
			continue
		}
		o.kept++
		kept = append(kept, s)
	}
	t.prev = len(t.slots)
	slices.SortFunc(kept, func(a, b slot) int { return cmp.Compare(a.x, b.x) })
	for _, s := range kept {
		if minCount >= 2 {
			v[h], v[h+1] = s.x, uint64(s.n)<<32|uint64(s.owner)
			h += 2
			continue
		}
		for range s.n {
			v[h] = s.x
			h++
		}
	}
	return h
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
