package scaleout

import (
	"cmp"
	"errors"
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
// pre-aggregates its k-mers (sort + dedup, PaKman's combining step), the
// partial counts travel all-to-all to their owners, and each owner merges
// and prunes. The union of the per-node results is byte-identical to a
// single-node kmer.Count run, which TestShardedCountMergeEquivalence
// asserts.
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
	// CountExchange[src][dst] is the bytes of partial-count records node
	// src ships to owner dst (diagonal = locally retained, free).
	CountExchange [][]int64
}

// CountSharded runs the distributed counting pass. Partition, k and
// MinCount come from cfg; reads are split round-robin so every node gets a
// near-equal share regardless of input order.
func CountSharded(reads []readsim.Read, cfg Config) (*ShardedCount, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Nodes
	kc := kmer.Config{K: cfg.K, MinCount: cfg.MinCount}
	if err := kc.Validate(); err != nil {
		return nil, err
	}
	p := cfg.Partitioner

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

	// Per-node extraction + local pre-aggregation, each node in parallel
	// (the intra-node parallelism of kmer.Count is already exercised by the
	// single-node path; here the unit of concurrency is the virtual node).
	// Buffers are pre-sized from read counts like kmer.Count's, and every
	// outgoing record lands in an exact-size flat vector per stream, so a
	// source allocates a fixed number of times whatever the node count.
	outboxes := make([][numStreams][][]kmer.Counted, n) // [src][stream][dst]
	par.ForIdx(n, cfg.Workers, func(src int) {
		total, terms := 0, 0
		for ri := src; ri < len(reads); ri += n {
			if c := reads[ri].Seq.Len() - cfg.K + 1; c > 0 {
				total += c
				terms++
			}
		}
		raw := make([]uint64, 0, total)
		tpRaw := make([]uint64, 0, terms)
		tsRaw := make([]uint64, 0, terms)
		for ri := src; ri < len(reads); ri += n {
			kmer.ExtractInto(&raw, &tpRaw, &tsRaw, reads[ri].Seq, cfg.K)
		}
		sc.ExtractedPerNode[src] = int64(len(raw))
		kmer.ParallelSortUint64(raw, 1)
		kmer.ParallelSortUint64(tpRaw, 1)
		kmer.ParallelSortUint64(tsRaw, 1)
		// Every read contributes at least one k-mer, so own fits each
		// stream's distinct words in turn.
		own := make([]int32, len(raw))
		cnt := make([]int32, n)
		outboxes[src] = [numStreams][][]kmer.Counted{
			kmerStream:   routeRuns(raw, p, cfg.K, own, cnt),
			prefixStream: routeRuns(tpRaw, p, cfg.K-1, own, cnt),
			suffixStream: routeRuns(tsRaw, p, cfg.K-1, own, cnt),
		}
	})

	for src := 0; src < n; src++ {
		for s := range outboxes[src] {
			for dst, b := range outboxes[src][s] {
				sc.CountExchange[src][dst] += int64(len(b)) * countRecordBytes
			}
		}
	}

	// Owner-side merge: every source's bucket is already ascending, so the
	// owner k-way merges them and sums equal keys, then prunes. Pruning
	// after the exchange sees the complete count of every owned k-mer, so
	// it is exactly the single-node threshold. The merged k-mers go to
	// pooled scratch; only the survivors get a vector of their own.
	minCount := max(cfg.MinCount, 1)
	par.ForIdx(n, cfg.Workers, func(dst int) {
		runs := make([]kmer.TermCounts, n)
		gather := func(s int) []kmer.TermCounts {
			for src := range outboxes {
				runs[src] = outboxes[src][s][dst]
			}
			return runs
		}
		res := &kmer.Result{
			K:          cfg.K,
			TermPrefix: kmer.MergeTerms(gather(prefixStream)),
			TermSuffix: kmer.MergeTerms(gather(suffixStream)),
		}
		for _, r := range gather(kmerStream) {
			sc.RecordsToNode[dst] += int64(len(r))
		}
		scratch := mergeScratch.Get().(*kmer.TermCounts)
		recs := kmer.AppendMerged((*scratch)[:0], runs)
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
		*scratch = recs
		mergeScratch.Put(scratch)
		sc.Shards[dst] = res
	})
	return sc, nil
}

// mergeScratch holds the owner-side merge buffers CountSharded reuses.
var mergeScratch = sync.Pool{New: func() any { return new(kmer.TermCounts) }}

// The three record streams a counting source ships: distinct k-mers keyed
// by the k-mer, and read-terminal prefixes and suffixes keyed by the
// (k-1)-mer.
const (
	kmerStream = iota
	prefixStream
	suffixStream
	numStreams
)

// routeRuns buckets the distinct words of a sorted stream of kk-mers by
// owner: each run of equal words becomes one (word, multiplicity) record
// in the bucket of the node that owns it, and every bucket stays
// ascending. The owner of each run is computed once, into own (at least
// one slot per run), and counted in cnt (one slot per node); then the
// records are filled into one flat vector of exactly the run count, of
// which each bucket is a capped window, so filling one bucket can never
// spill into the next. Empty buckets are nil.
func routeRuns(sorted []uint64, p Partitioner, kk int, own, cnt []int32) [][]kmer.Counted {
	clear(cnt)
	n := len(cnt)
	runs := 0
	for i := 0; i < len(sorted); runs++ {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		d := int32(p.Owner(dna.Kmer(sorted[i]), kk, n))
		own[runs] = d
		cnt[d]++
		i = j
	}
	buckets := make([][]kmer.Counted, n)
	if runs == 0 {
		return buckets
	}
	flat := make([]kmer.Counted, runs)
	off := 0
	for d, c := range cnt {
		if c > 0 {
			buckets[d] = flat[off : off : off+int(c)]
			off += int(c)
		}
	}
	for i, r := 0, 0; i < len(sorted); r++ {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		d := own[r]
		buckets[d] = append(buckets[d], kmer.Counted{Km: dna.Kmer(sorted[i]), Count: uint32(j - i)})
		i = j
	}
	return buckets
}

// ShardGraphs is the outcome of distributed MacroNode construction: every
// counted k-mer is shipped to the owners of its leading and trailing
// (k-1)-mers (PaKman's second all-to-all), and each node builds the
// MacroNodes it owns. The shard graphs tile the single-node PaK-graph:
// their key sets partition it and every node is structurally identical.
type ShardGraphs struct {
	Graphs []*pakgraph.Graph
	// GraphExchange[src][dst] is the construction-exchange traffic; a
	// k-mer whose two key owners coincide is shipped once.
	GraphExchange [][]int64
	RecvPerNode   []int64 // construction records each node processes
}

// graphRec is one k-mer delivered to a key owner, with the roles it plays
// there (a k-mer is a suffix extension of its leading (k-1)-mer's node and
// a prefix extension of its trailing one's; both keys may be owned by the
// same node).
type graphRec struct {
	km       dna.Kmer
	count    uint32
	sufAtPre bool // owner holds Prefix(km): add suffix extension
	preAtSuf bool // owner holds Suffix(km): add prefix extension
}

// routeGraph runs the construction all-to-all that BuildShardGraphs and
// the simulated prelude share: every counted k-mer goes to the owners of
// its leading and trailing (k-1)-mers, once when they coincide. It returns
// a ShardGraphs holding the exchange matrix and per-node receive counts but
// no graphs, and the delivered records as inbox[src][dst], each ascending
// by k-mer. Like routeRuns, a source computes each k-mer's two owners once,
// counts, then fills one exact-size flat vector of capped windows.
func (sc *ShardedCount) routeGraph(cfg Config) (*ShardGraphs, [][][]graphRec) {
	n := sc.Nodes
	p := cfg.Partitioner
	sg := &ShardGraphs{
		GraphExchange: mat(n),
		RecvPerNode:   make([]int64, n),
	}
	inbox := make([][][]graphRec, n)
	par.ForIdx(n, cfg.Workers, func(src int) {
		kms := sc.Shards[src].Kmers
		own := make([]int32, 2*len(kms)) // prefix owner, suffix owner
		cnt := make([]int, n)
		for i, kc := range kms {
			po := p.Owner(kc.Km.Prefix(), sc.K-1, n)
			so := p.Owner(kc.Km.Suffix(sc.K), sc.K-1, n)
			own[2*i], own[2*i+1] = int32(po), int32(so)
			cnt[po]++
			if so != po {
				cnt[so]++
			}
		}
		total := 0
		for _, c := range cnt {
			total += c
		}
		flat := make([]graphRec, total)
		bs := make([][]graphRec, n)
		off := 0
		for dst, c := range cnt {
			if c > 0 {
				bs[dst] = flat[off : off : off+c]
				off += c
			}
			sg.GraphExchange[src][dst] = int64(c) * graphRecordBytes
		}
		for i, kc := range kms {
			po, so := own[2*i], own[2*i+1]
			if po == so {
				bs[po] = append(bs[po], graphRec{km: kc.Km, count: kc.Count, sufAtPre: true, preAtSuf: true})
			} else {
				bs[po] = append(bs[po], graphRec{km: kc.Km, count: kc.Count, sufAtPre: true})
				bs[so] = append(bs[so], graphRec{km: kc.Km, count: kc.Count, preAtSuf: true})
			}
		}
		inbox[src] = bs
	})
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			sg.RecvPerNode[dst] += int64(len(inbox[src][dst]))
		}
	}
	return sg, inbox
}

// BuildShardGraphs runs distributed MacroNode construction over a sharded
// count.
func (sc *ShardedCount) BuildShardGraphs(cfg Config) (*ShardGraphs, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sg, inbox := sc.routeGraph(cfg)
	sg.Graphs = make([]*pakgraph.Graph, sc.Nodes)
	errs := make([]error, sc.Nodes)
	par.ForIdx(sc.Nodes, cfg.Workers, func(dst int) {
		kms := make([]kmer.Counted, 0, sg.RecvPerNode[dst])
		for src := range inbox {
			for _, r := range inbox[src][dst] {
				kms = append(kms, kmer.Counted{Km: r.km, Count: r.count})
			}
		}
		// A k-mer reaches an owner at most once, and every k-mer touching
		// an owned key reaches it, so building the received k-mers in
		// ascending order reproduces each owned node exactly as the
		// single-node pakgraph.Build makes it. The other nodes of that
		// graph hold only part of their extensions and are dropped.
		slices.SortFunc(kms, func(a, b kmer.Counted) int { return cmp.Compare(a.Km, b.Km) })
		g, err := pakgraph.Build(&kmer.Result{K: sc.K, Kmers: kms})
		if err != nil {
			errs[dst] = err
			return
		}
		owned := g.Nodes[:0]
		for i := range g.Nodes {
			if cfg.Partitioner.Owner(g.Nodes[i].Key, sc.K-1, sc.Nodes) == dst {
				owned = append(owned, g.Nodes[i])
			}
		}
		clear(g.Nodes[len(owned):])
		g.Nodes = owned
		sg.Graphs[dst] = g
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return sg, nil
}

// macroNodeCounts returns the number of MacroNodes each owner holds, which
// is the number of distinct keys among the records it receives: the
// leading (k-1)-mer of a suffix-extension record and the trailing one of a
// prefix-extension record. It equals BuildShardGraphs' Graphs[dst].Len()
// without building a node.
func macroNodeCounts(inbox [][][]graphRec, k, workers int) []int {
	n := len(inbox)
	counts := make([]int, n)
	par.ForIdx(n, workers, func(dst int) {
		keys := 0
		for src := range inbox {
			for _, r := range inbox[src][dst] {
				if r.sufAtPre && r.preAtSuf {
					keys++
				}
			}
			keys += len(inbox[src][dst])
		}
		buf := make([]uint64, 0, keys)
		for src := range inbox {
			for _, r := range inbox[src][dst] {
				if r.sufAtPre {
					buf = append(buf, uint64(r.km.Prefix()))
				}
				if r.preAtSuf {
					buf = append(buf, uint64(r.km.Suffix(k)))
				}
			}
		}
		kmer.ParallelSortUint64(buf, 1)
		counts[dst] = kmer.CountRuns(buf)
	})
	return counts
}

func mat(n int) [][]int64 {
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
	}
	return m
}
