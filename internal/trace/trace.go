// Package trace captures the memory-access behaviour of an Iterative
// Compaction run so the hardware models can replay it, mirroring the
// paper's methodology (§5.2): "We generate memory traces of read and write
// operations from the actual assembly execution to feed them into
// Ramulator... we use 'mn_idx' metadata to control their operation timing
// and track their status."
//
// A Trace records, per iteration, every live MacroNode visit (sizes,
// extension/wire counts, invalidation decision), every TransferNode routed
// (source, destination, payload size), and every destination update (bytes
// read and written). Node identity is positional (mn_idx within the
// iteration's ascending-key order) plus the node key, from which the
// simulators derive DIMM placement via the paper's ascending-range mapping
// table (AppendQuantiles).
package trace

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"slices"
	"sort"
	"sync"

	"nmppak/internal/compact"
	"nmppak/internal/dna"
)

// NodeOp is one P1 visit of a live MacroNode.
type NodeOp struct {
	Key         dna.Kmer
	D1, D2      int32 // MN data1 / data2 bytes (Fig. 10)
	Exts, Wires int32
	Invalidated bool
}

// TransferOp is one TransferNode routed from a source (invalidated) node to
// a destination node, identified by mn_idx within the same iteration.
type TransferOp struct {
	SrcIdx, DstIdx int32
	TNBytes        int32
	SuffixSide     bool
}

// UpdateOp is one P3 destination update.
type UpdateOp struct {
	DstIdx                int32
	ReadBytes, WriteBytes int32
}

// Iteration is the full event record of one compaction iteration.
type Iteration struct {
	Nodes     []NodeOp
	Transfers []TransferOp
	Updates   []UpdateOp
	Stats     compact.IterStats
}

// Trace is a complete compaction recording.
//
// A Trace is immutable once Builder.Trace returns it: consumers
// read it, possibly from many goroutines, and never modify its contents.
// Digest and Memo rely on this to derive facts about the trace only once.
// Handle a Trace through its pointer; it must not be copied by value.
type Trace struct {
	K          int
	Iterations []Iteration

	digestOnce sync.Once
	digest     uint64

	memoMu sync.Mutex
	memo   map[string]*memoEntry
}

// memoEntry is one value memoized on a Trace.
type memoEntry struct {
	once sync.Once
	v    any
}

// dimmOf maps key to a DIMM in [0, nDIMMs), the DIMM of its quantile
// bucket in table q. A table of fewer than two edges has no bucket and
// maps every key to DIMM 0.
func dimmOf(q []dna.Kmer, key dna.Kmer, nDIMMs int) int {
	if len(q) < 2 || nDIMMs <= 1 {
		return 0
	}
	return bucketDIMM(bucketOf(q, key), len(q)-1, nDIMMs)
}

// bucketOf returns key's quantile bucket, the first bucket i whose upper
// edge q[i+1] exceeds key, clamped to the last; q holds two edges or more.
func bucketOf(q []dna.Kmer, key dna.Kmer) int {
	buckets := len(q) - 1
	return min(sort.Search(buckets, func(i int) bool { return q[i+1] > key }), buckets-1)
}

// bucketDIMM spreads buckets quantile buckets evenly over nDIMMs DIMMs.
func bucketDIMM(i, buckets, nDIMMs int) int { return i * nDIMMs / buckets }

// DIMMWalk maps a run of keys to DIMMs under a quantile table, as a
// binary search of the edges per key would, by one merge walk over the
// edges. A key at or above its predecessor moves a bucket cursor forward,
// so n ascending keys cost O(n + edges) compares and one division per
// bucket change. A key below its predecessor is searched for, and the
// walk goes on from its bucket. A table whose edges do not ascend (built
// from nodes out of key order) is searched for every key.
type DIMMWalk struct {
	q      []dna.Kmer // nil: every key maps to DIMM 0
	nDIMMs int
	i, d   int // the cursor's bucket and its DIMM
	last   dna.Kmer
	search bool
}

// NewDIMMWalk starts a walk over the quantile table q for nDIMMs DIMMs.
func NewDIMMWalk(q []dna.Kmer, nDIMMs int) DIMMWalk {
	if len(q) < 2 || nDIMMs <= 1 {
		return DIMMWalk{}
	}
	return DIMMWalk{q: q, nDIMMs: nDIMMs, search: !slices.IsSorted(q)}
}

// Of returns key's DIMM in [0, nDIMMs).
func (w *DIMMWalk) Of(key dna.Kmer) int {
	switch {
	case w.q == nil:
		return 0
	case w.search:
		return dimmOf(w.q, key, w.nDIMMs)
	}
	last := len(w.q) - 2 // the last bucket
	i := w.i
	if key < w.last {
		i = bucketOf(w.q, key)
	} else {
		for i < last && w.q[i+1] <= key {
			i++
		}
	}
	w.last = key
	if i != w.i {
		w.i, w.d = i, bucketDIMM(i, last+1, w.nDIMMs)
	}
	return w.d
}

// Digest fingerprints the trace's full contents — shape plus every
// recorded operation (node keys and sizes, transfer routing and payloads,
// update volumes) — so a checkpoint cannot be restored against a different
// trace that merely shares the shape. One FNV-1a pass over the packed
// fields. The pass runs on the first call only: a Trace is
// immutable, so later calls (from any goroutine) return the cached value.
func (t *Trace) Digest() uint64 {
	t.digestOnce.Do(func() { t.digest = t.computeDigest() })
	return t.digest
}

// Memo returns the value memoized on t under key, calling compute to
// produce it on the first request for that key. Concurrent first requests
// for one key share a single compute call; other keys do not wait on it.
// Like Digest it relies on the trace being immutable: the value must be a
// pure function of the trace and the key, and callers must treat it as
// read-only. The value lives as long as the trace does.
func (t *Trace) Memo(key string, compute func() any) any {
	t.memoMu.Lock()
	e := t.memo[key]
	if e == nil {
		if t.memo == nil {
			t.memo = make(map[string]*memoEntry)
		}
		e = &memoEntry{}
		t.memo[key] = e
	}
	t.memoMu.Unlock()
	e.once.Do(func() { e.v = compute() })
	return e.v
}

func (t *Trace) computeDigest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	w(uint64(t.K))
	w(uint64(len(t.Iterations)))
	for i := range t.Iterations {
		it := &t.Iterations[i]
		w(uint64(len(it.Nodes)))
		w(uint64(len(it.Transfers)))
		w(uint64(len(it.Updates)))
		for j := range it.Nodes {
			nd := &it.Nodes[j]
			w(uint64(nd.Key))
			w(uint64(uint32(nd.D1)) | uint64(uint32(nd.D2))<<32)
			w(uint64(uint32(nd.Exts)) | uint64(uint32(nd.Wires))<<32)
			if nd.Invalidated {
				w(1)
			} else {
				w(0)
			}
		}
		for j := range it.Transfers {
			tn := &it.Transfers[j]
			w(uint64(uint32(tn.SrcIdx)) | uint64(uint32(tn.DstIdx))<<32)
			v := uint64(uint32(tn.TNBytes))
			if tn.SuffixSide {
				v |= 1 << 32
			}
			w(v)
		}
		for j := range it.Updates {
			u := &it.Updates[j]
			w(uint64(uint32(u.DstIdx)))
			w(uint64(uint32(u.ReadBytes)) | uint64(uint32(u.WriteBytes))<<32)
		}
	}
	return h.Sum64()
}

// Builder implements compact.Observer and accumulates a Trace.
type Builder struct {
	trace   Trace
	cur     *Iteration
	pendTN  []pendingTN
	pendUpd []pendingUpd
}

type pendingTN struct {
	src, dst   dna.Kmer
	tnBytes    int
	suffixSide bool
}

type pendingUpd struct {
	dst         dna.Kmer
	read, write int
}

// NewBuilder returns a Builder for a graph with k-mer length k.
func NewBuilder(k int) *Builder {
	return &Builder{trace: Trace{K: k}}
}

// BeginIteration implements compact.Observer.
func (b *Builder) BeginIteration(iter, liveNodes int) {
	b.cur = &Iteration{Nodes: make([]NodeOp, 0, liveNodes)}
	b.pendTN = b.pendTN[:0]
	b.pendUpd = b.pendUpd[:0]
}

// ScanNode implements compact.Observer. Nodes arrive in ascending key
// order, so cur.Nodes is sorted by key and EndIteration resolves mn_idx by
// binary search.
func (b *Builder) ScanNode(key dna.Kmer, d1, d2, exts, wires int, invalidated bool) {
	b.cur.Nodes = append(b.cur.Nodes, NodeOp{
		Key: key, D1: int32(d1), D2: int32(d2),
		Exts: int32(exts), Wires: int32(wires), Invalidated: invalidated,
	})
}

// Transfer implements compact.Observer. Destinations may not be scanned
// yet, so resolution is deferred to EndIteration.
func (b *Builder) Transfer(src, dst dna.Kmer, tnBytes int, suffixSide bool) {
	b.pendTN = append(b.pendTN, pendingTN{src, dst, tnBytes, suffixSide})
}

// UpdateNode implements compact.Observer.
func (b *Builder) UpdateNode(key dna.Kmer, readBytes, writeBytes int) {
	b.pendUpd = append(b.pendUpd, pendingUpd{key, readBytes, writeBytes})
}

// EndIteration implements compact.Observer.
func (b *Builder) EndIteration(st compact.IterStats) {
	for _, p := range b.pendTN {
		si, sok := b.index(p.src)
		di, dok := b.index(p.dst)
		if !sok || !dok {
			continue // target outside this batch's graph; dropped by compact too
		}
		b.cur.Transfers = append(b.cur.Transfers, TransferOp{
			SrcIdx: si, DstIdx: di, TNBytes: int32(p.tnBytes), SuffixSide: p.suffixSide,
		})
	}
	for _, p := range b.pendUpd {
		di, ok := b.index(p.dst)
		if !ok {
			continue
		}
		b.cur.Updates = append(b.cur.Updates, UpdateOp{
			DstIdx: di, ReadBytes: int32(p.read), WriteBytes: int32(p.write),
		})
	}
	b.cur.Stats = st
	b.trace.Iterations = append(b.trace.Iterations, *b.cur)
	b.cur = nil
}

// index returns the mn_idx of key in the current iteration.
func (b *Builder) index(key dna.Kmer) (int32, bool) {
	i, ok := slices.BinarySearchFunc(b.cur.Nodes, key, func(n NodeOp, k dna.Kmer) int { return cmp.Compare(n.Key, k) })
	return int32(i), ok
}

// QuantileEdges is the length of a non-empty quantile table: the edges of
// 256 key-space buckets.
const QuantileEdges = 257

// AppendQuantiles appends the DIMM range table of an iteration's nodes
// (in ascending key order) to dst: nothing when nodes is empty, otherwise
// QuantileEdges keys at evenly spaced ranks, the paper's equal-population
// ascending-key partition. Because compaction preferentially removes
// lexicographically large keys, a table kept from iteration 0 would drain
// the high-key DIMMs and pile survivors into DIMM 0, so the simulators
// rebuild it from each iteration's nodes, as the runtime refreshes it at
// each reallocation (nmp's StaticMapping ablation keeps iteration 0's).
func AppendQuantiles(dst []dna.Kmer, nodes []NodeOp) []dna.Kmer {
	n := len(nodes)
	if n == 0 {
		return dst
	}
	for i := 0; i < QuantileEdges; i++ {
		dst = append(dst, nodes[i*(n-1)/(QuantileEdges-1)].Key)
	}
	return dst
}

// Trace returns the accumulated trace. The Builder must not be reused
// afterwards.
func (b *Builder) Trace() *Trace { return &b.trace }
