package scaleout

import (
	"fmt"

	"nmppak/internal/dna"
	"nmppak/internal/trace"
)

// ShardedTrace is a global compaction trace split by MacroNode-key
// ownership: node i's sub-trace contains exactly the node visits, local
// TransferNode routes and destination updates of the keys it owns, while
// cross-node TransferNodes are lifted out of the sub-traces into a
// per-iteration halo-exchange byte matrix. Every sub-trace keeps all
// iterations (possibly empty) so the per-iteration lockstep of the
// distributed runtime lines up across nodes.
type ShardedTrace struct {
	Nodes  int
	Traces []*trace.Trace
	// Halo[it][src][dst] is the TransferNode bytes crossing from node src
	// to node dst during iteration it.
	Halo [][][]int64

	LocalTNs  int64 // TransferNodes whose source and destination share a node
	RemoteTNs int64 // TransferNodes crossing the interconnect
	HaloBytes int64
}

// traffic is a TransferNode split: transfers whose source and
// destination share a node, transfers crossing the interconnect, and the
// crossing payload.
type traffic struct {
	localTNs, remoteTNs, haloBytes int64
}

func (t *traffic) add(u traffic) {
	t.localTNs += u.localTNs
	t.remoteTNs += u.remoteTNs
	t.haloBytes += u.haloBytes
}

// record sets a Result's traffic accounting from the split.
func (t traffic) record(res *Result) {
	res.HaloBytes = t.haloBytes
	if all := t.localTNs + t.remoteTNs; all > 0 {
		res.RemoteTNFrac = float64(t.remoteTNs) / float64(all)
	}
}

// countIteration is the count pass of shardIteration: it resolves the
// owner of every node visit, adds the cross-node TransferNode bytes into
// halo (skipped when nil) and returns the owners, the per-node op counts
// (visits counts[o], local transfers counts[n+o], updates counts[2n+o])
// and the traffic split. A replayed iteration needs no more than this.
func countIteration(iter *trace.Iteration, n int, ownerOf func(dna.Kmer) int, halo [][]int64) (owner, counts []int32, t traffic) {
	owner = make([]int32, len(iter.Nodes))
	counts = make([]int32, 3*n)
	for i := range iter.Nodes {
		o := int32(ownerOf(iter.Nodes[i].Key))
		owner[i] = o
		counts[o]++
	}
	for _, tn := range iter.Transfers {
		s, d := owner[tn.SrcIdx], owner[tn.DstIdx]
		if s == d {
			t.localTNs++
			counts[n+int(s)]++
			continue
		}
		t.remoteTNs++
		t.haloBytes += int64(tn.TNBytes)
		if halo != nil {
			halo[s][d] += int64(tn.TNBytes)
		}
	}
	for _, u := range iter.Updates {
		counts[2*n+int(owner[u.DstIdx])]++
	}
	return owner, counts, t
}

// shardIteration splits one global iteration across n nodes under ownerOf
// (a pure key -> node assignment): per-node sub-iterations carry the node
// visits, local transfers and updates of the keys each node owns, while
// cross-node TransferNode bytes accumulate into halo[src][dst] (when halo
// is non-nil). The returned split counts the local and remote transfers
// and the remote payload. This is the unit of work the shard feed applies
// to each iteration just before the epoch that steps it.
//
// It counts first and fills second, so every per-node slice is allocated
// once at exactly the size it keeps (nil when empty): the allocation count
// depends on n, not on the iteration's size.
func shardIteration(iter *trace.Iteration, n int, ownerOf func(dna.Kmer) int, halo [][]int64) ([]trace.Iteration, traffic) {
	owner, counts, t := countIteration(iter, n, ownerOf, halo)
	nodeCnt, tnCnt, updCnt := counts[:n], counts[n:2*n], counts[2*n:]

	subs := make([]trace.Iteration, n)
	for o := range subs {
		if c := nodeCnt[o]; c > 0 {
			subs[o].Nodes = make([]trace.NodeOp, 0, c)
		}
		if c := tnCnt[o]; c > 0 {
			subs[o].Transfers = make([]trace.TransferOp, 0, c)
		}
		if c := updCnt[o]; c > 0 {
			subs[o].Updates = make([]trace.UpdateOp, 0, c)
		}
	}
	local := make([]int32, len(iter.Nodes))
	for i := range iter.Nodes {
		o := owner[i]
		local[i] = int32(len(subs[o].Nodes))
		subs[o].Nodes = append(subs[o].Nodes, iter.Nodes[i])
	}
	for _, tn := range iter.Transfers {
		if s := owner[tn.SrcIdx]; s == owner[tn.DstIdx] {
			subs[s].Transfers = append(subs[s].Transfers, trace.TransferOp{
				SrcIdx: local[tn.SrcIdx], DstIdx: local[tn.DstIdx],
				TNBytes: tn.TNBytes, SuffixSide: tn.SuffixSide,
			})
		}
	}
	for _, u := range iter.Updates {
		o := owner[u.DstIdx]
		subs[o].Updates = append(subs[o].Updates, trace.UpdateOp{
			DstIdx: local[u.DstIdx], ReadBytes: u.ReadBytes, WriteBytes: u.WriteBytes,
		})
	}
	for o := range subs {
		subs[o].Stats = iter.Stats
		subs[o].Quantiles = trace.BuildQuantiles(subs[o].Nodes)
	}
	return subs, t
}

// shardFeed is the per-iteration shard feed the compaction runtime steps
// its engines from. Node o's engine replays traces[o], which starts empty
// (a resumed run's starts with placeholder iterations behind the cursor);
// shard appends each global iteration's per-node slices just before the
// epoch that steps it, so a run shards exactly what it replays and never
// holds a whole ShardedTrace.
type shardFeed struct {
	tr      *trace.Trace
	ownerOf func(dna.Kmer) int
	live    []bool
	traces  []*trace.Trace
	traffic // over the iterations fed so far
}

// newShardFeed returns a feed of n empty node traces. ownerOf and live are
// read at every shard, so a runtime may re-assign ownership or membership
// between epochs.
func newShardFeed(tr *trace.Trace, n int, ownerOf func(dna.Kmer) int, live []bool) shardFeed {
	f := shardFeed{tr: tr, ownerOf: ownerOf, live: live, traces: make([]*trace.Trace, n)}
	for o := range f.traces {
		f.traces[o] = &trace.Trace{K: tr.K}
	}
	return f
}

// resumeAt positions the node traces of a run resumed at boundary at:
// placeholder iterations up to the cursor (a resumed engine never reads
// behind it) and the iteration-0 quantile tables the run started from.
func (f *shardFeed) resumeAt(at int, quantiles [][]dna.Kmer) {
	for o, t := range f.traces {
		t.Iterations = make([]trace.Iteration, at)
		t.Quantiles = quantiles[o]
	}
}

// shard feeds iterations [from, to) to the live nodes' traces, setting
// each node's static quantile table at iteration 0, accumulates the
// traffic split and returns the iterations' halo matrices.
func (f *shardFeed) shard(from, to int) [][][]int64 {
	n := len(f.traces)
	halos := make([][][]int64, 0, to-from)
	for it := from; it < to; it++ {
		halo := mat(n)
		subs, t := shardIteration(&f.tr.Iterations[it], n, f.ownerOf, halo)
		f.add(t)
		for o, sub := range subs {
			if !f.live[o] {
				continue
			}
			if it == 0 {
				f.traces[o].Quantiles = sub.Quantiles
			}
			f.traces[o].Iterations = append(f.traces[o].Iterations, sub)
		}
		halos = append(halos, halo)
	}
	return halos
}

// halos returns the halo matrices of iterations [from, to) from the count
// pass alone, feeding nothing: all a replayed prefix needs.
func (f *shardFeed) halos(from, to int) [][][]int64 {
	halos := make([][][]int64, 0, to-from)
	for it := from; it < to; it++ {
		halo := mat(len(f.traces))
		countIteration(&f.tr.Iterations[it], len(f.traces), f.ownerOf, halo)
		halos = append(halos, halo)
	}
	return halos
}

// staticOwner is partitioner p's key -> node assignment over n nodes.
func staticOwner(tr *trace.Trace, n int, p Partitioner) func(dna.Kmer) int {
	k1 := tr.K - 1
	return func(key dna.Kmer) int { return p.Owner(key, k1, n) }
}

// ShardTrace splits tr across n nodes under partitioner p, feeding every
// iteration at once. With n == 1 the single sub-trace reproduces tr
// exactly (same nodes, transfers, updates and quantile tables), which is
// what pins the N=1 scale-out result to the single-node nmp.Simulate
// outcome. The runtimes never build one: they shard on demand.
func ShardTrace(tr *trace.Trace, n int, p Partitioner) *ShardedTrace {
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	f := newShardFeed(tr, n, staticOwner(tr, n, p), live)
	halo := f.shard(0, len(tr.Iterations))
	return &ShardedTrace{
		Nodes: n, Traces: f.traces, Halo: halo,
		LocalTNs: f.localTNs, RemoteTNs: f.remoteTNs, HaloBytes: f.haloBytes,
	}
}

// shardFacts are the whole-trace facts of a static partition that a run
// resumed past iteration 0 cannot collect from the iterations it feeds:
// the traffic split over every iteration, and each node's iteration-0
// quantile table (the DIMM mapping nmp.Config.StaticMapping reads). A few
// counters plus n×257 keys.
type shardFacts struct {
	traffic
	quantiles [][]dna.Kmer
}

// shardFactsOf returns tr's shard facts over n nodes under p, memoized on
// the trace (trace.Trace.Memo) per node count and partitioner identity, so
// every resume of every run on tr after the first finds them ready. They
// come from the count pass of each iteration plus the node split of
// iteration 0; no sub-trace outlives the call.
func shardFactsOf(tr *trace.Trace, n int, p Partitioner) *shardFacts {
	key := fmt.Sprintf("scaleout.shardFacts n=%d p=%s", n, partitionerID(p))
	return tr.Memo(key, func() any {
		ownerOf := staticOwner(tr, n, p)
		sf := &shardFacts{quantiles: make([][]dna.Kmer, n)}
		for it := range tr.Iterations {
			if it > 0 {
				_, _, t := countIteration(&tr.Iterations[it], n, ownerOf, nil)
				sf.add(t)
				continue
			}
			subs, t := shardIteration(&tr.Iterations[0], n, ownerOf, nil)
			sf.add(t)
			for o := range subs {
				sf.quantiles[o] = subs[o].Quantiles
			}
		}
		return sf
	}).(*shardFacts)
}
