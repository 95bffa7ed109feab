package scaleout

import (
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

// shardIteration splits one global iteration across n nodes under ownerOf
// (a pure key -> node assignment): per-node sub-iterations carry the node
// visits, local transfers and updates of the keys each node owns, while
// cross-node TransferNode bytes accumulate into halo[src][dst]. The
// returned counters split transfers into local and remote; haloBytes is
// the remote payload total. This is the unit of work ShardTrace applies
// to every iteration at once and the rebalancing runtime applies one
// iteration at a time, between migrations.
//
// It counts first and fills second, so every per-node slice is allocated
// once at exactly the size it keeps (nil when empty): the allocation count
// depends on n, not on the iteration's size.
func shardIteration(iter *trace.Iteration, n int, ownerOf func(dna.Kmer) int, halo [][]int64) (subs []trace.Iteration, localTNs, remoteTNs, haloBytes int64) {
	owner := make([]int32, len(iter.Nodes))
	counts := make([]int32, 3*n) // per node: visits, local transfers, updates
	nodeCnt, tnCnt, updCnt := counts[:n], counts[n:2*n], counts[2*n:]
	for i := range iter.Nodes {
		o := int32(ownerOf(iter.Nodes[i].Key))
		owner[i] = o
		nodeCnt[o]++
	}
	for _, tn := range iter.Transfers {
		s, d := owner[tn.SrcIdx], owner[tn.DstIdx]
		if s == d {
			localTNs++
			tnCnt[s]++
			continue
		}
		remoteTNs++
		halo[s][d] += int64(tn.TNBytes)
		haloBytes += int64(tn.TNBytes)
	}
	for _, u := range iter.Updates {
		updCnt[owner[u.DstIdx]]++
	}

	subs = make([]trace.Iteration, n)
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
	return subs, localTNs, remoteTNs, haloBytes
}

// ShardTrace splits tr across n nodes under partitioner p. With n == 1 the
// single sub-trace reproduces tr exactly (same nodes, transfers, updates
// and quantile tables), which is what pins the N=1 scale-out result to the
// single-node nmp.Simulate outcome.
func ShardTrace(tr *trace.Trace, n int, p Partitioner) *ShardedTrace {
	k1 := tr.K - 1
	st := &ShardedTrace{
		Nodes:  n,
		Traces: make([]*trace.Trace, n),
		Halo:   make([][][]int64, len(tr.Iterations)),
	}
	for i := range st.Traces {
		st.Traces[i] = &trace.Trace{K: tr.K}
	}
	ownerOf := func(key dna.Kmer) int { return p.Owner(key, k1, n) }
	for it := range tr.Iterations {
		st.Halo[it] = mat(n)
		subs, l, r, hb := shardIteration(&tr.Iterations[it], n, ownerOf, st.Halo[it])
		st.LocalTNs += l
		st.RemoteTNs += r
		st.HaloBytes += hb
		for o := 0; o < n; o++ {
			if it == 0 {
				st.Traces[o].Quantiles = subs[o].Quantiles
			}
			st.Traces[o].Iterations = append(st.Traces[o].Iterations, subs[o])
		}
	}
	return st
}

// RemoteTNFrac is the fraction of all TransferNodes that cross the
// interconnect.
func (st *ShardedTrace) RemoteTNFrac() float64 {
	return remoteTNFrac(st.LocalTNs, st.RemoteTNs)
}

// remoteTNFrac is the remote share of a local/remote transfer split.
func remoteTNFrac(local, remote int64) float64 {
	t := local + remote
	if t == 0 {
		return 0
	}
	return float64(remote) / float64(t)
}
