package scaleout

import (
	"fmt"
	"sync"

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

// shardArena is the reused backing store of one sharded iteration. carve
// splits a global iteration across n nodes into it: one backing array per
// op kind, of which each node's sub-iteration holds a clipped window, plus
// the count pass's scratch. Every slice carve returns is overwritten by the
// next carve into the same arena, so a sub-iteration lives only while its
// iteration is in flight. The runtime takes its arenas from a free list
// (arenas), which recycles memory only: every iteration is sharded afresh
// from the trace, and no shard outlives the epoch that stepped it.
type shardArena struct {
	// idx[:m] holds the owner of each of the iteration's m node visits,
	// idx[m:2m] each visit's index in its owner's window.
	idx []int32
	// counts holds the per-node op counts — visits [0, n), local transfers
	// [n, 2n), updates [2n, 3n) — then, at [3n, 6n), each window's start.
	counts    []int32
	nodes     []trace.NodeOp
	transfers []trace.TransferOp
	updates   []trace.UpdateOp
	subs      []trace.Iteration
}

// arenas recycles shard arenas across the epochs of every run in the
// process, so a run holds one only while it steps.
var arenas freeList[shardArena]

// freeList recycles scratch values across calls. Unlike a sync.Pool it
// survives garbage collections, and it keeps no more values than were
// ever taken out at once: one per concurrent run it has seen.
type freeList[T any] struct {
	mu        sync.Mutex
	free      []*T
	out, peak int
}

// get returns a free value, or a new zero one.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.out++
	l.peak = max(l.peak, l.out)
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	v := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return v
}

// put returns v, which get handed out, to the list.
func (l *freeList[T]) put(v *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.out--
	if len(l.free) < l.peak {
		l.free = append(l.free, v)
	}
}

// grow returns s with length n, reusing its backing array when it is large
// enough; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// window is s[at:at+c] clipped to its length, nil when empty.
func window[T any](s []T, at, c int32) []T {
	if c == 0 {
		return nil
	}
	return s[at : at+c : at+c]
}

// ownerFunc resolves node visit i of the iteration being sharded, whose
// key is key, to its owning node. A static partition reads the key; a
// rebalancing run reads visit i's entry of its bucket column.
type ownerFunc func(key dna.Kmer, i int) int

// count is carve's count pass, and all a replayed iteration needs: it
// resolves the owner of every node visit, adds the cross-node
// TransferNode bytes into halo (skipped when nil) and returns the traffic
// split. It leaves the owners in idx[:len(iter.Nodes)] and the per-node op
// counts in counts[:3n].
func (a *shardArena) count(iter *trace.Iteration, n int, ownerOf ownerFunc, halo [][]int64) (t traffic) {
	m := len(iter.Nodes)
	a.idx = grow(a.idx, 2*m)
	a.counts = grow(a.counts, 6*n)
	owner, counts := a.idx[:m], a.counts[:3*n]
	clear(counts)
	for i := range iter.Nodes {
		o := int32(ownerOf(iter.Nodes[i].Key, i))
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
	return t
}

// carve splits one global iteration across n nodes under ownerOf into the
// arena and returns the n per-node sub-iterations and the traffic split.
// Sub-iteration o carries the node visits, local transfers and updates of
// the keys node o owns, in trace order with indices into its own visits,
// plus the iteration's stats; cross-node TransferNode bytes accumulate
// into halo[src][dst] (when halo is non-nil). Every op slice is a window
// whose capacity is its length, nil when empty, and a warm arena carves
// without allocating.
func (a *shardArena) carve(iter *trace.Iteration, n int, ownerOf ownerFunc, halo [][]int64) ([]trace.Iteration, traffic) {
	t := a.count(iter, n, ownerOf, halo)
	m := len(iter.Nodes)
	owner, local := a.idx[:m], a.idx[m:2*m]
	// counts becomes each window's fill cursor, back at its count once the
	// window is full.
	counts, start := a.counts[:3*n], a.counts[3*n:6*n]
	for k := 0; k < 3*n; k += n {
		var at int32
		for o := k; o < k+n; o++ {
			start[o] = at
			at += counts[o]
			counts[o] = 0
		}
	}
	a.nodes = grow(a.nodes, m)
	a.transfers = grow(a.transfers, int(t.localTNs))
	a.updates = grow(a.updates, len(iter.Updates))
	for i := range iter.Nodes {
		o := owner[i]
		local[i] = counts[o]
		a.nodes[start[o]+counts[o]] = iter.Nodes[i]
		counts[o]++
	}
	for _, tn := range iter.Transfers {
		if s := owner[tn.SrcIdx]; s == owner[tn.DstIdx] {
			k := n + int(s)
			a.transfers[start[k]+counts[k]] = trace.TransferOp{
				SrcIdx: local[tn.SrcIdx], DstIdx: local[tn.DstIdx],
				TNBytes: tn.TNBytes, SuffixSide: tn.SuffixSide,
			}
			counts[k]++
		}
	}
	for _, u := range iter.Updates {
		k := 2*n + int(owner[u.DstIdx])
		a.updates[start[k]+counts[k]] = trace.UpdateOp{
			DstIdx: local[u.DstIdx], ReadBytes: u.ReadBytes, WriteBytes: u.WriteBytes,
		}
		counts[k]++
	}
	a.subs = grow(a.subs, n)
	for o := range a.subs {
		a.subs[o] = trace.Iteration{
			Nodes:     window(a.nodes, start[o], counts[o]),
			Transfers: window(a.transfers, start[n+o], counts[n+o]),
			Updates:   window(a.updates, start[2*n+o], counts[2*n+o]),
			Stats:     iter.Stats,
		}
	}
	return a.subs, t
}

// shardFeed is the shard feed the compaction runtime steps its engines
// from. Node o's engine replays traces[o], which holds one slot per trace
// iteration, each empty but the one in flight: carve points slot it of
// every live node's trace at that node's window of an arena just before
// the engines step iteration it, and release empties the slot once they
// have. An engine never reads behind its cursor, so a run — fresh or
// resumed — holds one sharded iteration at a time, never a whole
// ShardedTrace.
type shardFeed struct {
	tr      *trace.Trace
	ownerOf ownerFunc
	live    []bool
	traces  []*trace.Trace
	traffic // over the iterations fed so far
}

// newShardFeed returns a feed of n node traces of empty slots. ownerOf and
// live are read at every carve, so a runtime may re-assign ownership or
// membership between iterations.
func newShardFeed(tr *trace.Trace, n int, ownerOf ownerFunc, live []bool) shardFeed {
	f := shardFeed{tr: tr, ownerOf: ownerOf, live: live, traces: make([]*trace.Trace, n)}
	for o := range f.traces {
		f.traces[o] = &trace.Trace{K: tr.K, Iterations: make([]trace.Iteration, len(tr.Iterations))}
	}
	return f
}

// carve shards iteration it into a, adds its traffic split to the feed's
// and its cross-node bytes into halo, and fills slot it of every live
// node's trace.
func (f *shardFeed) carve(a *shardArena, it int, halo [][]int64) {
	subs, t := a.carve(&f.tr.Iterations[it], len(f.traces), f.ownerOf, halo)
	f.add(t)
	for o, sub := range subs {
		if f.live[o] {
			f.traces[o].Iterations[it] = sub
		}
	}
}

// release empties slot it of every node trace, once every engine has
// stepped past it.
func (f *shardFeed) release(it int) {
	for _, t := range f.traces {
		t.Iterations[it] = trace.Iteration{}
	}
}

// halos returns the halo matrices of iterations [from, to) from the count
// pass alone, feeding nothing: all a replayed prefix needs.
func (f *shardFeed) halos(from, to int) [][][]int64 {
	a := arenas.get()
	defer arenas.put(a)
	halos := make([][][]int64, 0, to-from)
	for it := from; it < to; it++ {
		halo := mat(len(f.traces))
		a.count(&f.tr.Iterations[it], len(f.traces), f.ownerOf, halo)
		halos = append(halos, halo)
	}
	return halos
}

// staticOwner is partitioner p's key -> node assignment over n nodes.
func staticOwner(tr *trace.Trace, n int, p Partitioner) ownerFunc {
	k1, mo := tr.K-1, p.owners(n)
	return func(key dna.Kmer, _ int) int { return mo.owner(key, k1) }
}

// ShardTrace splits tr across n nodes under partitioner p, feeding every
// iteration through the runtime's shard feed, each into an arena of its
// own, so the sub-traces stay valid. With n == 1 the single sub-trace
// reproduces tr exactly (same nodes, transfers and updates), which is
// what pins the N=1 scale-out result to the single-node nmp.Simulate
// outcome. The runtimes never build one: they hold one sharded iteration
// at a time.
func ShardTrace(tr *trace.Trace, n int, p Partitioner) *ShardedTrace {
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	f := newShardFeed(tr, n, staticOwner(tr, n, p), live)
	halo := make([][][]int64, len(tr.Iterations))
	for it := range halo {
		halo[it] = mat(n)
		f.carve(new(shardArena), it, halo[it])
	}
	return &ShardedTrace{
		Nodes: n, Traces: f.traces, Halo: halo,
		LocalTNs: f.localTNs, RemoteTNs: f.remoteTNs, HaloBytes: f.haloBytes,
	}
}

// wholeTraffic returns the traffic split of a static partition over every
// iteration of tr, the one whole-trace fact a run resumed past iteration 0
// cannot collect from the iterations it feeds. It comes from the count
// pass of each iteration and is memoized on the trace (trace.Trace.Memo)
// per node count and partitioner identity, so every resume of every run
// on tr after the first finds it ready.
func wholeTraffic(tr *trace.Trace, n int, p Partitioner) *traffic {
	key := fmt.Sprintf("scaleout.wholeTraffic n=%d p=%s", n, p.id())
	return tr.Memo(key, func() any {
		ownerOf := staticOwner(tr, n, p)
		a := arenas.get()
		defer arenas.put(a)
		t := new(traffic)
		for it := range tr.Iterations {
			t.add(a.count(&tr.Iterations[it], n, ownerOf, nil))
		}
		return t
	}).(*traffic)
}
