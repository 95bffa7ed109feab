// Package compact implements PaKman's Iterative Compaction (Fig. 2D and
// Fig. 4 of the paper), the stage NMP-PaK accelerates.
//
// Each iteration performs three conceptual stages, mirroring the paper's PE
// pipeline (Fig. 10):
//
//	P1 (invalidation check)      — a node is invalidated when its (k-1)-mer
//	                               is strictly the lexicographically largest
//	                               among all its neighbors' keys.
//	P2 (TransferNode extraction) — each wire (prefix p, suffix s, count c)
//	                               of an invalidated node v becomes up to two
//	                               TransferNodes: one rewrites the
//	                               predecessor's suffix extension, one the
//	                               successor's prefix extension, so the
//	                               neighbors connect directly and v can be
//	                               deleted without losing sequence.
//	P3 (routing and update)      — TransferNodes are applied to their
//	                               destination MacroNodes.
//
// Two engine flows are provided with identical graph semantics but
// different memory-traffic profiles (the distinction behind Fig. 14):
// FlowSequential models the original stage-by-stage algorithm (every stage
// sweeps all MacroNodes and the intermediate TransferNodes are materialized
// in memory), while FlowPipelined models the refined node-granular flow of
// §4.5 (data read in P1 is reused by P2/P3; TransferNodes stay on chip).
//
// Because every invalidated node is strictly larger than all of its
// neighbors, no two adjacent nodes are ever invalidated in the same
// iteration; all updates of an iteration are computed against the
// iteration-start state and are commutative, which is exactly what lets the
// paper's hardware process MacroNodes in a pipelined systolic fashion.
package compact

import (
	"fmt"

	"nmppak/internal/dna"
	"nmppak/internal/pakgraph"
	"nmppak/internal/par"
)

// Flow selects the memory/process-flow model; graph results are identical.
type Flow int

const (
	// FlowPipelined is the refined node-granular flow (§4.5) used by
	// CPU-PaK and NMP-PaK.
	FlowPipelined Flow = iota
	// FlowSequential is the original stage-sequential flow (the paper's
	// CPU baseline).
	FlowSequential
)

// Validate rejects a value that names neither flow.
func (f Flow) Validate() error {
	if f != FlowPipelined && f != FlowSequential {
		return fmt.Errorf("unknown process flow %d", int(f))
	}
	return nil
}

// Options configures a compaction run.
type Options struct {
	Workers int
	// Threshold stops compaction once the live node count drops below it
	// (the paper iterates "until # MN < threshold (100,000)"); <=0 means
	// compact until no node is invalidatable.
	Threshold int
	// MaxIters bounds the iteration count as a safety net; <=0 means
	// unbounded.
	MaxIters int
	Flow     Flow
	// Observer receives per-node events for trace generation; may be nil.
	Observer Observer
}

// IterStats summarizes one compaction iteration.
type IterStats struct {
	Iter        int
	LiveNodes   int
	Invalidated int
	Transfers   int   // TransferNodes routed (target-side updates)
	Contigs     int   // both-terminal wires emitted as finished contigs
	ReadBytes   int64 // flow-dependent memory reads
	WriteBytes  int64 // flow-dependent memory writes
	TNBytes     int64 // total TransferNode payload routed
	DroppedTN   int   // updates whose match extension was missing
}

// Observer receives the per-node event stream of a compaction run. All
// callbacks for one iteration happen between BeginIteration and
// EndIteration; ScanNode is called once per live node in ascending key
// order; Transfer/UpdateNode are called in deterministic order. Implemented
// by trace.Builder.
type Observer interface {
	BeginIteration(iter, liveNodes int)
	// ScanNode reports the P1 visit of one node: its key, the data1/data2
	// sizes, extension count, wire count, and the invalidation decision.
	ScanNode(key dna.Kmer, d1, d2, exts, wires int, invalidated bool)
	// Transfer reports one TransferNode routed from src to dst.
	Transfer(src, dst dna.Kmer, tnBytes int, suffixSide bool)
	// UpdateNode reports the P3 update of a destination node with the
	// bytes read (old node) and written (new node).
	UpdateNode(key dna.Kmer, readBytes, writeBytes int)
	EndIteration(IterStats)
}

// Result of a compaction run.
type Result struct {
	Iterations int
	Stats      []IterStats
	// Completed holds contigs finished during compaction (wires whose both
	// sides were terminal when their node was invalidated).
	Completed []dna.Seq
}

// Update is one TransferNode application: replace the extension of Target
// that equals Match (on the given side) with NewSeq/NewTerminal/Count.
// Fig. 4(c)-(d) of the paper shows exactly this operation.
type Update struct {
	Target      dna.Kmer
	SuffixSide  bool
	Match       dna.Seq
	NewSeq      dna.Seq
	NewTerminal bool
	Count       uint32 // structural multiplicity (wire count)
	Weight      uint32 // coverage weight carried into the new extension
}

// TNBytes models the serialized TransferNode size: destination key, the
// match extension, the replacement extension, count and flags.
func (u *Update) TNBytes() int {
	return 8 + u.Match.PackedBytes() + u.NewSeq.PackedBytes() + 6
}

// Run compacts g in place until Options.Threshold/MaxIters or a fixed
// point, returning per-iteration statistics and any finished contigs.
func Run(g *pakgraph.Graph, opt Options) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("compact: nil graph")
	}
	if g.K < 2 || g.K > dna.MaxK {
		return nil, fmt.Errorf("compact: invalid graph k=%d, want [2,%d]", g.K, dna.MaxK)
	}
	if err := opt.Flow.Validate(); err != nil {
		return nil, fmt.Errorf("compact: %w", err)
	}
	// Every sweep runs over g.Nodes in its ascending key order, and update
	// targets are found in it by binary search.
	if err := g.CheckOrder(); err != nil {
		return nil, fmt.Errorf("compact: %w", err)
	}
	res := &Result{}
	// A node's P1 decision and data1/data2 sizes depend only on its own
	// extensions, and the only nodes an iteration mutates are the update
	// targets — so both are cached across iterations and recomputed just
	// for the nodes the previous iteration touched.
	n := g.Len()
	states := make([]nodeState, n)
	sc := &scratch{
		outs:   make([]nodeOut, n),
		chunks: make([]chunk, par.Threads(opt.Workers)),
		slotOf: make([]int32, n),
	}
	for iter := 0; ; iter++ {
		if opt.MaxIters > 0 && iter >= opt.MaxIters {
			break
		}
		if opt.Threshold > 0 && g.Len() < opt.Threshold {
			break
		}
		var st IterStats
		st, states = runIteration(g, states, iter, opt, res, sc)
		res.Stats = append(res.Stats, st)
		res.Iterations++
		if st.Invalidated == 0 {
			break
		}
	}
	return res, nil
}

// nodeState carries one live node's cached P1 decision and serialized
// sizes between iterations; the zero value means "unknown, recompute".
type nodeState struct {
	status int8  // 0 unknown, 1 invalidation target, 2 survivor
	d1, d2 int32 // Data1Bytes/Data2Bytes, valid when status != 0
}

// runIteration executes one iteration: parallel invalidation check over the
// iteration-start state, extraction, grouped update application, then
// deletion of invalidated nodes. states must be parallel to g.Nodes; the
// survivors' states are returned (filtered in place like g.Nodes, update
// targets reset to unknown). sc is the Run's scratch.
func runIteration(g *pakgraph.Graph, states []nodeState, iter int, opt Options, res *Result, sc *scratch) (IterStats, []nodeState) {
	k1 := g.K1()
	nodes := g.Nodes
	n := len(nodes)
	st := IterStats{Iter: iter, LiveNodes: n}
	if opt.Observer != nil {
		opt.Observer.BeginIteration(iter, n)
	}

	// Phase A+B fused, one block of consecutive keys per chunk: decide
	// invalidation (cached unless the node was updated last iteration),
	// size the chunk's update buffer (a wire yields at most two updates),
	// then extract into it and name each update's target by its index in
	// g.Nodes.
	outs := sc.outs[:n]
	nch := len(sc.chunks)
	par.For(nch, opt.Workers, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := c*n/nch, (c+1)*n/nch
			need := 0
			for i := lo; i < hi; i++ {
				nd := &nodes[i]
				if states[i].status == 0 {
					states[i].status = 2
					if nd.IsInvalidationTarget(k1) {
						states[i].status = 1
					}
					states[i].d1 = int32(nd.Data1Bytes())
					states[i].d2 = int32(nd.Data2Bytes())
				}
				outs[i] = nodeOut{invalidated: states[i].status == 1}
				if outs[i].invalidated {
					need += 2 * len(nd.Wires)
				}
			}
			ch := &sc.chunks[c]
			if cap(ch.updates) < need {
				ch.updates = make([]Update, 0, need)
				ch.slot = make([]int32, 0, need)
			}
			ups, cons := ch.updates[:0], ch.contigs[:0]
			for i := lo; i < hi; i++ {
				if !outs[i].invalidated {
					continue
				}
				from := len(ups)
				ups, cons = Extract(ups, cons, &nodes[i], k1)
				outs[i].chunk, outs[i].lo, outs[i].hi = int32(c), int32(from), int32(len(ups))
			}
			slot := ch.slot[:len(ups)]
			for u := range ups {
				slot[u] = int32(g.Index(ups[u].Target))
			}
			ch.updates, ch.slot, ch.contigs = ups, slot, cons
		}
	})

	// Deterministic observer pass + accounting, in ascending key order.
	// sumD1/sumD12 aggregate the P1 ("MN data1") and full-node footprints
	// of all live nodes, the quantities the two flows' traffic models are
	// built from.
	var sumD1, sumD12, sumInvD2 int64
	for i := range nodes {
		nd := &nodes[i]
		key := nd.Key
		d1, d2 := int(states[i].d1), int(states[i].d2)
		sumD1 += int64(d1)
		sumD12 += int64(d1 + d2)
		if opt.Observer != nil {
			opt.Observer.ScanNode(key, d1, d2, len(nd.Prefixes)+len(nd.Suffixes), len(nd.Wires), outs[i].invalidated)
		}
		if !outs[i].invalidated {
			continue
		}
		st.Invalidated++
		sumInvD2 += int64(d2)
		ups := sc.chunks[outs[i].chunk].updates[outs[i].lo:outs[i].hi]
		for u := range ups {
			tn := ups[u].TNBytes()
			st.TNBytes += int64(tn)
			if opt.Observer != nil {
				opt.Observer.Transfer(key, ups[u].Target, tn, ups[u].SuffixSide)
			}
		}
	}
	for c := range sc.chunks {
		ch := &sc.chunks[c]
		res.Completed = append(res.Completed, ch.contigs...)
		st.Contigs += len(ch.contigs)
		st.Transfers += len(ch.updates)
	}

	// Phase C: group updates by target and apply. Updates for distinct
	// targets are independent; within a target they are applied in the
	// deterministic order accumulated above. Grouping uses a CSR layout —
	// first-appearance target order, a count pass, then a scatter into one
	// flat buffer. An iteration has at most one target per update, so
	// the slot arrays are sized once and never grow by append.
	if cap(sc.targets) < st.Transfers {
		sc.targets = make([]target, 0, st.Transfers)
		sc.offsets = make([]int32, 0, st.Transfers+1)
	}
	sc.targets = sc.targets[:0]
	sc.offsets = append(sc.offsets[:0], 0)
	for c := range sc.chunks {
		ch := &sc.chunks[c]
		for u, j := range ch.slot {
			s := sc.slot(ch.updates[u].Target, j)
			ch.slot[u] = s
			sc.offsets[s+1]++
		}
	}
	targets, offsets := sc.targets, sc.offsets
	for s := range targets {
		offsets[s+1] += offsets[s]
	}
	cursor := append(sc.cursor[:0], offsets[:len(targets)]...)
	grouped := reuse(sc.grouped, st.Transfers)
	for c := range sc.chunks {
		ch := &sc.chunks[c]
		for u, s := range ch.slot {
			grouped[cursor[s]] = ch.updates[u]
			cursor[s]++
		}
	}
	uouts := reuse(sc.uouts, len(targets))
	par.ForIdx(len(targets), opt.Workers, func(s int) {
		ups := grouped[offsets[s]:offsets[s+1]]
		j := targets[s].node
		if j < 0 {
			uouts[s] = updOut{dropped: len(ups)}
			return
		}
		nd := &nodes[j]
		uouts[s].readBytes = nd.Data1Bytes() + nd.Data2Bytes()
		uouts[s].dropped = Apply(nd, ups)
		uouts[s].writeBytes = nd.Data1Bytes() + nd.Data2Bytes()
	})
	var sumTgtOld, sumTgtNew int64
	for s, t := range targets {
		st.DroppedTN += uouts[s].dropped
		sumTgtOld += int64(uouts[s].readBytes)
		sumTgtNew += int64(uouts[s].writeBytes)
		if opt.Observer != nil {
			opt.Observer.UpdateNode(t.key, uouts[s].readBytes, uouts[s].writeBytes)
		}
		// Applied targets were mutated: drop their cached state so the
		// next iteration recomputes it.
		if t.node >= 0 {
			sc.slotOf[t.node] = 0
			states[t.node] = nodeState{}
		}
	}
	clear(sc.missing)
	// Drop the buffers' references to this iteration's sequences, so the
	// arenas of consumed extensions can be collected.
	clear(grouped)
	for c := range sc.chunks {
		clear(sc.chunks[c].updates)
	}
	sc.cursor, sc.grouped, sc.uouts = cursor, grouped, uouts

	// Delete invalidated nodes (the optimized algorithm defers physical
	// deletion; semantically they are gone either way) by filtering the
	// node and state lists in place, which keeps the ascending key order.
	// The vacated tail is cleared so the deleted nodes' extension and wire
	// arrays are collectable.
	live := 0
	for i := range nodes {
		if !outs[i].invalidated {
			nodes[live] = nodes[i]
			states[live] = states[i]
			live++
		}
	}
	clear(nodes[live:])
	g.Nodes = nodes[:live]
	states = states[:live]

	// Memory-traffic model (Fig. 14):
	switch opt.Flow {
	case FlowPipelined:
		// P1 reads data1 of every live node; P2 reuses it and adds only the
		// wiring (data2) of invalidated nodes; TransferNodes travel through
		// the crossbar/scratchpads, never through memory; P3 reads and
		// rewrites only the destination nodes.
		st.ReadBytes = sumD1 + sumInvD2 + sumTgtOld
		st.WriteBytes = sumTgtNew
	case FlowSequential:
		// The original flow sweeps the full MacroNode set in each of the
		// three stages (P2 and P3 re-read what P1 already read), spills the
		// TransferNode list to memory between P2 and P3, and rewrites all
		// surviving nodes during the per-iteration reallocation/move.
		st.ReadBytes = sumD1 + 2*sumD12 + st.TNBytes
		st.WriteBytes = st.TNBytes + (sumD12 - sumTgtOld + sumTgtNew)
	}
	if opt.Observer != nil {
		opt.Observer.EndIteration(st)
	}
	return st, states
}

// scratch is the per-iteration working memory of one Run. Live nodes only
// ever shrink, so iteration 0 sizes every buffer and later iterations
// reslice it. It belongs to a single Run call: concurrent Runs share
// nothing.
type scratch struct {
	outs   []nodeOut
	chunks []chunk
	// slotOf[i] is 1 + the update slot of node i in this iteration, or 0
	// when node i is no update target; entries are reset after use.
	slotOf []int32
	// missing holds the slots of update targets absent from the graph
	// (only possible on merged noisy graphs); made on first use.
	missing map[dna.Kmer]int32
	targets []target // per slot, in first-appearance order
	offsets []int32  // CSR bounds of each slot's updates in grouped
	cursor  []int32
	grouped []Update
	uouts   []updOut
}

// nodeOut is one node's P1 decision and, when invalidated, where its
// updates sit: chunks[chunk].updates[lo:hi].
type nodeOut struct {
	invalidated bool
	chunk       int32
	lo, hi      int32
}

// chunk holds what one block of consecutive keys extracted. Blocks are
// in key order, so reading the chunks in order reads every update and
// contig in ascending source-key order.
type chunk struct {
	updates []Update
	// slot[u] is first the index of updates[u].Target in g.Nodes (-1 when
	// absent), then, once grouped, its update slot.
	slot    []int32
	contigs []dna.Seq
}

// target is one update slot's destination; node is its index in g.Nodes, or
// -1 when the key is not in the graph.
type target struct {
	key  dna.Kmer
	node int32
}

type updOut struct {
	readBytes, writeBytes int
	dropped               int
}

// reuse returns s resliced to n elements, reallocating only when n
// exceeds its capacity. Kept elements are not cleared.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// slot returns the update slot of target t (at index j of g.Nodes, or -1),
// opening a new slot on t's first appearance.
func (sc *scratch) slot(t dna.Kmer, j int32) int32 {
	if j >= 0 {
		if s := sc.slotOf[j]; s > 0 {
			return s - 1
		}
		sc.slotOf[j] = int32(len(sc.targets)) + 1
	} else {
		if s, ok := sc.missing[t]; ok {
			return s
		}
		if sc.missing == nil {
			sc.missing = make(map[dna.Kmer]int32)
		}
		sc.missing[t] = int32(len(sc.targets))
	}
	sc.targets = append(sc.targets, target{key: t, node: j})
	sc.offsets = append(sc.offsets, 0)
	return int32(len(sc.targets)) - 1
}
