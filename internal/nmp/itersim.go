package nmp

import (
	"sync"

	"nmppak/internal/dna"
	"nmppak/internal/dram"
	"nmppak/internal/sim"
	"nmppak/internal/trace"
)

// nodeLoc is a MacroNode's placement in its home DIMM for one iteration:
// consecutive 64 B blocks in one bank starting at (row, blk), never
// straddling a row unless the node exceeds the row size. This realizes the
// paper's layout assumption that MacroNodes sit inside the 8 KB row buffer.
// The fields are int32, 20 bytes a node: a row index passes 2^31 only past
// 16 TB of MacroNodes in one bank.
type nodeLoc struct {
	rank, bank, row, blk, blocks int32
}

// allocator packs nodes into a DIMM's rows, rotating across banks so
// consecutive nodes enjoy bank-level parallelism. A cursor steps through
// the banks in rank-major order, so placing a node takes no division
// unless it spans several rows. The zero allocator is empty: packing
// starts from row 0 of every bank.
type allocator struct {
	// The next node's bank; next = rank*dram.BanksPerRank + bank.
	rank, bank, next int32
	rows             [dram.Ranks * dram.BanksPerRank]bankRow // [next]
}

// rowBlocks is the number of 64 B blocks in a DRAM row.
const rowBlocks = dram.RowBytes / dram.BlockBytes

// A DIMM's bank and row geometry in the allocator's int32.
const (
	allocRanks     = int32(dram.Ranks)
	allocBanks     = int32(dram.BanksPerRank)
	allocRowBlocks = int32(rowBlocks)
)

// bankRow is a bank's current row and the blocks used in it.
type bankRow struct{ row, fill int32 }

// alloc places a node of the given blocks at loc.
func (a *allocator) alloc(blocks int32, loc *nodeLoc) {
	*loc = nodeLoc{rank: a.rank, bank: a.bank, blocks: blocks}
	b := &a.rows[a.next]
	a.next++
	if a.bank++; a.bank == allocBanks {
		a.bank = 0
		if a.rank++; a.rank == allocRanks {
			a.rank, a.next = 0, 0
		}
	}
	if blocks > allocRowBlocks {
		// Oversized node: occupies whole consecutive rows of one bank.
		loc.row = b.row
		b.row += (blocks + allocRowBlocks - 1) / allocRowBlocks
		b.fill = 0
		return
	}
	if b.fill+blocks > allocRowBlocks {
		b.row++
		b.fill = 0
	}
	loc.row, loc.blk = b.row, b.fill
	b.fill += blocks
}

// access reads or writes `blocks` blocks of a node starting at its
// location, splitting across rows for oversized nodes.
func (is *iterSim) access(ch *dram.Channel, earliest sim.Cycle, loc nodeLoc, blocks int, write bool) sim.Cycle {
	if blocks <= 0 {
		return earliest
	}
	t := earliest
	row, blk := int(loc.row), int(loc.blk)
	for blocks > 0 {
		n := min(rowBlocks-blk, blocks)
		t = ch.AccessRow(t, int(loc.rank), int(loc.bank), row, n, write)
		blocks -= n
		row++
		blk = 0
	}
	return t
}

const cpuHome = -1 // nodePE value for CPU-offloaded nodes

// simShape is every Config field an iterSim's fixed-size state depends on.
// A pooled iterSim is reused only by an iteration of the same shape.
type simShape struct {
	pes, p3Depth int
}

func shapeOf(cfg *Config) simShape {
	return simShape{pes: cfg.PEsPerChannel, p3Depth: cfg.P3QueueDepth}
}

// iterSimPool recycles iteration scratch across StepIteration calls and
// across engines. Engines deliberately own none: a fleet or a 64-node run
// keeps many engines alive at once, and scratch held by each, sized to its
// largest iteration, would all stay resident.
var iterSimPool sync.Pool

// iterSim is the per-iteration simulation state. Its buffers and event
// callbacks are built once per value and reset in place for each
// iteration, so a warm step allocates nothing.
type iterSim struct {
	shape simShape

	// Bound by reset for one iteration, cleared by release.
	eng  *sim.Engine
	chs  *[dram.Channels]dram.Channel
	cfg  *Config
	iter *trace.Iteration
	res  *Result

	startAt sim.Cycle

	nodes  []node
	pes    []pe // [dimm*PEsPerChannel + pe]
	allocs [dram.Channels]allocator
	nextPE [dram.Channels]int // [dimm]: the PE the DIMM's next NMP node goes to

	// The DIMM range table reset places the iteration's nodes by.
	quantiles []dna.Kmer

	// The PEs' Stage P1 queues, PE after PE: pes[k] loads
	// queue[pes[k].qpos:pes[k].qend] in order. used lists, ascending, the
	// PEs whose queue is not empty; peFill counts and then places each
	// PE's nodes.
	queue  []p1Job
	used   []int32
	peFill []int32

	// Transfers grouped by source node: iter.Transfers[tnOrder[k]] for k
	// in [tnStart[i], tnStart[i+1]) are node i's, in trace order.
	tnStart []int32
	tnOrder []int32
	deliver []func() // deliver[j] lands iter.Transfers[j]

	xbarFree  []sim.Cycle // [dimm*PEsPerChannel + pe] output-port free time
	bridgeOut [dram.Channels]sim.Cycle
	bridgeIn  [dram.Channels]sim.Cycle

	cpuQueue []cpuJob // positions are stable within an iteration
	cpuHead  int
	cpuSteps []cpuSteps // cpuSteps[k] continues cpuQueue[k]
	cpuIdle  int
	cpuNodes []int
	nmpNodes int
	lastNMP  sim.Cycle
	lastCPU  sim.Cycle

	onBegin, onCPURun func()
}

// node is a MacroNode's state for one iteration: its placement, home and
// Stage P3 update, in one 64-byte struct, so that routing a TransferNode
// to it or updating it touches one cache line.
type node struct {
	loc               nodeLoc
	dimm              int32
	homePE            int32 // PE index within the DIMM, or cpuHome
	expected, arrived int32 // TransferNodes routed to the node, and landed
	op                trace.UpdateOp
	hasOp             bool
	tnBytes           int64
}

// p1Job is one node's Stage P1 work, gathered by reset in one sequential
// pass over the trace, so that a PE streams through its queue without
// touching the node arrays.
type p1Job struct {
	loc         nodeLoc
	node        int32
	d1Blocks    int32
	exts        int32
	invalidated bool
}

// pe is one processing element. The fields every Stage P1 event reads or
// writes come first, in 56 bytes; the Stage P2 and P3 state after them is
// touched once per invalidated or updated node.
type pe struct {
	ch           *dram.Channel // the PE's channel, bound by begin
	p1CompFree   sim.Cycle
	onLoad, onP1 func()
	qpos, qend   int32 // the nodes still to load: iterSim.queue[qpos:qend]
	p1Next       int32 // queue position the next P1->P2 handoff scans from
	outstanding  int32 // in-flight Stage P1 loads
	dimm, idx    int32

	p2Busy  bool
	p2Node  int // the node in Stage P2 while p2Busy
	p2Queue fifo
	p3Queue fifo
	p3Busy  int // in-flight Stage P3 chains
	p3Slots []p3Slot
	p3Free  []int // indices of idle p3Slots
	scratch int64
	onP2    func()
}

// idle empties the PE's Stage P1–P3 state and frees every P3 slot.
func (p *pe) idle() {
	p.p1CompFree, p.outstanding = 0, 0
	p.p2Busy = false
	p.p2Queue.reset()
	p.p3Queue.reset()
	p.p3Busy = 0
	p.p3Free = p.p3Free[:0]
	for s := range p.p3Slots {
		p.p3Free = append(p.p3Free, s)
	}
	p.scratch = 0
}

// p3Slot carries one in-flight Stage P3 chain to its write-back.
type p3Slot struct {
	loc         nodeLoc
	wrBlocks    int
	tnBytes     int64
	onWriteBack func()
}

// fifo is a queue of node indices that reuses its backing array.
type fifo struct {
	buf  []int
	head int
}

func (q *fifo) push(i int)  { q.buf = append(q.buf, i) }
func (q *fifo) empty() bool { return q.head == len(q.buf) }
func (q *fifo) reset()      { q.buf, q.head = q.buf[:0], 0 }

func (q *fifo) pop() int {
	i := q.buf[q.head]
	q.head++
	if q.empty() {
		q.reset()
	}
	return i
}

type cpuJob struct {
	node        int
	read, write int // bytes
	compute     sim.Cycle
	extract     bool // invalidated node: emits its TransferNodes at completion
}

type cpuSteps struct{ onRead, onWrite func() }

// resize returns s with length n, reusing its backing array when it is
// large enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// acquireIterSim takes a pooled iterSim of cfg's shape, building a new one
// when the pool has none.
func acquireIterSim(cfg *Config) *iterSim {
	shape := shapeOf(cfg)
	if is, ok := iterSimPool.Get().(*iterSim); ok && is.shape == shape {
		return is
	}
	return newIterSim(shape)
}

// release drops the iteration's references and returns is to the pool.
func (is *iterSim) release() {
	is.eng, is.chs, is.cfg, is.iter, is.res = nil, nil, nil, nil, nil
	for _, k := range is.used {
		is.pes[k].ch = nil
	}
	iterSimPool.Put(is)
}

// newIterSim builds the state a shape sizes: the PEs with their event
// callbacks, fill counts and crossbar output ports.
//
// Each callback is built once and scheduled again every time, so the
// state a callback needs must be findable without capturing it:
//   - P1 load-done needs only its PE.
//   - The P1->P2 handoff takes the PE's next invalidated node in queue
//     order. A PE's P1 completion times never decrease and equal times
//     pop in scheduling order, so handoffs run in the order the PE loaded
//     their nodes.
//   - P2 completion reads p2Node: a PE runs one P2 at a time.
//   - P3 write-back owns one of P3QueueDepth slots, taken from a free list
//     while at most P3QueueDepth chains are in flight.
func newIterSim(shape simShape) *iterSim {
	is := &iterSim{shape: shape}
	is.onBegin = is.begin
	is.onCPURun = is.cpuRun
	depth := shape.p3Depth
	is.pes = make([]pe, dram.Channels*shape.pes)
	for k := range is.pes {
		p := &is.pes[k]
		p.dimm, p.idx = int32(k/shape.pes), int32(k%shape.pes)
		p.onLoad = func() {
			p.outstanding--
			is.peNext(p)
		}
		p.onP1 = func() { is.peP2(p, is.p1Handoff(p)) }
		p.onP2 = func() {
			is.routeTNs(p, p.p2Node)
			p.p2Busy = false
			is.pumpP2(p)
		}
		p.p3Slots = make([]p3Slot, depth)
		p.p3Free = make([]int, 0, depth)
		for s := range p.p3Slots {
			p.p3Slots[s].onWriteBack = func() { is.p3WriteBack(p, s) }
		}
		p.idle()
	}
	is.peFill = make([]int32, len(is.pes))
	is.xbarFree = make([]sim.Cycle, dram.Channels*shape.pes)
	return is
}

// reset binds is to one iteration of tr starting at start and lays it
// out: DIMM placement, PE assignment, transfer grouping and update
// targets. It idles only the PEs the previous iteration used; the rest
// have been idle since. Placement builds the DIMM range table from the
// iteration's nodes (iteration 0's under StaticMapping), then makes one
// pass over the nodes with no search or division: the DIMM by a merge
// walk of the ascending keys against the table's edges (trace.DIMMWalk),
// the blocks by the DIMM allocator's bank cursor, the PE round robin
// within the DIMM. A counting sort then lays out each PE's Stage P1
// queue.
func (is *iterSim) reset(eng *sim.Engine, chs *[dram.Channels]dram.Channel, cfg *Config, tr *trace.Trace, iter *trace.Iteration, start sim.Cycle, res *Result) {
	is.eng, is.chs, is.cfg, is.iter, is.res = eng, chs, cfg, iter, res
	is.startAt = start
	is.cpuQueue, is.cpuHead = is.cpuQueue[:0], 0
	is.cpuIdle = cpuThreads
	is.cpuNodes = is.cpuNodes[:0]
	is.lastNMP, is.lastCPU = start, start
	// Only the PEs the previous iteration used have left any state.
	for _, k := range is.used {
		is.pes[k].idle()
	}
	clear(is.allocs[:])
	clear(is.nextPE[:])
	clear(is.peFill)
	clear(is.xbarFree)
	clear(is.bridgeOut[:])
	clear(is.bridgeIn[:])

	// Layout + PE assignment.
	n := len(iter.Nodes)
	is.nodes = resize(is.nodes, n)
	mapped := iter.Nodes
	if cfg.StaticMapping {
		mapped = tr.Iterations[0].Nodes
	}
	is.quantiles = trace.AppendQuantiles(is.quantiles[:0], mapped)
	dimms := trace.NewDIMMWalk(is.quantiles, dram.Channels)
	for i := range iter.Nodes {
		nd := &iter.Nodes[i]
		d := dimms.Of(nd.Key)
		st := &is.nodes[i]
		*st = node{}
		st.dimm = int32(d)
		size := int(nd.D1 + nd.D2)
		is.allocs[d].alloc(int32(dram.BlocksFor(size)), &st.loc)
		if cfg.HybridThresholdBytes > 0 && size > cfg.HybridThresholdBytes {
			st.homePE = cpuHome
			is.cpuNodes = append(is.cpuNodes, i)
			res.NodesCPU++
			continue
		}
		peIdx := is.nextPE[d]
		if is.nextPE[d]++; is.nextPE[d] == is.shape.pes {
			is.nextPE[d] = 0
		}
		st.homePE = int32(peIdx)
		is.peFill[d*is.shape.pes+peIdx]++
	}
	is.nmpNodes = n - len(is.cpuNodes)
	res.NodesNMP += int64(is.nmpNodes)

	// The P1 queues, by counting sort: each PE's nodes in node order.
	is.used = is.used[:0]
	pos := int32(0)
	for k, c := range is.peFill {
		if c > 0 {
			p := &is.pes[k]
			p.qpos, p.p1Next = pos, pos
			is.used = append(is.used, int32(k))
		}
		is.peFill[k] = pos
		pos += c
	}
	is.queue = resize(is.queue, int(pos))
	for i := range is.nodes {
		if st := &is.nodes[i]; st.homePE != cpuHome {
			k := int(st.dimm)*is.shape.pes + int(st.homePE)
			nd := &iter.Nodes[i]
			job := &is.queue[is.peFill[k]]
			job.loc, job.node, job.d1Blocks = st.loc, int32(i), int32(dram.BlocksFor(int(nd.D1)))
			job.exts, job.invalidated = nd.Exts, nd.Invalidated
			is.peFill[k]++
		}
	}
	for _, k := range is.used {
		is.pes[k].qend = is.peFill[k]
	}

	// Transfers grouped by source (count, prefix-sum, fill; stable within
	// a source) and update targets.
	is.tnStart = resize(is.tnStart, n+1)
	clear(is.tnStart)
	for _, tn := range iter.Transfers {
		is.tnStart[tn.SrcIdx+1]++
		is.nodes[tn.DstIdx].expected++
	}
	for i := 1; i <= n; i++ {
		is.tnStart[i] += is.tnStart[i-1]
	}
	is.tnOrder = resize(is.tnOrder, len(iter.Transfers))
	for j, tn := range iter.Transfers {
		is.tnOrder[is.tnStart[tn.SrcIdx]] = int32(j)
		is.tnStart[tn.SrcIdx]++
	}
	copy(is.tnStart[1:], is.tnStart[:n])
	is.tnStart[0] = 0
	for j := len(is.deliver); j < len(iter.Transfers); j++ {
		is.deliver = append(is.deliver, func() {
			tn := &is.iter.Transfers[j]
			is.deliverTN(int(tn.DstIdx), int(tn.TNBytes))
		})
	}
	for _, u := range iter.Updates {
		st := &is.nodes[u.DstIdx]
		st.op, st.hasOp = u, true
	}
}

func (is *iterSim) pe(dimm, idx int) *pe { return &is.pes[dimm*is.shape.pes+idx] }

// kickoff schedules the iteration's opening event at its start time.
func (is *iterSim) kickoff() { is.eng.At(is.startAt, is.onBegin) }

// begin starts the Stage P1 of every PE with nodes, the CPU-offloaded
// scans and the updates that wait for no TransferNodes.
func (is *iterSim) begin() {
	for _, k := range is.used {
		p := &is.pes[k]
		p.ch = &is.chs[p.dimm]
		is.peNext(p)
	}
	// CPU-offloaded scans.
	for _, i := range is.cpuNodes {
		n := &is.iter.Nodes[i]
		job := cpuJob{
			node:    i,
			read:    int(n.D1 + n.D2),
			compute: cpuNodeBaseCycles + sim.Cycle(cpuCyclesPerByte*float64(n.D1+n.D2)),
			extract: n.Invalidated,
		}
		is.cpuSubmit(job)
	}
	// Updates that expect no routed TransferNodes start immediately.
	for i := range is.nodes {
		if st := &is.nodes[i]; st.hasOp && st.expected == 0 {
			is.startUpdate(int32(i))
		}
	}
}

func (is *iterSim) p1Cycles(exts int32) sim.Cycle {
	if is.cfg.IdealPE {
		return 1
	}
	return p1Base + p1PerExt*sim.Cycle(exts)
}

func (is *iterSim) p2Cycles(n *trace.NodeOp) sim.Cycle {
	if is.cfg.IdealPE {
		return 1
	}
	return p2Base + p2PerWire*sim.Cycle(n.Wires)
}

func (is *iterSim) p3Cycles(tns int) sim.Cycle {
	if is.cfg.IdealPE {
		return 1
	}
	return p3Base + p3PerTN*sim.Cycle(tns)
}

// peNext pumps the PE's Stage P1: up to PELoadQueueDepth MacroNode loads
// in flight ("Buffer for next MNs" in Fig. 10), with the invalidation-check
// ALU running behind the load stream.
func (is *iterSim) peNext(p *pe) {
	depth := int32(is.cfg.PELoadQueueDepth)
	for p.outstanding < depth && p.qpos < p.qend {
		job := &is.queue[p.qpos]
		p.qpos++
		p.outstanding++
		loadDone := is.access(p.ch, is.eng.Now(), job.loc, int(job.d1Blocks), false)
		compDone := max(loadDone, p.p1CompFree) + is.p1Cycles(job.exts)
		p.p1CompFree = compDone
		is.noteNMP(compDone)
		is.eng.At(loadDone, p.onLoad)
		if job.invalidated {
			is.eng.At(compDone, p.onP1)
		}
	}
}

// p1Handoff returns the PE's next invalidated node in queue order, the one
// whose P1 check completes now, and moves past it.
func (is *iterSim) p1Handoff(p *pe) int {
	for {
		job := &is.queue[p.p1Next]
		p.p1Next++
		if job.invalidated {
			return int(job.node)
		}
	}
}

// peP2 enqueues TransferNode extraction for an invalidated node; the P2
// unit serves one node at a time: load the wiring (data2), compute the
// outgoing TransferNodes, route them. DRAM state is only touched at the
// current simulation time so bank bookings stay causally ordered.
func (is *iterSim) peP2(p *pe, i int) {
	p.p2Queue.push(i)
	is.pumpP2(p)
}

func (is *iterSim) pumpP2(p *pe) {
	if p.p2Busy || p.p2Queue.empty() {
		return
	}
	p.p2Busy = true
	i := p.p2Queue.pop()
	p.p2Node = i
	n := &is.iter.Nodes[i]
	ch := p.ch
	total := dram.BlocksFor(int(n.D1 + n.D2))
	d2Blocks := total - dram.BlocksFor(int(n.D1))
	loc := is.nodes[i].loc
	loc.blk += int32(dram.BlocksFor(int(n.D1)))
	d2Done := is.access(ch, is.eng.Now(), loc, d2Blocks, false)
	p2Done := d2Done + is.p2Cycles(n)
	is.noteNMP(p2Done)
	is.eng.At(p2Done, p.onP2)
}

// routeTNs sends node i's TransferNodes to their destinations through the
// local scratchpad, the crossbar, or the network bridge (Fig. 9/10 Stage
// P3 routing).
func (is *iterSim) routeTNs(p *pe, i int) {
	now := is.eng.Now()
	srcDimm, srcPE := int(p.dimm), int(p.idx)
	for _, j := range is.tnOrder[is.tnStart[i]:is.tnStart[i+1]] {
		tn := &is.iter.Transfers[j]
		dst := int(tn.DstIdx)
		dstDimm := int(is.nodes[dst].dimm)
		dstPE := int(is.nodes[dst].homePE)
		bytes := int(tn.TNBytes)
		var arrival sim.Cycle
		switch {
		case dstPE == cpuHome:
			// Offloaded destination: the TransferNode is handed to the
			// host through the channel interface.
			arrival = now + cpuExtraLatency
			is.res.TNInterDIMM++ // leaves the DIMM either way
		case dstDimm == srcDimm && dstPE == srcPE:
			arrival = now + 1
			is.res.TNSamePE++
		case dstDimm == srcDimm:
			port := &is.xbarFree[dstDimm*is.shape.pes+dstPE]
			slot := max(now, *port)
			dur := sim.Cycle(float64(bytes)/crossbarBytesPerCy) + 1
			*port = slot + dur
			arrival = slot + dur + crossbarLatency
			is.res.TNIntraDIMM++
		default:
			out := &is.bridgeOut[srcDimm]
			slot := max(now, *out)
			dur := sim.Cycle(float64(bytes)/is.cfg.BridgeBytesPerCy) + 1
			*out = slot + dur
			in := &is.bridgeIn[dstDimm]
			slot2 := max(slot+dur+bridgeLatency, *in)
			*in = slot2 + dur
			arrival = slot2 + dur + crossbarLatency
			is.res.TNInterDIMM++
		}
		is.noteNMP(arrival)
		is.eng.At(arrival, is.deliver[j])
	}
}

// deliverTN lands one TransferNode in the destination's scratchpad (or CPU
// mailbox); once all TransferNodes for a destination have arrived, its
// Stage P3 update is eligible.
func (is *iterSim) deliverTN(dst, bytes int) {
	st := &is.nodes[dst]
	st.arrived++
	st.tnBytes += int64(bytes)
	if st.homePE != cpuHome {
		p := is.pe(int(st.dimm), int(st.homePE))
		p.scratch += int64(bytes)
		if p.scratch > is.res.ScratchPeakBytes {
			is.res.ScratchPeakBytes = p.scratch
		}
		if p.scratch > tnScratchBytes {
			is.res.ScratchOverflows++
		}
	}
	if st.arrived == st.expected && st.hasOp {
		is.startUpdate(int32(dst))
	}
}

// startUpdate dispatches a destination update to its home PE's Stage P3 or
// to the CPU pool for offloaded nodes.
func (is *iterSim) startUpdate(dst int32) {
	d := int(dst)
	st := &is.nodes[d]
	if st.homePE == cpuHome {
		op := &st.op
		is.cpuSubmit(cpuJob{
			node:    d,
			read:    int(op.ReadBytes),
			write:   int(op.WriteBytes),
			compute: cpuNodeBaseCycles + sim.Cycle(cpuCyclesPerByte*float64(op.ReadBytes+op.WriteBytes)),
		})
		return
	}
	p := is.pe(int(st.dimm), int(st.homePE))
	p.p3Queue.push(d)
	is.pumpP3(p)
}

// pumpP3 runs the PE's Stage P3 server: read the destination node, apply
// the TransferNodes, write the node back; up to P3QueueDepth destination
// chains overlap.
func (is *iterSim) pumpP3(p *pe) {
	depth := is.cfg.P3QueueDepth
	for p.p3Busy < depth && !p.p3Queue.empty() {
		p.p3Busy++
		d := p.p3Queue.pop()
		st := &is.nodes[d]
		ch := p.ch
		readBytes := float64(st.op.ReadBytes) * (1 - is.cfg.ForwardingHitRate)
		rd := is.access(ch, is.eng.Now(), st.loc, dram.BlocksFor(int(readBytes)), false)
		comp := rd + is.p3Cycles(int(st.expected))
		s := p.p3Free[len(p.p3Free)-1]
		p.p3Free = p.p3Free[:len(p.p3Free)-1]
		slot := &p.p3Slots[s]
		slot.loc = st.loc
		slot.wrBlocks = dram.BlocksFor(int(st.op.WriteBytes))
		slot.tnBytes = st.tnBytes
		is.eng.At(comp, slot.onWriteBack)
	}
}

// p3WriteBack ends the P3 chain in slot s. The write-back is posted: it
// reserves bank and bus time (at the moment it is issued) but the PE does
// not stall on it.
func (is *iterSim) p3WriteBack(p *pe, s int) {
	slot := &p.p3Slots[s]
	wr := is.access(p.ch, is.eng.Now(), slot.loc, slot.wrBlocks, true)
	is.noteNMP(wr)
	p.scratch -= slot.tnBytes
	p.p3Busy--
	p.p3Free = append(p.p3Free, s)
	is.pumpP3(p)
}

// cpuSubmit queues work for the host CPU thread pool (§4.3 hybrid
// processing).
func (is *iterSim) cpuSubmit(job cpuJob) {
	is.cpuQueue = append(is.cpuQueue, job)
	for k := len(is.cpuSteps); k < len(is.cpuQueue); k++ {
		is.cpuSteps = append(is.cpuSteps, cpuSteps{
			onRead:  func() { is.cpuWrite(k) },
			onWrite: func() { is.cpuFinish(k) },
		})
	}
	if is.cpuIdle > 0 {
		is.cpuIdle--
		is.eng.At(is.eng.Now(), is.onCPURun)
	}
}

// cpuRun services one CPU job at a time per logical thread.
func (is *iterSim) cpuRun() {
	if is.cpuHead == len(is.cpuQueue) {
		is.cpuIdle++
		return
	}
	k := is.cpuHead
	is.cpuHead++
	job := &is.cpuQueue[k]
	st := &is.nodes[job.node]
	t := is.access(&is.chs[st.dimm], is.eng.Now(), st.loc, dram.BlocksFor(job.read), false)
	t += cpuExtraLatency + job.compute
	is.eng.At(t, is.cpuSteps[k].onRead)
}

// cpuWrite writes back CPU job k's node, if it has output.
func (is *iterSim) cpuWrite(k int) {
	job := &is.cpuQueue[k]
	done := is.eng.Now()
	if job.write > 0 {
		st := &is.nodes[job.node]
		done = is.access(&is.chs[st.dimm], done, st.loc, dram.BlocksFor(job.write), true) + cpuExtraLatency
	}
	is.noteCPU(done)
	is.eng.At(done, is.cpuSteps[k].onWrite)
}

// cpuFinish completes CPU job k and frees its thread for the next job.
func (is *iterSim) cpuFinish(k int) {
	if job := &is.cpuQueue[k]; job.extract {
		is.cpuExtract(job.node)
	}
	is.cpuRun()
}

// cpuExtract emits an offloaded invalidated node's TransferNodes; they
// reach NMP-resident destinations through the channel interface without
// crossbar contention.
func (is *iterSim) cpuExtract(i int) {
	now := is.eng.Now()
	for _, j := range is.tnOrder[is.tnStart[i]:is.tnStart[i+1]] {
		arrival := now + cpuExtraLatency
		is.noteCPU(arrival)
		is.eng.At(arrival, is.deliver[j])
	}
}

func (is *iterSim) noteNMP(t sim.Cycle) {
	if t > is.lastNMP {
		is.lastNMP = t
	}
}

func (is *iterSim) noteCPU(t sim.Cycle) {
	if t > is.lastCPU {
		is.lastCPU = t
	}
}
