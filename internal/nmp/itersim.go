package nmp

import (
	"sync"

	"nmppak/internal/dram"
	"nmppak/internal/sim"
	"nmppak/internal/trace"
)

// nodeLoc is a MacroNode's placement in its home DIMM for one iteration:
// consecutive 64 B blocks in one bank starting at (row, blk), never
// straddling a row unless the node exceeds the row size. This realizes the
// paper's layout assumption that MacroNodes sit inside the 8 KB row buffer.
type nodeLoc struct {
	rank, bank, row, blk, blocks int
}

// allocator packs nodes into a DIMM's rows, rotating across banks so
// consecutive nodes enjoy bank-level parallelism.
type allocator struct {
	ranks, banks, rowBlocks int
	nextBank                int
	fill                    []int // [rank*banks]: blocks used in current row
	rowAt                   []int // current row per bank
}

func newAllocator(cfg dram.Config) allocator {
	n := cfg.Ranks * cfg.BanksPerRank
	return allocator{
		ranks:     cfg.Ranks,
		banks:     cfg.BanksPerRank,
		rowBlocks: cfg.RowBytes / dram.BlockBytes,
		fill:      make([]int, n),
		rowAt:     make([]int, n),
	}
}

// reset empties every bank so packing starts over from row 0.
func (a *allocator) reset() {
	a.nextBank = 0
	clear(a.fill)
	clear(a.rowAt)
}

func (a *allocator) alloc(blocks int) nodeLoc {
	n := a.ranks * a.banks
	b := a.nextBank
	a.nextBank = (a.nextBank + 1) % n
	if blocks > a.rowBlocks {
		// Oversized node: occupies whole consecutive rows of one bank.
		rows := (blocks + a.rowBlocks - 1) / a.rowBlocks
		loc := nodeLoc{rank: b / a.banks, bank: b % a.banks, row: a.rowAt[b], blk: 0, blocks: blocks}
		a.rowAt[b] += rows
		a.fill[b] = 0
		return loc
	}
	if a.fill[b]+blocks > a.rowBlocks {
		a.rowAt[b]++
		a.fill[b] = 0
	}
	loc := nodeLoc{rank: b / a.banks, bank: b % a.banks, row: a.rowAt[b], blk: a.fill[b], blocks: blocks}
	a.fill[b] += blocks
	return loc
}

// access reads or writes `blocks` blocks of a node starting at its
// location, splitting across rows for oversized nodes.
func access(ch *dram.Channel, earliest sim.Cycle, loc nodeLoc, blocks int, write bool) sim.Cycle {
	if blocks <= 0 {
		return earliest
	}
	rowBlocks := ch.Config().RowBytes / dram.BlockBytes
	t := earliest
	row, blk := loc.row, loc.blk
	for blocks > 0 {
		n := rowBlocks - blk
		if n > blocks {
			n = blocks
		}
		t = ch.AccessRow(t, loc.rank, loc.bank, row, n, write)
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
	channels, pes, p3Depth int
	ranks, banks, rowBytes int
}

func shapeOf(cfg *Config) simShape {
	return simShape{
		channels: cfg.Channels, pes: cfg.PEsPerChannel, p3Depth: cfg.P3QueueDepth,
		ranks: cfg.DRAM.Ranks, banks: cfg.DRAM.BanksPerRank, rowBytes: cfg.DRAM.RowBytes,
	}
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
	chs  []*dram.Channel
	cfg  *Config
	tr   *trace.Trace
	iter *trace.Iteration
	res  *Result

	startAt sim.Cycle

	loc       []nodeLoc
	dimm      []int
	homePE    []int // PE index within DIMM, or cpuHome
	upd       []updState
	pes       []pe // [dimm*PEsPerChannel + pe]
	allocs    []allocator
	dimmCount []int

	// Transfers grouped by source node: iter.Transfers[tnOrder[k]] for k
	// in [tnStart[i], tnStart[i+1]) are node i's, in trace order.
	tnStart []int32
	tnOrder []int32
	deliver []func() // deliver[j] lands iter.Transfers[j]

	xbarFree  []sim.Cycle // [dimm*PEsPerChannel + pe] output-port free time
	bridgeOut []sim.Cycle
	bridgeIn  []sim.Cycle

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

type updState struct {
	expected, arrived int
	op                trace.UpdateOp
	hasOp             bool
	tnBytes           int64
}

type pe struct {
	dimm, idx   int
	queue       []int
	qpos        int
	outstanding int // in-flight Stage P1 loads
	p1CompFree  sim.Cycle
	p1Pending   fifo // invalidated nodes whose P1 check is scheduled, in order
	p2Queue     fifo
	p2Busy      bool
	p2Node      int // the node in Stage P2 while p2Busy
	p3Queue     fifo
	p3Busy      int // in-flight Stage P3 chains
	p3Slots     []p3Slot
	p3Free      []int // indices of idle p3Slots
	scratch     int64

	onLoad, onP1, onP2 func()
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
	return newIterSim(shape, cfg)
}

// release drops the iteration's references and returns is to the pool.
func (is *iterSim) release() {
	is.eng, is.chs, is.cfg, is.tr, is.iter, is.res = nil, nil, nil, nil, nil, nil
	iterSimPool.Put(is)
}

// newIterSim builds the fixed-size state of a shape: the PEs with their
// event callbacks, the per-channel allocators and the interconnect ports.
//
// Each callback is built once and scheduled again every time, so the
// state a callback needs must be findable without capturing it:
//   - P1 load-done needs only its PE.
//   - The P1->P2 handoff pops the PE's p1Pending FIFO. A PE's P1 completion
//     times never decrease and equal times pop in scheduling order, so
//     handoffs run in the order their nodes were pushed.
//   - P2 completion reads p2Node: a PE runs one P2 at a time.
//   - P3 write-back owns one of P3QueueDepth slots, taken from a free list
//     while at most P3QueueDepth chains are in flight.
func newIterSim(shape simShape, cfg *Config) *iterSim {
	is := &iterSim{shape: shape}
	is.onBegin = is.begin
	is.onCPURun = is.cpuRun
	depth := p3Depth(cfg)
	is.pes = make([]pe, shape.channels*shape.pes)
	for k := range is.pes {
		p := &is.pes[k]
		p.dimm, p.idx = k/shape.pes, k%shape.pes
		p.onLoad = func() {
			p.outstanding--
			is.peNext(p)
		}
		p.onP1 = func() { is.peP2(p, p.p1Pending.pop()) }
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
	}
	is.allocs = make([]allocator, shape.channels)
	for d := range is.allocs {
		is.allocs[d] = newAllocator(cfg.DRAM)
	}
	is.dimmCount = make([]int, shape.channels)
	is.xbarFree = make([]sim.Cycle, shape.channels*shape.pes)
	is.bridgeOut = make([]sim.Cycle, shape.channels)
	is.bridgeIn = make([]sim.Cycle, shape.channels)
	return is
}

// reset binds is to one iteration starting at start and lays it out:
// DIMM placement, PE assignment, transfer grouping and update targets.
func (is *iterSim) reset(eng *sim.Engine, chs []*dram.Channel, cfg *Config, tr *trace.Trace, iter *trace.Iteration, start sim.Cycle, res *Result) {
	is.eng, is.chs, is.cfg, is.tr, is.iter, is.res = eng, chs, cfg, tr, iter, res
	is.startAt = start
	is.cpuQueue, is.cpuHead = is.cpuQueue[:0], 0
	is.cpuIdle = cfg.CPUThreads
	is.cpuNodes = is.cpuNodes[:0]
	is.nmpNodes = 0
	is.lastNMP, is.lastCPU = start, start
	for k := range is.pes {
		p := &is.pes[k]
		p.queue, p.qpos = p.queue[:0], 0
		p.outstanding, p.p1CompFree = 0, 0
		p.p1Pending.reset()
		p.p2Queue.reset()
		p.p2Busy = false
		p.p3Queue.reset()
		p.p3Busy = 0
		p.p3Free = p.p3Free[:0]
		for s := range p.p3Slots {
			p.p3Free = append(p.p3Free, s)
		}
		p.scratch = 0
	}
	for d := range is.allocs {
		is.allocs[d].reset()
	}
	clear(is.dimmCount)
	clear(is.xbarFree)
	clear(is.bridgeOut)
	clear(is.bridgeIn)

	// Layout + PE assignment.
	n := len(iter.Nodes)
	is.loc = resize(is.loc, n)
	is.dimm = resize(is.dimm, n)
	is.homePE = resize(is.homePE, n)
	for i := range iter.Nodes {
		nd := &iter.Nodes[i]
		var d int
		if cfg.StaticMapping {
			d = tr.DIMMOf(nd.Key, cfg.Channels)
		} else {
			d = iter.DIMMOf(nd.Key, cfg.Channels)
		}
		is.dimm[i] = d
		size := int(nd.D1 + nd.D2)
		is.loc[i] = is.allocs[d].alloc(dram.BlocksFor(size))
		if cfg.HybridThresholdBytes > 0 && size > cfg.HybridThresholdBytes {
			is.homePE[i] = cpuHome
			is.cpuNodes = append(is.cpuNodes, i)
			res.NodesCPU++
			continue
		}
		peIdx := is.dimmCount[d] % cfg.PEsPerChannel
		is.dimmCount[d]++
		is.homePE[i] = peIdx
		p := is.pe(d, peIdx)
		p.queue = append(p.queue, i)
		is.nmpNodes++
		res.NodesNMP++
	}

	// Transfers grouped by source (count, prefix-sum, fill; stable within
	// a source) and update targets.
	is.upd = resize(is.upd, n)
	clear(is.upd)
	is.tnStart = resize(is.tnStart, n+1)
	clear(is.tnStart)
	for _, tn := range iter.Transfers {
		is.tnStart[tn.SrcIdx+1]++
		is.upd[tn.DstIdx].expected++
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
		st := &is.upd[u.DstIdx]
		st.op, st.hasOp = u, true
	}
}

func (is *iterSim) pe(dimm, idx int) *pe { return &is.pes[dimm*is.shape.pes+idx] }

func p3Depth(cfg *Config) int { return max(cfg.P3QueueDepth, 1) }

// kickoff schedules the iteration's opening event at its start time.
func (is *iterSim) kickoff() { is.eng.At(is.startAt, is.onBegin) }

// begin starts every PE's Stage P1, the CPU-offloaded scans and the
// updates that wait for no TransferNodes.
func (is *iterSim) begin() {
	for k := range is.pes {
		if p := &is.pes[k]; len(p.queue) > 0 {
			is.peNext(p)
		}
	}
	// CPU-offloaded scans.
	for _, i := range is.cpuNodes {
		n := &is.iter.Nodes[i]
		job := cpuJob{
			node:    i,
			read:    int(n.D1 + n.D2),
			compute: is.cfg.CPUNodeBaseCycles + sim.Cycle(is.cfg.CPUCyclesPerByte*float64(n.D1+n.D2)),
			extract: n.Invalidated,
		}
		is.cpuSubmit(job)
	}
	// Updates that expect no routed TransferNodes start immediately.
	for i := range is.upd {
		if is.upd[i].hasOp && is.upd[i].expected == 0 {
			is.startUpdate(int32(i))
		}
	}
}

func maxc(a, b sim.Cycle) sim.Cycle {
	if a > b {
		return a
	}
	return b
}

func (is *iterSim) p1Cycles(n *trace.NodeOp) sim.Cycle {
	if is.cfg.IdealPE {
		return 1
	}
	return is.cfg.P1Base + is.cfg.P1PerExt*sim.Cycle(n.Exts)
}

func (is *iterSim) p2Cycles(n *trace.NodeOp) sim.Cycle {
	if is.cfg.IdealPE {
		return 1
	}
	return is.cfg.P2Base + is.cfg.P2PerWire*sim.Cycle(n.Wires)
}

func (is *iterSim) p3Cycles(tns int) sim.Cycle {
	if is.cfg.IdealPE {
		return 1
	}
	return is.cfg.P3Base + is.cfg.P3PerTN*sim.Cycle(tns)
}

// peNext pumps the PE's Stage P1: up to PELoadQueueDepth MacroNode loads
// in flight ("Buffer for next MNs" in Fig. 10), with the invalidation-check
// ALU running behind the load stream.
func (is *iterSim) peNext(p *pe) {
	depth := is.cfg.PELoadQueueDepth
	if depth < 1 {
		depth = 1
	}
	for p.outstanding < depth && p.qpos < len(p.queue) {
		i := p.queue[p.qpos]
		p.qpos++
		p.outstanding++
		n := &is.iter.Nodes[i]
		ch := is.chs[p.dimm]
		d1Blocks := dram.BlocksFor(int(n.D1))
		loadDone := access(ch, is.eng.Now(), is.loc[i], d1Blocks, false)
		compDone := maxc(loadDone, p.p1CompFree) + is.p1Cycles(n)
		p.p1CompFree = compDone
		is.noteNMP(compDone)
		is.eng.At(loadDone, p.onLoad)
		if n.Invalidated {
			p.p1Pending.push(i)
			is.eng.At(compDone, p.onP1)
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
	ch := is.chs[p.dimm]
	total := dram.BlocksFor(int(n.D1 + n.D2))
	d2Blocks := total - dram.BlocksFor(int(n.D1))
	loc := is.loc[i]
	loc.blk += dram.BlocksFor(int(n.D1))
	d2Done := access(ch, is.eng.Now(), loc, d2Blocks, false)
	p2Done := d2Done + is.p2Cycles(n)
	is.noteNMP(p2Done)
	is.eng.At(p2Done, p.onP2)
}

// routeTNs sends node i's TransferNodes to their destinations through the
// local scratchpad, the crossbar, or the network bridge (Fig. 9/10 Stage
// P3 routing).
func (is *iterSim) routeTNs(p *pe, i int) {
	now := is.eng.Now()
	for _, j := range is.tnOrder[is.tnStart[i]:is.tnStart[i+1]] {
		tn := &is.iter.Transfers[j]
		dst := int(tn.DstIdx)
		dstDimm := is.dimm[dst]
		dstPE := is.homePE[dst]
		bytes := int(tn.TNBytes)
		var arrival sim.Cycle
		switch {
		case dstPE == cpuHome:
			// Offloaded destination: the TransferNode is handed to the
			// host through the channel interface.
			arrival = now + is.cfg.CPUExtraLatency
			is.res.TNInterDIMM++ // leaves the DIMM either way
		case dstDimm == p.dimm && dstPE == p.idx:
			arrival = now + 1
			is.res.TNSamePE++
		case dstDimm == p.dimm:
			port := &is.xbarFree[dstDimm*is.shape.pes+dstPE]
			slot := maxc(now, *port)
			dur := sim.Cycle(float64(bytes)/is.cfg.CrossbarBytesPerCy) + 1
			*port = slot + dur
			arrival = slot + dur + is.cfg.CrossbarLatency
			is.res.TNIntraDIMM++
		default:
			out := &is.bridgeOut[p.dimm]
			slot := maxc(now, *out)
			dur := sim.Cycle(float64(bytes)/is.cfg.BridgeBytesPerCy) + 1
			*out = slot + dur
			in := &is.bridgeIn[dstDimm]
			slot2 := maxc(slot+dur+is.cfg.BridgeLatency, *in)
			*in = slot2 + dur
			arrival = slot2 + dur + is.cfg.CrossbarLatency
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
	st := &is.upd[dst]
	st.arrived++
	st.tnBytes += int64(bytes)
	if is.homePE[dst] != cpuHome {
		p := is.pe(is.dimm[dst], is.homePE[dst])
		p.scratch += int64(bytes)
		if p.scratch > is.res.ScratchPeakBytes {
			is.res.ScratchPeakBytes = p.scratch
		}
		if p.scratch > int64(is.cfg.TNScratchBytes) {
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
	if is.homePE[d] == cpuHome {
		op := &is.upd[d].op
		is.cpuSubmit(cpuJob{
			node:    d,
			read:    int(op.ReadBytes),
			write:   int(op.WriteBytes),
			compute: is.cfg.CPUNodeBaseCycles + sim.Cycle(is.cfg.CPUCyclesPerByte*float64(op.ReadBytes+op.WriteBytes)),
		})
		return
	}
	p := is.pe(is.dimm[d], is.homePE[d])
	p.p3Queue.push(d)
	is.pumpP3(p)
}

// pumpP3 runs the PE's Stage P3 server: read the destination node, apply
// the TransferNodes, write the node back; up to P3QueueDepth destination
// chains overlap.
func (is *iterSim) pumpP3(p *pe) {
	depth := p3Depth(is.cfg)
	for p.p3Busy < depth && !p.p3Queue.empty() {
		p.p3Busy++
		d := p.p3Queue.pop()
		st := &is.upd[d]
		ch := is.chs[p.dimm]
		readBytes := float64(st.op.ReadBytes) * (1 - is.cfg.ForwardingHitRate)
		rd := access(ch, is.eng.Now(), is.loc[d], dram.BlocksFor(int(readBytes)), false)
		comp := rd + is.p3Cycles(st.expected)
		s := p.p3Free[len(p.p3Free)-1]
		p.p3Free = p.p3Free[:len(p.p3Free)-1]
		slot := &p.p3Slots[s]
		slot.loc = is.loc[d]
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
	wr := access(is.chs[p.dimm], is.eng.Now(), slot.loc, slot.wrBlocks, true)
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
	ch := is.chs[is.dimm[job.node]]
	t := access(ch, is.eng.Now(), is.loc[job.node], dram.BlocksFor(job.read), false)
	t += is.cfg.CPUExtraLatency + job.compute
	is.eng.At(t, is.cpuSteps[k].onRead)
}

// cpuWrite writes back CPU job k's node, if it has output.
func (is *iterSim) cpuWrite(k int) {
	job := &is.cpuQueue[k]
	done := is.eng.Now()
	if job.write > 0 {
		ch := is.chs[is.dimm[job.node]]
		done = access(ch, done, is.loc[job.node], dram.BlocksFor(job.write), true) + is.cfg.CPUExtraLatency
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
		arrival := now + is.cfg.CPUExtraLatency
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
