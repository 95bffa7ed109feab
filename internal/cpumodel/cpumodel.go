// Package cpumodel is a trace-driven multicore timing model for the
// software baselines — the repository's substitute for the paper's
// perf/Sniper profiling (§3.3, Fig. 6) and the CPU side of Fig. 12.
//
// Threads replay the compaction trace against the shared DDR4 channels.
// Each MacroNode visit performs the software artifacts the paper's §4.5
// analysis identifies: a dependent pointer-chase (hash-map probe plus one
// dereference per extension vector — baseline PaKman stores MacroNodes as
// nested std::vectors), a streaming read of the node payload, and compute
// whose cost covers the copy-by-value overhead of the original code.
// Iterations end with a barrier; the imbalance between threads' finish
// times is the sync-futex stall the paper measures at 39.4%.
//
// Two flows mirror internal/compact's engines: FlowSequential (the paper's
// CPU baseline — three full sweeps per iteration with TransferNodes
// spilled to memory and all nodes rewritten) and FlowPipelined (the
// refined node-granular flow, the "CPU-PaK" configuration).
package cpumodel

import (
	"nmppak/internal/dram"
	"nmppak/internal/sim"
	"nmppak/internal/trace"
)

// Flow selects the process flow, mirroring compact.Flow.
type Flow int

const (
	FlowPipelined Flow = iota
	FlowSequential
)

// Config parameterizes the CPU model.
type Config struct {
	Threads  int // paper baseline: 64
	Channels int
	DRAM     dram.Config
	Flow     Flow

	// ExtraLatency is the controller + on-chip interconnect round trip
	// added to every DRAM access seen from a core.
	ExtraLatency sim.Cycle
	// Pointer-chase model: dependent single-line accesses per node visit.
	ChaseBase   int // hash probe + struct header
	ChasePerExt float64
	// L3: chase accesses hit with L3HitRate at L3Latency.
	L3HitRate float64
	L3Latency sim.Cycle
	// Compute model (cycles; covers the software constant factors).
	ComputeBase    sim.Cycle
	ComputePerByte float64
	// BranchFrac adds branch-misprediction time as a fraction of compute.
	BranchFrac float64
	// BarrierCycles is the fixed cost of each stage barrier.
	BarrierCycles sim.Cycle
}

// DefaultConfig returns the calibrated 64-thread dual-socket model
// (2x Xeon 8380 equivalent, Table 2).
func DefaultConfig() Config {
	return Config{
		Threads:        64,
		Channels:       8,
		DRAM:           dram.DDR4_3200(),
		Flow:           FlowSequential,
		ExtraLatency:   60,
		ChaseBase:      2,
		ChasePerExt:    1,
		L3HitRate:      0.8, // hash-table index and hot vector headers cache well
		L3Latency:      40,
		ComputeBase:    40,
		ComputePerByte: 0.3,
		BranchFrac:     0.04,
		BarrierCycles:  500,
	}
}

// Breakdown attributes run time to the Fig. 6 stall categories.
type Breakdown struct {
	Base, Branch, MemL3, MemDRAM, SyncFutex, Other sim.Cycle
}

// Total sums all buckets.
func (b Breakdown) Total() sim.Cycle {
	return b.Base + b.Branch + b.MemL3 + b.MemDRAM + b.SyncFutex + b.Other
}

// Fractions returns each bucket as a fraction of the total.
func (b Breakdown) Fractions() (base, branch, l3, dramF, futex, other float64) {
	t := float64(b.Total())
	if t == 0 {
		return
	}
	return float64(b.Base) / t, float64(b.Branch) / t, float64(b.MemL3) / t,
		float64(b.MemDRAM) / t, float64(b.SyncFutex) / t, float64(b.Other) / t
}

// Result of a CPU-model run.
type Result struct {
	Cycles      sim.Cycle
	Seconds     float64
	Breakdown   Breakdown
	Mem         []dram.Stats
	BytesRead   int64
	BytesWrite  int64
	Utilization float64
	Iterations  int
}

type workItem struct {
	kind kindT
	node int
}

type kindT int

const (
	kScan     kindT = iota // read data1 (+data2 in later passes)
	kScanFull              // read data1+data2
	kExtract               // re-read node, write TransferNodes
	kUpdate                // read target, compute, write back
	kMove                  // rewrite node (reallocation)
)

// Simulate replays the trace on the CPU model.
func Simulate(tr *trace.Trace, cfg Config) (*Result, error) {
	channels := make([]*dram.Channel, cfg.Channels)
	for i := range channels {
		channels[i] = dram.NewChannel(cfg.DRAM)
	}
	m := &machine{cfg: cfg, chs: channels, tr: tr, rngState: 0x9e3779b97f4a7c15}
	var now sim.Cycle
	for it := range tr.Iterations {
		now = m.runIteration(&tr.Iterations[it], now)
	}
	res := &Result{
		Cycles:     now,
		Seconds:    sim.Seconds(now),
		Breakdown:  m.bd,
		Iterations: len(tr.Iterations),
	}
	for _, ch := range channels {
		res.Mem = append(res.Mem, ch.Stats)
		res.BytesRead += ch.Stats.BytesRead
		res.BytesWrite += ch.Stats.BytesWritten
	}
	peak := cfg.DRAM.PeakBytesPerCycle() * float64(now) * float64(cfg.Channels)
	if peak > 0 {
		res.Utilization = float64(res.BytesRead+res.BytesWrite) / peak
	}
	return res, nil
}

type machine struct {
	cfg Config
	chs []*dram.Channel
	tr  *trace.Trace
	bd  Breakdown
	// eng is reused across passes; its event buckets come from the sim
	// package's pool, so steady-state scheduling does not allocate.
	eng sim.Engine
	// Per-iteration TransferNode byte totals by source / destination.
	tnOut map[int32]int
	tnIn  map[int32]int
	// Deterministic L3-hit pseudo-randomness.
	rngState uint64
}

// runIteration executes one compaction iteration's passes and returns the
// new global time.
func (m *machine) runIteration(iter *trace.Iteration, start sim.Cycle) sim.Cycle {
	m.tnOut = make(map[int32]int)
	m.tnIn = make(map[int32]int)
	for _, tn := range iter.Transfers {
		m.tnOut[tn.SrcIdx] += int(tn.TNBytes)
		m.tnIn[tn.DstIdx] += int(tn.TNBytes)
	}
	switch m.cfg.Flow {
	case FlowSequential:
		// Pass 1: P1 sweep over all nodes (data1 only).
		t := m.pass(iter, start, itemsScan(iter, kScan))
		// Pass 2: P2 sweep re-reading invalidated nodes and spilling
		// TransferNodes to memory.
		t = m.pass(iter, t, itemsExtract(iter))
		// Pass 3: P3 sweep: re-read everything, apply updates, and move
		// (rewrite) all surviving nodes.
		items := itemsScan(iter, kScanFull)
		items = append(items, itemsUpdates(iter)...)
		items = append(items, itemsMove(iter)...)
		return m.pass(iter, t, items)
	default: // FlowPipelined
		items := itemsScan(iter, kScan)
		items = append(items, itemsExtractFused(iter)...)
		items = append(items, itemsUpdates(iter)...)
		return m.pass(iter, start, items)
	}
}

func itemsScan(iter *trace.Iteration, kind kindT) []workItem {
	items := make([]workItem, len(iter.Nodes))
	for i := range iter.Nodes {
		items[i] = workItem{kind: kind, node: i}
	}
	return items
}

func itemsExtract(iter *trace.Iteration) []workItem {
	var items []workItem
	for i := range iter.Nodes {
		if iter.Nodes[i].Invalidated {
			items = append(items, workItem{kind: kExtract, node: i})
		}
	}
	return items
}

// itemsExtractFused marks extraction in the fused flow: data1 is reused
// from the scan, only data2 is read and TransferNodes stay in cache.
func itemsExtractFused(iter *trace.Iteration) []workItem {
	return itemsExtract(iter) // same items; cost differs by flow in runItem
}

func itemsUpdates(iter *trace.Iteration) []workItem {
	items := make([]workItem, len(iter.Updates))
	for i := range iter.Updates {
		items[i] = workItem{kind: kUpdate, node: i} // index into Updates
	}
	return items
}

func itemsMove(iter *trace.Iteration) []workItem {
	items := make([]workItem, len(iter.Nodes))
	for i := range iter.Nodes {
		items[i] = workItem{kind: kMove, node: i}
	}
	return items
}

// pass statically partitions items over threads (OpenMP static schedule)
// and runs them interleaved through the event engine so the threads
// contend for the shared channels realistically; the barrier at the end
// turns per-thread finish-time differences into sync-futex stall.
func (m *machine) pass(iter *trace.Iteration, start sim.Cycle, items []workItem) sim.Cycle {
	if len(items) == 0 {
		return start + m.cfg.BarrierCycles
	}
	threads := m.cfg.Threads
	ends := make([]sim.Cycle, threads)
	eng := &m.eng
	eng.Reset()
	for th := 0; th < threads; th++ {
		lo, hi := len(items)*th/threads, len(items)*(th+1)/threads
		if lo >= hi {
			ends[th] = start
			continue
		}
		th := th
		pos := lo
		var step func()
		step = func() {
			if pos >= hi {
				ends[th] = eng.Now()
				return
			}
			it := items[pos]
			pos++
			done := m.runItem(iter, th, eng.Now(), it)
			eng.At(done, step)
		}
		eng.At(start, step)
	}
	eng.Run()
	var maxEnd sim.Cycle
	for _, e := range ends {
		if e > maxEnd {
			maxEnd = e
		}
	}
	for _, e := range ends {
		m.bd.SyncFutex += maxEnd - e
	}
	m.bd.Other += m.cfg.BarrierCycles * sim.Cycle(threads)
	return maxEnd + m.cfg.BarrierCycles
}

// runItem executes one work item on thread th, returning its completion
// time and accounting stall buckets.
func (m *machine) runItem(iter *trace.Iteration, th int, start sim.Cycle, it workItem) sim.Cycle {
	cfg := &m.cfg
	t := start
	var node *trace.NodeOp
	var readBytes, writeBytes int
	var exts int
	switch it.kind {
	case kScan:
		node = &iter.Nodes[it.node]
		readBytes = int(node.D1)
		exts = int(node.Exts)
	case kScanFull:
		node = &iter.Nodes[it.node]
		readBytes = int(node.D1 + node.D2)
		exts = int(node.Exts)
	case kExtract:
		node = &iter.Nodes[it.node]
		exts = int(node.Exts)
		if cfg.Flow == FlowSequential {
			readBytes = int(node.D1 + node.D2)
			writeBytes = m.tnOut[int32(it.node)] // spill TransferNodes
		} else {
			readBytes = int(node.D2) // data1 reused from the fused scan
		}
	case kUpdate:
		up := &iter.Updates[it.node]
		node = &iter.Nodes[up.DstIdx]
		exts = int(node.Exts)
		readBytes = int(up.ReadBytes)
		writeBytes = int(up.WriteBytes)
		if cfg.Flow == FlowSequential {
			readBytes += m.tnIn[up.DstIdx] // read spilled TNs back
		}
	case kMove:
		node = &iter.Nodes[it.node]
		writeBytes = int(node.D1 + node.D2)
	}

	ch := m.chs[iter.DIMMOf(node.Key, cfg.Channels)]

	// Dependent pointer chase. Pure rewrites (moves) skip it, and in the
	// fused pipelined flow extraction reuses the node the thread just
	// scanned, so only scans and destination updates pay the lookup.
	skipChase := it.kind == kMove || (cfg.Flow == FlowPipelined && it.kind == kExtract)
	if !skipChase {
		chase := cfg.ChaseBase + int(cfg.ChasePerExt*float64(exts))
		for c := 0; c < chase; c++ {
			if m.nextRand() < cfg.L3HitRate {
				t += cfg.L3Latency
				m.bd.MemL3 += cfg.L3Latency
			} else {
				issue := t
				done := ch.AccessRow(issue, int(node.Key)&1, int(node.Key>>1)&15, int(node.Key>>5)&0x3fff, 1, false)
				done += cfg.ExtraLatency
				m.bd.MemDRAM += done - issue
				t = done
			}
		}
	}

	// Streaming payload read.
	if readBytes > 0 {
		issue := t
		done := ch.AccessRow(issue, int(node.Key)&1, int(node.Key>>1)&15, int(node.Key>>5)&0x3fff, dram.BlocksFor(readBytes), false)
		done += cfg.ExtraLatency
		m.bd.MemDRAM += done - issue
		t = done
	}

	// Compute (+ branch misprediction share).
	comp := cfg.ComputeBase + sim.Cycle(cfg.ComputePerByte*float64(readBytes+writeBytes))
	branch := sim.Cycle(float64(comp) * cfg.BranchFrac)
	m.bd.Base += comp
	m.bd.Branch += branch
	t += comp + branch

	// Write-back.
	if writeBytes > 0 {
		issue := t
		done := ch.AccessRow(issue, int(node.Key)&1, int(node.Key>>1)&15, int(node.Key>>5)&0x3fff, dram.BlocksFor(writeBytes), true)
		done += cfg.ExtraLatency
		m.bd.MemDRAM += done - issue
		t = done
	}
	return t
}

// nextRand is a small deterministic xorshift in [0,1).
func (m *machine) nextRand() float64 {
	m.rngState ^= m.rngState << 13
	m.rngState ^= m.rngState >> 7
	m.rngState ^= m.rngState << 17
	if m.rngState == 0 {
		m.rngState = 0x9e3779b97f4a7c15
	}
	return float64(m.rngState%1_000_000) / 1_000_000
}
