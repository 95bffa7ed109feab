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
// It runs either of internal/compact's flows: compact.FlowSequential (the
// paper's CPU baseline — three full sweeps per iteration with
// TransferNodes spilled to memory and all nodes rewritten) or
// compact.FlowPipelined (the refined node-granular flow, the "CPU-PaK"
// configuration). Every channel is the DDR4-3200 of internal/dram's
// constants.
package cpumodel

import (
	"fmt"
	"slices"

	"nmppak/internal/compact"
	"nmppak/internal/dna"
	"nmppak/internal/dram"
	"nmppak/internal/sim"
	"nmppak/internal/trace"
)

// Config parameterizes the CPU model: the machine's threads and the
// process flow. The per-access and compute costs are the constants below,
// and the memory (dram.Channels channels, their geometry and timing)
// internal/dram's.
type Config struct {
	Threads int // paper baseline: 64
	Flow    compact.Flow
}

// The calibrated costs of the 64-thread dual-socket model. The constants
// are typed: an untyped float constant would be folded exactly at compile
// time and round differently from the same value in a float64 variable.
const (
	// extraLatency is the controller + on-chip interconnect round trip
	// added to every DRAM access seen from a core.
	extraLatency sim.Cycle = 60
	// Pointer-chase model: dependent single-line accesses per node visit
	// (hash probe + struct header, plus one per extension).
	chaseBase   int     = 2
	chasePerExt float64 = 1
	// Chase accesses hit the L3 with l3HitRate at l3Latency: the
	// hash-table index and hot vector headers cache well.
	l3HitRate float64   = 0.8
	l3Latency sim.Cycle = 40
	// Compute model (cycles; covers the software constant factors).
	computeBase    sim.Cycle = 40
	computePerByte float64   = 0.3
	// branchFrac adds branch-misprediction time as a fraction of compute.
	branchFrac float64 = 0.04
	// barrierCycles is the fixed cost of each stage barrier.
	barrierCycles sim.Cycle = 500
)

// DefaultConfig returns the calibrated 64-thread dual-socket model
// (2x Xeon 8380 equivalent, Table 2).
func DefaultConfig() Config {
	return Config{
		Threads: 64,
		Flow:    compact.FlowSequential,
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

// maxThreads is the most threads Validate accepts: far above any
// simulated CPU, low enough that the per-thread state stays bounded.
const maxThreads = 1 << 16

// Validate rejects a machine the model cannot run.
func (c Config) Validate() error {
	if c.Threads < 1 || c.Threads > maxThreads {
		return fmt.Errorf("cpumodel: threads must be in [1, %d], got %d", maxThreads, c.Threads)
	}
	if err := c.Flow.Validate(); err != nil {
		return fmt.Errorf("cpumodel: %w", err)
	}
	return nil
}

// Simulate replays the trace on the CPU model.
func Simulate(tr *trace.Trace, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr == nil {
		return nil, fmt.Errorf("cpumodel: nil trace")
	}
	m := &machine{cfg: cfg, tr: tr, rngState: 0x9e3779b97f4a7c15}
	for i := range m.chs {
		m.chs[i] = dram.NewChannel(&m.mem[i])
	}
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
	for i := range m.mem {
		st := &m.mem[i].Stats
		res.Mem = append(res.Mem, *st)
		res.BytesRead += st.BytesRead
		res.BytesWrite += st.BytesWritten
	}
	peak := dram.PeakBytesPerCycle * float64(now) * float64(dram.Channels)
	if peak > 0 {
		res.Utilization = float64(res.BytesRead+res.BytesWrite) / peak
	}
	return res, nil
}

type machine struct {
	cfg Config
	mem [dram.Channels]dram.ChannelState
	chs [dram.Channels]dram.Channel // chs[i] runs on mem[i]
	tr  *trace.Trace
	bd  Breakdown
	// eng is reused across passes; its event buckets come from the sim
	// package's pool, so steady-state scheduling does not allocate.
	eng sim.Engine
	// Per-iteration TransferNode byte totals by source / destination.
	tnOut map[int32]int
	tnIn  map[int32]int
	// The iteration's DIMM range table, and each node's DIMM under it.
	quantiles []dna.Kmer
	dimm      []int32
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
	m.quantiles = trace.AppendQuantiles(m.quantiles[:0], iter.Nodes)
	dimms := trace.NewDIMMWalk(m.quantiles, dram.Channels)
	m.dimm = slices.Grow(m.dimm[:0], len(iter.Nodes))
	for i := range iter.Nodes {
		m.dimm = append(m.dimm, int32(dimms.Of(iter.Nodes[i].Key)))
	}
	switch m.cfg.Flow {
	case compact.FlowSequential:
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
	default: // compact.FlowPipelined
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
		return start + barrierCycles
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
	m.bd.Other += barrierCycles * sim.Cycle(threads)
	return maxEnd + barrierCycles
}

// runItem executes one work item on thread th, returning its completion
// time and accounting stall buckets.
func (m *machine) runItem(iter *trace.Iteration, th int, start sim.Cycle, it workItem) sim.Cycle {
	cfg := &m.cfg
	t := start
	ni := it.node // the node the item touches
	if it.kind == kUpdate {
		ni = int(iter.Updates[it.node].DstIdx)
	}
	node := &iter.Nodes[ni]
	var readBytes, writeBytes int
	switch it.kind {
	case kScan:
		readBytes = int(node.D1)
	case kScanFull:
		readBytes = int(node.D1 + node.D2)
	case kExtract:
		if cfg.Flow == compact.FlowSequential {
			readBytes = int(node.D1 + node.D2)
			writeBytes = m.tnOut[int32(it.node)] // spill TransferNodes
		} else {
			readBytes = int(node.D2) // data1 reused from the fused scan
		}
	case kUpdate:
		up := &iter.Updates[it.node]
		readBytes = int(up.ReadBytes)
		writeBytes = int(up.WriteBytes)
		if cfg.Flow == compact.FlowSequential {
			readBytes += m.tnIn[up.DstIdx] // read spilled TNs back
		}
	case kMove:
		writeBytes = int(node.D1 + node.D2)
	}

	ch := &m.chs[m.dimm[ni]]
	rk, bk, row := addrOf(node.Key)

	// Dependent pointer chase. Pure rewrites (moves) skip it, and in the
	// fused pipelined flow extraction reuses the node the thread just
	// scanned, so only scans and destination updates pay the lookup.
	skipChase := it.kind == kMove || (cfg.Flow == compact.FlowPipelined && it.kind == kExtract)
	if !skipChase {
		chase := chaseBase + int(chasePerExt*float64(node.Exts))
		for c := 0; c < chase; c++ {
			if m.nextRand() < l3HitRate {
				t += l3Latency
				m.bd.MemL3 += l3Latency
			} else {
				issue := t
				done := ch.AccessRow(issue, rk, bk, row, 1, false)
				done += extraLatency
				m.bd.MemDRAM += done - issue
				t = done
			}
		}
	}

	// Streaming payload read.
	if readBytes > 0 {
		issue := t
		done := ch.AccessRow(issue, rk, bk, row, dram.BlocksFor(readBytes), false)
		done += extraLatency
		m.bd.MemDRAM += done - issue
		t = done
	}

	// Compute (+ branch misprediction share).
	comp := computeBase + sim.Cycle(computePerByte*float64(readBytes+writeBytes))
	branch := sim.Cycle(float64(comp) * branchFrac)
	m.bd.Base += comp
	m.bd.Branch += branch
	t += comp + branch

	// Write-back.
	if writeBytes > 0 {
		issue := t
		done := ch.AccessRow(issue, rk, bk, row, dram.BlocksFor(writeBytes), true)
		done += extraLatency
		m.bd.MemDRAM += done - issue
		t = done
	}
	return t
}

// The node address map: a key's low bits pick the rank, the next bits the
// bank, and the 14 bits above them the row.
const (
	rankBits = 1 // log2(dram.Ranks)
	bankBits = 4 // log2(dram.BanksPerRank)
)

// Each pair of conversions compiles only while a width matches its count.
const (
	_, _ = uint(dram.Ranks - 1<<rankBits), uint(1<<rankBits - dram.Ranks)
	_, _ = uint(dram.BanksPerRank - 1<<bankBits), uint(1<<bankBits - dram.BanksPerRank)
)

// addrOf maps a node key to its rank, bank and row.
func addrOf(key dna.Kmer) (rank, bank, row int) {
	return int(key) & (dram.Ranks - 1), int(key>>rankBits) & (dram.BanksPerRank - 1), int(key>>(rankBits+bankBits)) & 0x3fff
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
