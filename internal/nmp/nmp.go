// Package nmp models the NMP-PaK hardware (§4.1–§4.3, Figs. 9–11): a
// channel-level near-memory-processing system with pipelined systolic
// processing elements (PEs) in each DIMM's buffer chip, an inter-PE
// crossbar switch, DIMM-Link-style network bridges between DIMMs, and the
// hybrid CPU-NMP runtime that offloads oversized MacroNodes.
//
// The simulator is trace-driven (§5.2): it replays the per-iteration
// MacroNode event stream captured from the actual assembly execution
// (internal/trace) against the DDR4 timing model (internal/dram),
// processing iterations in lockstep exactly as the paper's runtime
// requires ("both the CPU and NMP engines must operate on the same
// iteration in lockstep"): an Engine steps one iteration at a time, each
// starting SyncBarrierCycles after the previous one ends.
//
// Per-PE execution follows Fig. 10: Stage P1 loads "MN data1" (key,
// prefixes, suffixes) and performs the invalidation check; Stage P2 loads
// "MN data2" (wiring) for invalidated nodes and extracts TransferNodes;
// Stage P3 routes TransferNodes (local scratchpad, crossbar, or network
// bridge) and applies them to destination MacroNodes, writing the updated
// node back to memory. Stage compute times follow an instruction-count
// model (appends, comparisons and bitwise ops scale with the number of
// extensions/wires), matching the paper's "we faithfully model PEs within
// Ramulator ... based on the RTL design and the instruction count
// statistics for each stage". That design point is fixed: Config carries
// only the node geometry and the values the paper's figures and ablations
// vary, the rest are package constants, and every channel is the DDR4-3200
// of internal/dram's constants.
package nmp

import (
	"fmt"

	"nmppak/internal/dram"
	"nmppak/internal/sim"
)

// Config parameterizes the NMP system: the design points the paper's
// figures and ablations vary. The rest of Table 2's design point (buffers,
// interconnect, stage compute model, host offload costs) is fixed by the
// constants below, and the memory (dram.Channels DDR4-3200 channels, their
// geometry and timing) by internal/dram's.
type Config struct {
	PEsPerChannel int // paper starts at 32; 16 is the cost-effective point

	// BridgeBytesPerCy is the DIMM-to-DIMM network bridge bandwidth:
	// 25 GB/s at 1.6 GHz = 15.625 B/cycle.
	BridgeBytesPerCy float64

	// PELoadQueueDepth is the number of in-flight MacroNode loads a PE's
	// Stage P1 load unit sustains (Fig. 10's "Buffer for next MNs"
	// prefetching); P3QueueDepth likewise overlaps destination
	// read/update/write chains.
	PELoadQueueDepth int
	P3QueueDepth     int

	// IdealPE makes every stage compute in a single cycle (§5.3).
	IdealPE bool
	// ForwardingHitRate is the fraction of Stage P3 destination reads
	// eliminated by P1->P3 forwarding; 0 for NMP-PaK, 1 for the
	// "ideal forwarding logic" configuration (§5.3).
	ForwardingHitRate float64

	// Hybrid CPU-NMP processing (§4.3): nodes larger than
	// HybridThresholdBytes are processed by the host CPU, overlapped with
	// NMP work, synchronized at each iteration boundary. 0 disables
	// offload.
	HybridThresholdBytes int

	// StaticMapping pins the DIMM range table to the iteration-0
	// partition instead of rebuilding it from each iteration's nodes
	// (ablation; single-node only, scaleout.Config.Validate rejects it).
	// Because Iterative Compaction preferentially removes
	// lexicographically large keys, a static table drains the high-key
	// DIMMs over time and funnels the surviving population into DIMM 0 —
	// the load-imbalance pathology the per-iteration remap (performed
	// during the reallocation pass compaction does anyway) avoids.
	StaticMapping bool
}

// The fixed part of the design point. The constants are typed: an
// untyped float constant would be folded exactly at compile time and
// round differently from the same value in a float64 variable.
const (
	// tnScratchBytes is a PE's TransferNode scratchpad (Table 2);
	// deliveries that fill it past this count as ScratchOverflows.
	tnScratchBytes = 1024

	// Interconnect: the crossbar's port-to-port latency and bandwidth per
	// output port, and the DIMM-to-DIMM bridge latency.
	crossbarLatency    sim.Cycle = 4
	crossbarBytesPerCy float64   = 16
	bridgeLatency      sim.Cycle = 40

	// Per-stage instruction-count model (cycles): appending/comparing a
	// (k-1)-mer against each extension costs tens of ALU operations on
	// the PE's narrow datapath. At these rates a channel's 25.6 GB/s
	// saturates at roughly 32 PEs (Fig. 15's knee), and once saturated,
	// infinitely fast PEs gain nothing (the ideal-PE result of §6.1).
	p1Base, p1PerExt  sim.Cycle = 50, 25
	p2Base, p2PerWire sim.Cycle = 50, 25
	p3Base, p3PerTN   sim.Cycle = 50, 25

	// The host side of hybrid processing (§4.3): its worker threads, the
	// controller/interconnect round trip, and the software cost of a node
	// visit (a base plus a per-byte rate).
	cpuThreads                  = 64
	cpuExtraLatency   sim.Cycle = 60
	cpuNodeBaseCycles sim.Cycle = 400
	cpuCyclesPerByte  float64   = 0.2
)

// SyncBarrierCycles is the per-iteration lockstep synchronization cost:
// each iteration starts this long after the previous one ends.
const SyncBarrierCycles sim.Cycle = 200

// minBridgeBytesPerCy is the lowest bridge bandwidth Validate accepts: a
// TransferNode holds the bridge for bytes/BridgeBytesPerCy cycles, which
// at this floor stays inside the cycle range, while at a rate like 1e-300
// it leaves it and the conversion would price the bridge as free (the
// floor internal/topo puts on its links).
const minBridgeBytesPerCy = 1e-3

// DefaultConfig returns the paper's system (Table 2).
func DefaultConfig() Config {
	return Config{
		PEsPerChannel:    32,
		BridgeBytesPerCy: 15.625, // 25 GB/s (DIMM-Link)

		// Double-buffered load unit (Fig. 10 "Buffer for next MNs") and
		// one destination chain in flight behind the current one.
		PELoadQueueDepth: 2,
		P3QueueDepth:     2,

		HybridThresholdBytes: 1024,
	}
}

// Fingerprint renders c in the layout %+v gave it when every part of the
// design point was a field, the fixed parts filled in from the constants
// (and the since-removed 4096-byte MacroNode buffer, which no model read),
// DRAM printed as its Config struct was. Checkpoint config digests hash
// this text, so it must not change.
func (c Config) Fingerprint() string {
	return fmt.Sprintf("{Channels:%d PEsPerChannel:%d "+
		"DRAM:{Ranks:%d BanksPerRank:%d RowBytes:%d TRCD:%d TRP:%d TCL:%d TCWL:%d TBL:%d "+
		"TRAS:%d TRRD:%d TFAW:%d TWR:%d TRTP:%d TWTR:%d TRFC:%d TREFI:%d} MNBufBytes:4096 TNScratchBytes:%d "+
		"CrossbarLatency:%d CrossbarBytesPerCy:%v BridgeLatency:%d BridgeBytesPerCy:%v "+
		"P1Base:%d P1PerExt:%d P2Base:%d P2PerWire:%d P3Base:%d P3PerTN:%d "+
		"PELoadQueueDepth:%d P3QueueDepth:%d IdealPE:%v ForwardingHitRate:%v "+
		"HybridThresholdBytes:%d CPUThreads:%d CPUExtraLatency:%d CPUNodeBaseCycles:%d CPUCyclesPerByte:%v "+
		"SyncBarrierCycles:%d StaticMapping:%v}",
		dram.Channels, c.PEsPerChannel,
		dram.Ranks, dram.BanksPerRank, dram.RowBytes, dram.TRCD, dram.TRP, dram.TCL, dram.TCWL, dram.TBL,
		dram.TRAS, dram.TRRD, dram.TFAW, dram.TWR, dram.TRTP, dram.TWTR, dram.TRFC, dram.TREFI, tnScratchBytes,
		crossbarLatency, crossbarBytesPerCy, bridgeLatency, c.BridgeBytesPerCy,
		p1Base, p1PerExt, p2Base, p2PerWire, p3Base, p3PerTN,
		c.PELoadQueueDepth, c.P3QueueDepth, c.IdealPE, c.ForwardingHitRate,
		c.HybridThresholdBytes, cpuThreads, cpuExtraLatency, cpuNodeBaseCycles, cpuCyclesPerByte,
		SyncBarrierCycles, c.StaticMapping)
}

// Ceilings on the per-node geometry Validate accepts: far above any
// simulated DIMM, low enough that the per-PE state an engine allocates up
// front stays bounded. maxP3QueueDepth likewise bounds the P3QueueDepth
// destination-chain slots every PE allocates up front: 512 times the
// double buffer of the paper's design.
//
// maxP3Slots bounds the two together: an engine's dram.Channels ×
// PEsPerChannel × P3QueueDepth destination-chain slots, about 100 bytes of
// iteration scratch each, so an engine's scratch stays within a few
// hundred MB. The two caps alone would allow 2^23 slots. The paper's
// design has 512 (8 × 32 × 2) and the deepest P3 queue on it 2^18.
const (
	maxPEsPerChannel = 1 << 10
	maxP3QueueDepth  = 1 << 10
	maxP3Slots       = 1 << 20
)

// P3Slots is the engine's destination-chain slot count, dram.Channels ×
// PEsPerChannel × P3QueueDepth: the footprint Validate bounds by
// maxP3Slots.
func (c Config) P3Slots() int64 {
	return int64(dram.Channels) * int64(c.PEsPerChannel) * int64(c.P3QueueDepth)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PEsPerChannel < 1 || c.PEsPerChannel > maxPEsPerChannel {
		return fmt.Errorf("nmp: PEs per channel must be in [1, %d], got %d", maxPEsPerChannel, c.PEsPerChannel)
	}
	if !(c.BridgeBytesPerCy >= minBridgeBytesPerCy) {
		return fmt.Errorf("nmp: bridge bandwidth %g B/cycle below the %g B/cycle floor", c.BridgeBytesPerCy, minBridgeBytesPerCy)
	}
	if c.PELoadQueueDepth < 1 || c.P3QueueDepth < 1 {
		return fmt.Errorf("nmp: PE queue depths must be >= 1, got P1 %d, P3 %d", c.PELoadQueueDepth, c.P3QueueDepth)
	}
	if c.P3QueueDepth > maxP3QueueDepth {
		return fmt.Errorf("nmp: P3 queue depth at most %d, got %d", maxP3QueueDepth, c.P3QueueDepth)
	}
	if n := c.P3Slots(); n > maxP3Slots {
		return fmt.Errorf("nmp: %d channels × %d PEs × P3 depth %d is %d P3 slots, above the %d ceiling",
			dram.Channels, c.PEsPerChannel, c.P3QueueDepth, n, maxP3Slots)
	}
	if !(c.ForwardingHitRate >= 0 && c.ForwardingHitRate <= 1) {
		return fmt.Errorf("nmp: ForwardingHitRate %v outside [0,1]", c.ForwardingHitRate)
	}
	if c.HybridThresholdBytes < 0 {
		return fmt.Errorf("nmp: HybridThresholdBytes must be >= 0, got %d", c.HybridThresholdBytes)
	}
	return nil
}

// Result summarizes a simulation.
type Result struct {
	Cycles  sim.Cycle
	Seconds float64

	// Memory-system aggregates.
	Mem         []dram.Stats
	BytesRead   int64
	BytesWrite  int64
	Utilization float64 // achieved / peak bandwidth over the whole run

	// TransferNode routing split (§6.3).
	TNSamePE    int64
	TNIntraDIMM int64 // different PE, same DIMM (crossbar)
	TNInterDIMM int64 // network bridge

	// Hybrid offload accounting (§4.3).
	NodesNMP       int64
	NodesCPU       int64
	CPUBusyCycles  sim.Cycle // summed per-iteration CPU spans
	NMPBusyCycles  sim.Cycle // summed per-iteration NMP spans
	HiddenCPUIters int64     // iterations where CPU finished before NMP

	// Scratchpad pressure.
	ScratchPeakBytes int64
	ScratchOverflows int64

	Iterations int
	PerIter    []IterTiming
}

// IterTiming records one iteration's timing split.
type IterTiming struct {
	Start, NMPDone, CPUDone, End sim.Cycle
	NodesNMP, NodesCPU           int
}
