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
// iteration in lockstep").
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
// statistics for each stage".
package nmp

import (
	"fmt"

	"nmppak/internal/dram"
	"nmppak/internal/sim"
)

// Config parameterizes the NMP system.
type Config struct {
	Channels      int // DIMMs == channels (Fig. 9; paper: 8)
	PEsPerChannel int // paper starts at 32; 16 is the cost-effective point
	DRAM          dram.Config

	// PE buffer sizing (Table 2). Nodes larger than MNBufBytes cannot be
	// processed by a PE at all; with hybrid processing disabled they are
	// streamed with a stall penalty.
	MNBufBytes     int // 4096
	TNScratchBytes int // 1024

	// Interconnect.
	CrossbarLatency    sim.Cycle // port-to-port latency
	CrossbarBytesPerCy float64   // per output port
	BridgeLatency      sim.Cycle // DIMM-to-DIMM latency
	BridgeBytesPerCy   float64   // 25 GB/s at 1.6 GHz = 15.625 B/cycle

	// Stage compute model (cycles), from the per-stage instruction counts:
	// appending base pairs is shift+OR, plus comparisons per extension.
	P1Base, P1PerExt  sim.Cycle
	P2Base, P2PerWire sim.Cycle
	P3Base, P3PerTN   sim.Cycle

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
	CPUThreads           int
	CPUExtraLatency      sim.Cycle // controller/interconnect round trip
	CPUNodeBaseCycles    sim.Cycle // software overhead per node visit
	CPUCyclesPerByte     float64   // software processing cost

	// SyncBarrierCycles is the per-iteration lockstep synchronization
	// cost.
	SyncBarrierCycles sim.Cycle

	// StaticMapping pins the DIMM range table to the iteration-0
	// partition instead of refreshing it each iteration (ablation).
	// Because Iterative Compaction preferentially removes
	// lexicographically large keys, a static table drains the high-key
	// DIMMs over time and funnels the surviving population into DIMM 0 —
	// the load-imbalance pathology the per-iteration remap (performed
	// during the reallocation pass compaction does anyway) avoids.
	StaticMapping bool
}

// DefaultConfig returns the paper's system (Table 2) with the calibrated
// compute model.
func DefaultConfig() Config {
	return Config{
		Channels:      8,
		PEsPerChannel: 32,
		DRAM:          dram.DDR4_3200(),

		MNBufBytes:     4096,
		TNScratchBytes: 1024,

		CrossbarLatency:    4,
		CrossbarBytesPerCy: 16,
		BridgeLatency:      40,
		BridgeBytesPerCy:   15.625, // 25 GB/s (DIMM-Link)

		// Double-buffered load unit (Fig. 10 "Buffer for next MNs") and
		// one destination chain in flight behind the current one.
		PELoadQueueDepth: 2,
		P3QueueDepth:     2,

		// Per-stage instruction-count model: appending/comparing a
		// (k-1)-mer against each extension costs tens of ALU operations
		// on the PE's narrow datapath. At these rates a channel's 25.6
		// GB/s saturates at roughly 32 PEs (Fig. 15's knee), and once
		// saturated, infinitely fast PEs gain nothing (the ideal-PE
		// result of §6.1).
		P1Base: 50, P1PerExt: 25,
		P2Base: 50, P2PerWire: 25,
		P3Base: 50, P3PerTN: 25,

		HybridThresholdBytes: 1024,
		CPUThreads:           64,
		CPUExtraLatency:      60,
		CPUNodeBaseCycles:    400,
		CPUCyclesPerByte:     0.2,

		SyncBarrierCycles: 200,
	}
}

// Ceilings on the per-node geometry Validate accepts: far above any
// simulated DIMM, low enough that the per-channel and per-PE state an
// engine allocates up front stays bounded.
const (
	maxChannels      = 1 << 10
	maxPEsPerChannel = 1 << 10
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Channels < 1 || c.PEsPerChannel < 1 {
		return fmt.Errorf("nmp: need at least 1 channel and 1 PE, got %d/%d", c.Channels, c.PEsPerChannel)
	}
	if c.Channels > maxChannels || c.PEsPerChannel > maxPEsPerChannel {
		return fmt.Errorf("nmp: at most %d channels of %d PEs, got %d/%d", maxChannels, maxPEsPerChannel, c.Channels, c.PEsPerChannel)
	}
	if c.BridgeBytesPerCy <= 0 || c.CrossbarBytesPerCy <= 0 {
		return fmt.Errorf("nmp: interconnect bandwidth must be positive")
	}
	// Offloaded nodes run only on the host threads, so hybrid processing
	// without any would drop them.
	if c.HybridThresholdBytes > 0 && c.CPUThreads < 1 {
		return fmt.Errorf("nmp: hybrid offload needs at least 1 CPU thread, got %d", c.CPUThreads)
	}
	if err := c.DRAM.Validate(); err != nil {
		return fmt.Errorf("nmp: %w", err)
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
