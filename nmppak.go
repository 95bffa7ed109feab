// Package nmppak is the public API of the NMP-PaK reproduction: a de novo
// short-read genome assembler built on PaKman's MacroNode/PaK-graph
// algorithm (k-mer counting, MacroNode construction, Iterative Compaction,
// graph walk) together with trace-driven timing models of the paper's
// near-memory-processing hardware, CPU and GPU baselines.
//
// Quick start:
//
//	g, _ := nmppak.GenerateGenome(nmppak.GenomeConfig{Length: 100000, Seed: 1})
//	reads, _ := nmppak.SimulateReads(g, nmppak.ReadConfig{ReadLen: 100, Coverage: 30, ErrorRate: 0.01, Seed: 1})
//	out, _ := nmppak.Assemble(reads, nmppak.AssemblyConfig{K: 32, MinCount: 3})
//	fmt.Println(out.Summary.N50)
//
// The hardware models are reached through CaptureTrace + the Simulate*
// functions, and every table/figure of the paper's evaluation can be
// regenerated through the Experiments entry points (see cmd/experiments).
package nmppak

import (
	"nmppak/internal/assemble"
	"nmppak/internal/compact"
	"nmppak/internal/cpumodel"
	"nmppak/internal/dna"
	"nmppak/internal/fault"
	"nmppak/internal/genome"
	"nmppak/internal/gpumodel"
	"nmppak/internal/kmer"
	"nmppak/internal/metrics"
	"nmppak/internal/nmp"
	"nmppak/internal/pakgraph"
	"nmppak/internal/readsim"
	"nmppak/internal/report"
	"nmppak/internal/scaleout"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/tenancy"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// Re-exported configuration and result types. The internal packages hold
// the implementations; these aliases are the supported public surface.
type (
	// GenomeConfig controls synthetic reference generation.
	GenomeConfig = genome.Config
	// Genome is a set of synthesized replicons.
	Genome = genome.Genome
	// ReadConfig controls Illumina-like read simulation.
	ReadConfig = readsim.Config
	// Read is one simulated short read.
	Read = readsim.Read
	// AssemblyConfig parameterizes the assembly pipeline.
	AssemblyConfig = assemble.Config
	// AssemblyOutput is the pipeline result (contigs, metrics, timings).
	AssemblyOutput = assemble.Output
	// AssemblySummary holds N50/NG50/coverage statistics.
	AssemblySummary = metrics.Summary
	// Seq is a 2-bit packed DNA sequence.
	Seq = dna.Seq
	// Trace is a recorded Iterative Compaction event stream.
	Trace = trace.Trace
	// NMPConfig parameterizes the near-memory-processing system model:
	// channels, PEs and the design points the paper varies. Every channel
	// is DDR4-3200, with no memory setting.
	NMPConfig = nmp.Config
	// NMPResult is the NMP simulation outcome.
	NMPResult = nmp.Result
	// CPUConfig parameterizes the multicore baseline model: threads,
	// channels and the process flow. Every channel is DDR4-3200, with no
	// memory setting.
	CPUConfig = cpumodel.Config
	// CPUResult is the CPU simulation outcome.
	CPUResult = cpumodel.Result
	// GPUConfig parameterizes the A100-class baseline model.
	GPUConfig = gpumodel.Config
	// GPUResult is the GPU model outcome.
	GPUResult = gpumodel.Result
	// ScaleOutConfig parameterizes the multi-node scale-out simulator.
	ScaleOutConfig = scaleout.Config
	// ScaleOutResult is the scale-out simulation outcome.
	ScaleOutResult = scaleout.Result
	// NMPEngine is the resumable stepwise NMP simulator: one compaction
	// iteration per StepIteration call, for drivers that interleave their
	// own events between iterations (SimulateNMP is a thin loop over it).
	NMPEngine = nmp.Engine
	// Partitioner assigns k-mer and MacroNode-key ownership to scale-out
	// nodes; ownership is a pure function of the key. The interface is
	// sealed: the four partitioners below are the whole set, and
	// ScaleOutConfig.Validate checks their parameters.
	Partitioner = scaleout.Partitioner
	// HashPartitioner scatters every key independently (maximal balance,
	// no locality).
	HashPartitioner = scaleout.HashPartitioner
	// MinimizerPartitioner co-locates keys sharing a minimizer
	// (communication locality at some load-balance cost).
	MinimizerPartitioner = scaleout.MinimizerPartitioner
	// BalancedPartitioner greedy-bins minimizer super-buckets by observed
	// k-mer mass (locality and balance; built from a counting result).
	BalancedPartitioner = scaleout.BalancedPartitioner
	// RebalancePartitioner lets the distributed runtime migrate minimizer
	// super-buckets from measured stragglers to idle nodes between
	// compaction iterations (measurement-driven re-partitioning; the
	// migrated MacroNode bytes are charged to the interconnect).
	RebalancePartitioner = scaleout.RebalancePartitioner
	// TopoConfig declares the scale-out interconnect: topology kind
	// (full mesh, 2D torus, dragonfly), shape and per-link parameters.
	TopoConfig = topo.Config
	// TopoKind selects the interconnect topology family.
	TopoKind = topo.Kind
	// Network is a routed interconnect instance (built from a TopoConfig
	// and a node count); messages traverse it hop by hop through
	// contended serializing links.
	Network = topo.Network
	// KmerResult is a counting outcome (input to BuildGraph and
	// NewBalancedPartitioner).
	KmerResult = kmer.Result
	// ScaleOutCheckpoint is the decoded form of a scale-out checkpoint
	// blob (see CheckpointScaleOut/RestoreScaleOut); most callers move the
	// opaque blob around and never touch this.
	ScaleOutCheckpoint = scaleout.CheckpointState
	// NMPEngineState is a quiescent mid-run snapshot of an NMPEngine
	// (trace cursor, local clock, accumulated result, DRAM timing), the
	// per-node building block of a scale-out checkpoint.
	NMPEngineState = nmp.EngineState
	// TelemetryCollector accumulates one instrumented run's cycle-domain
	// timeline: spans on per-resource tracks (node engines, interconnect
	// links, DRAM channel buses, the runtime phase schedule), dependency
	// records and counters. Attach one to ScaleOutConfig.Telemetry and
	// export with its WriteChrome method (Perfetto / chrome://tracing).
	TelemetryCollector = telemetry.Collector
	// TelemetryTrack is one resource's recorded span stream.
	TelemetryTrack = telemetry.Track
	// TelemetrySpan is one recorded time window on a track.
	TelemetrySpan = telemetry.Span
	// TelemetryUtilization is the aggregate counter set AnalyzeTelemetry
	// derives from a collector: per-node busy/idle/stall, per-link
	// occupancy and peak backlog, DRAM bus time, and the comm fraction
	// (which reproduces ScaleOutResult.CommFraction exactly).
	TelemetryUtilization = telemetry.Utilization
	// TelemetryCPEntry is one iteration of the critical-path attribution:
	// the node whose compute bounded it and the wait that preceded it.
	TelemetryCPEntry = telemetry.CPEntry
	// Cycle is the simulator's time unit (one NMP core clock).
	Cycle = sim.Cycle
	// FaultPlan is a deterministic fault schedule for one scale-out run:
	// node losses, link degradations and link outages pinned to chosen
	// compaction-phase cycles, plus the failure-detection latency. Attach
	// one to ScaleOutConfig.Faults (usually with ScaleOutConfig.
	// CheckpointEvery set) and the elastic runtime detects losses at
	// iteration boundaries, restores the survivors from the last periodic
	// checkpoint, re-partitions the dead shard and finishes the run with
	// the global output conserved.
	FaultPlan = fault.Plan
	// FaultEvent is one scheduled fault of a FaultPlan.
	FaultEvent = fault.Event
	// FaultKind classifies a FaultEvent (node loss, link degrade/outage).
	FaultKind = fault.Kind
	// ScaleOutSession is a pausable scale-out run: Step executes
	// compaction iterations in slices, Checkpoint exports the paused
	// state as a blob (byte-identical to CheckpointScaleOut at the same
	// boundary), Finish completes the run bit-identically to
	// SimulateScaleOut. The multi-tenant fleet scheduler preempts through
	// it.
	ScaleOutSession = scaleout.Session
	// Fleet is a fixed pool of simulated NMP nodes time-shared by many
	// assembly jobs under checkpoint-based preemption (see FleetJob,
	// FleetPolicy and Fleet.Run).
	Fleet = tenancy.Fleet
	// FleetJob is one tenant's admission request: workload trace, node
	// demand (Config.Nodes), priority and deterministic arrival cycle.
	FleetJob = tenancy.Job
	// FleetSchedule is a fleet simulation outcome: makespan, utilization,
	// preemption totals and per-tenant stats.
	FleetSchedule = tenancy.Schedule
	// FleetTenantStats is one tenant's measured outcome (latency
	// decomposition, preemptions, checkpoint traffic, final result).
	FleetTenantStats = tenancy.TenantStats
	// FleetPolicy decides tenant placement and preemption.
	FleetPolicy = tenancy.Policy
	// FleetFIFO is strict arrival order, non-preemptive.
	FleetFIFO = tenancy.FIFO
	// FleetPriority is strict-priority with checkpoint preemption.
	FleetPriority = tenancy.Priority
	// FleetFairShare is deficit round-robin over measured machine cycles.
	FleetFairShare = tenancy.FairShare
)

// ErrElasticConfig is the sentinel wrapped by checkpoint, restore and
// session construction when the config carries elastic state
// (CheckpointEvery/Faults): elastic runs manage their own recovery
// checkpoints and cannot be externally paused. Detect it with errors.Is;
// the fleet scheduler uses it to classify non-preemptible tenants.
var ErrElasticConfig = scaleout.ErrElasticConfig

// ScaleOutCheckpointVersion is the checkpoint blob format version this
// build reads and writes.
const ScaleOutCheckpointVersion = scaleout.CheckpointVersion

// Interconnect topology kinds for ScaleOutConfig.Topo.Kind.
const (
	TopoFullMesh  = topo.FullMesh
	TopoTorus2D   = topo.Torus2D
	TopoDragonfly = topo.Dragonfly
)

// Fault event kinds for FaultEvent.Kind.
const (
	// FaultNodeLoss kills a node; the elastic runtime recovers the run on
	// the survivors.
	FaultNodeLoss = fault.NodeLoss
	// FaultLinkDegrade multiplies the bandwidth of every link on the
	// minimal Src -> Dst route by Factor.
	FaultLinkDegrade = fault.LinkDegrade
	// FaultLinkOutage removes the minimal Src -> Dst route's links; later
	// traffic detours around the cut.
	FaultLinkOutage = fault.LinkOutage
)

// GenerateGenome synthesizes a reference genome.
func GenerateGenome(cfg GenomeConfig) (*Genome, error) { return genome.Generate(cfg) }

// SimulateReads sequences a genome into short reads (ART substitute).
func SimulateReads(g *Genome, cfg ReadConfig) ([]Read, error) { return readsim.Simulate(g, cfg) }

// Assemble runs the full PaKman pipeline: k-mer counting, MacroNode
// construction, per-batch Iterative Compaction, graph merge and walk.
func Assemble(reads []Read, cfg AssemblyConfig) (*AssemblyOutput, error) {
	return assemble.Run(reads, cfg)
}

// Summarize computes assembly quality metrics against an optional
// reference.
func Summarize(contigs []Seq, ref []Seq) AssemblySummary { return metrics.Summarize(contigs, ref) }

// CaptureTrace assembles a read set (single batch) while recording the
// Iterative Compaction event stream the hardware models replay. The
// threshold semantics follow the paper: compaction stops once the live
// node count falls below compactThreshold (0 compacts to a fixed point).
func CaptureTrace(reads []Read, k int, minCount uint32, compactThreshold int) (*Trace, *AssemblyOutput, error) {
	b := trace.NewBuilder(k)
	out, err := assemble.Run(reads, assemble.Config{
		K: k, MinCount: minCount, CompactThreshold: compactThreshold,
		Flow: compact.FlowPipelined, Observer: b,
	})
	if err != nil {
		return nil, nil, err
	}
	return b.Trace(), out, nil
}

// DefaultNMPConfig returns the paper's NMP-PaK system (Table 2).
func DefaultNMPConfig() NMPConfig { return nmp.DefaultConfig() }

// SimulateNMP replays a compaction trace on the NMP-PaK hardware model.
func SimulateNMP(tr *Trace, cfg NMPConfig) (*NMPResult, error) { return nmp.Simulate(tr, cfg) }

// DefaultCPUConfig returns the 64-thread CPU baseline model.
func DefaultCPUConfig() CPUConfig { return cpumodel.DefaultConfig() }

// SimulateCPU replays a compaction trace on the CPU baseline model.
func SimulateCPU(tr *Trace, cfg CPUConfig) (*CPUResult, error) { return cpumodel.Simulate(tr, cfg) }

// DefaultGPUConfig returns the A100 40 GB baseline model.
func DefaultGPUConfig() GPUConfig { return gpumodel.A100_40GB() }

// SimulateGPU replays a compaction trace on the GPU baseline model.
func SimulateGPU(tr *Trace, cfg GPUConfig) (*GPUResult, error) { return gpumodel.Simulate(tr, cfg) }

// NewNMPEngine prepares a resumable stepwise replay of tr; drive it with
// StepIteration and seal with Result.
func NewNMPEngine(tr *Trace, cfg NMPConfig) (*NMPEngine, error) { return nmp.NewEngine(tr, cfg) }

// DefaultScaleOutConfig returns an n-node scale-out system: paper-default
// NMP nodes joined by a 25 GB/s full-mesh interconnect, hash-partitioned,
// BSP replay. Set Overlap for the overlapped halo-exchange runtime and
// Topo for a routed topology (TorusTopo / DragonflyTopo) instead of the
// idealized mesh.
func DefaultScaleOutConfig(nodes int) ScaleOutConfig { return scaleout.DefaultConfig(nodes) }

// DefaultTopo returns the default interconnect declaration: a 25 GB/s,
// 1 us full mesh.
func DefaultTopo() TopoConfig { return topo.Default() }

// TorusTopo returns the default link parameters on an x-by-y 2D torus
// with dimension-order routing (zero dims: auto near-square).
func TorusTopo(x, y int) TopoConfig { return topo.Torus(x, y) }

// DragonflyTopo returns the default link parameters on a dragonfly of
// near-square all-to-all groups joined by per-group-pair global channels.
func DragonflyTopo() TopoConfig { return topo.DragonflyGroups() }

// NewRebalancePartitioner returns a measurement-driven rebalancing
// partitioner: minimizer super-buckets of m-mers, migrated between
// straggler and idle nodes every `every` compaction iterations based on
// the busy times the distributed runtime measures (BSP discipline).
func NewRebalancePartitioner(m, every int) *RebalancePartitioner {
	return scaleout.NewRebalancePartitioner(m, every)
}

// SimulateScaleOut runs the sharded multi-node pipeline — distributed
// k-mer counting, distributed MacroNode construction, and a distributed
// per-iteration replay of the compaction trace with halo exchange (BSP
// supersteps by default, overlapped when cfg.Overlap is set) — returning
// per-phase and per-node timing. With nodes == 1 the compaction phase
// equals SimulateNMP on the same trace exactly, in either mode.
func SimulateScaleOut(reads []Read, tr *Trace, cfg ScaleOutConfig) (*ScaleOutResult, error) {
	return scaleout.Simulate(reads, tr, cfg)
}

// CheckpointScaleOut runs the scale-out pipeline up to (but not
// including) compaction iteration beforeIter and exports the paused run
// as a versioned, deterministic byte blob. RestoreScaleOut — under the
// same trace and configuration — resumes it and finishes bit-identically
// to the uninterrupted SimulateScaleOut (the internal/conformance suite
// pins this across the whole topology × discipline × partitioner matrix).
func CheckpointScaleOut(reads []Read, tr *Trace, cfg ScaleOutConfig, beforeIter int) ([]byte, error) {
	return scaleout.Checkpoint(reads, tr, cfg, beforeIter)
}

// RestoreScaleOut reconstructs a checkpointed scale-out run and drives it
// to completion. It rejects truncated or version-mismatched blobs and
// blobs taken under a different configuration or trace.
func RestoreScaleOut(tr *Trace, cfg ScaleOutConfig, blob []byte) (*ScaleOutResult, error) {
	return scaleout.Restore(tr, cfg, blob)
}

// UnmarshalScaleOutCheckpoint decodes and validates a checkpoint blob for
// inspection (resume iteration, recorded state) without restoring it.
func UnmarshalScaleOutCheckpoint(blob []byte) (*ScaleOutCheckpoint, error) {
	return scaleout.UnmarshalCheckpoint(blob)
}

// NodeLossAt returns the common single-event fault plan: node dies at the
// given compaction-phase cycle, acted on after a detect-cycle latency.
func NodeLossAt(node int, cycle, detect Cycle) *FaultPlan {
	return fault.NodeLossAt(node, cycle, detect)
}

// NewMinimizerPartitioner returns a minimizer partitioner with m-mer
// length m.
func NewMinimizerPartitioner(m int) MinimizerPartitioner {
	return scaleout.NewMinimizerPartitioner(m)
}

// NewBalancedPartitioner builds a weight-aware partitioner for an n-node
// machine from a counting result (see CountKmers), binning minimizer
// super-buckets by observed k-mer mass.
func NewBalancedPartitioner(res *KmerResult, m, nodes int) BalancedPartitioner {
	return scaleout.NewBalancedPartitioner(res, m, nodes)
}

// NewTelemetry returns an empty telemetry collector, ready to attach to
// ScaleOutConfig.Telemetry. Collection is deterministic and does not
// perturb the simulated machine; pass a fresh (or Reset) collector per
// run.
func NewTelemetry() *TelemetryCollector { return telemetry.New() }

// AnalyzeTelemetry folds a collected timeline into aggregate utilization
// counters.
func AnalyzeTelemetry(c *TelemetryCollector) *TelemetryUtilization { return telemetry.Analyze(c) }

// TelemetryCriticalPath walks the recorded dependency graph backwards
// from the last-finishing node iteration, attributing each compaction
// iteration's share of the end-to-end cycles to its bounding resource.
func TelemetryCriticalPath(c *TelemetryCollector) []TelemetryCPEntry {
	return telemetry.CriticalPath(c)
}

// FormatUtilization renders an analyzed timeline as the aligned text
// tables cmd/experiments -timeline prints.
func FormatUtilization(u *TelemetryUtilization) string { return report.Utilization(u) }

// FormatCriticalPath renders a critical-path attribution as an aligned
// text table.
func FormatCriticalPath(entries []TelemetryCPEntry) string { return report.CriticalPath(entries) }

// NewScaleOutSession starts a pausable scale-out run (BSP preemptible
// configurations only: overlapped and elastic configs cannot be paused —
// the latter is reported via ErrElasticConfig).
func NewScaleOutSession(reads []Read, tr *Trace, cfg ScaleOutConfig) (*ScaleOutSession, error) {
	return scaleout.NewSession(reads, tr, cfg)
}

// ResumeScaleOutSession reopens a paused run from a checkpoint blob
// (written by CheckpointScaleOut or ScaleOutSession.Checkpoint) for
// further stepping; the input reads are not needed again.
func ResumeScaleOutSession(tr *Trace, cfg ScaleOutConfig, blob []byte) (*ScaleOutSession, error) {
	return scaleout.ResumeSession(tr, cfg, blob)
}

// FormatFleetSchedule renders a fleet schedule as the fleet summary plus
// a per-tenant latency-decomposition table.
func FormatFleetSchedule(s *FleetSchedule) string { return report.Tenancy(s) }

// ParseSeq parses an ASCII DNA string.
func ParseSeq(s string) (Seq, error) { return dna.ParseSeq(s) }

// CountKmers runs the optimized parallel k-mer counting pass.
func CountKmers(reads []Read, k int, minCount uint32) (*kmer.Result, error) {
	return kmer.Count(reads, kmer.Config{K: k, MinCount: minCount})
}

// BuildGraph constructs the PaK-graph from counted k-mers.
func BuildGraph(res *kmer.Result) (*pakgraph.Graph, error) { return pakgraph.Build(res) }
