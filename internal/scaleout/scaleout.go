// Package scaleout models a multi-node NMP-PaK deployment: N virtual
// nodes, each a full single-node system (channels, PEs, host CPU —
// internal/nmp's model), joined by a routed, topology-aware interconnect
// (internal/topo). The paper evaluates one NMP node against a 1,024-node
// PaKman supercomputer run (§6.4); PaKman itself is natively an MPI
// assembler, and this package supplies the missing scale-out story by
// simulating its distributed structure end to end:
//
//  1. Reads are split round-robin across nodes; each node extracts and
//     pre-aggregates k-mers, ships partial counts to their hash- or
//     minimizer-determined owners (all-to-all #1), and the owners merge
//     and prune. The per-node results tile the single-node kmer.Count
//     output exactly (see CountSharded/Merge).
//  2. Counted k-mers travel to the owners of their boundary (k-1)-mers
//     (all-to-all #2) and every node builds the MacroNodes it owns
//     (BuildShardGraphs). Simulate routes the same records but only
//     counts the MacroNodes, the one graph fact its model uses.
//  3. Iterative Compaction replays in per-iteration lockstep, BSP style:
//     each node runs its shard of the global trace on its own
//     internal/nmp system, cross-node TransferNodes are exchanged over
//     the interconnect at the iteration boundary (halo exchange), and a
//     log-tree barrier closes the iteration — the distributed analogue
//     of the paper's "both the CPU and NMP engines must operate on the
//     same iteration in lockstep".
//
// Timing is fully deterministic: software phases use an instruction-count
// model over exact operation counts, exchanges route hop-by-hop through
// the contended links of the configured topology (full mesh, 2D torus or
// dragonfly — see internal/topo) on the internal/sim event kernel, and
// the per-node replays are internal/nmp simulations. With Nodes == 1
// every exchange is empty and the compaction phase equals the single-node
// nmp.Simulate result cycle for cycle.
package scaleout

import (
	"fmt"
	"math"

	"nmppak/internal/dna"
	"nmppak/internal/fault"
	"nmppak/internal/nmp"
	"nmppak/internal/readsim"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// SoftwareModel prices the software pipeline stages (counting, merging,
// MacroNode construction) in 1.6 GHz cycles per unit of work. These are
// the scale-out analogue of cpumodel's per-node compute constants.
type SoftwareModel struct {
	ExtractCyclesPerKmer     float64 // sliding-window extraction, per instance
	SortCyclesPerKmer        float64 // local sort, per instance per log2(n)
	MergeCyclesPerRecord     float64 // owner-side merge of partial counts
	ConstructCyclesPerRecord float64 // MacroNode hash insert + extension merge
}

// DefaultSoftwareModel returns constants calibrated to the optimized
// (§4.5) software pipeline.
func DefaultSoftwareModel() SoftwareModel {
	return SoftwareModel{
		ExtractCyclesPerKmer:     4,
		SortCyclesPerKmer:        0.5,
		MergeCyclesPerRecord:     2,
		ConstructCyclesPerRecord: 24,
	}
}

// Config parameterizes a scale-out simulation.
type Config struct {
	Nodes    int
	K        int
	MinCount uint32
	// Workers bounds host parallelism while running the real sharded
	// software and pre-stepping the per-node engines of each compaction
	// epoch (not modeled time); <=0 means GOMAXPROCS. Results, traces and
	// checkpoint blobs are identical at every worker count.
	Workers int

	Partitioner Partitioner
	// Topo declares the interconnect: topology family, shape and per-link
	// parameters (see internal/topo). Every exchange and halo message is
	// routed hop-by-hop through its contended links.
	Topo topo.Config
	// Overlap selects the compaction-replay discipline: false (default)
	// runs BSP supersteps — compute, then exchange, then barrier — while
	// true streams each node's halo bytes as soon as it finishes an
	// iteration and lets the next iteration wait only on the deliveries it
	// depends on (see runtime.go). Counting and construction are bulk
	// all-to-alls either way.
	Overlap bool
	// NMP is the per-node hardware model; every virtual node runs a full
	// copy.
	NMP      nmp.Config
	Software SoftwareModel
	// CheckpointEvery > 0 captures a full checkpoint of the compaction
	// replay every that many iterations in memory, replacing the previous
	// one and pricing each capture at blob-bytes / CheckpointBytesPerCycle.
	// Recovery from an injected node loss restores from the newest
	// capture; 0 (the default) disables periodic checkpointing — a loss
	// then restarts the compaction phase from iteration 0 on the
	// survivors.
	CheckpointEvery int
	// CheckpointBytesPerCycle prices checkpoint capture and restore I/O;
	// <= 0 means DefaultCheckpointBytesPerCycle.
	CheckpointBytesPerCycle float64
	// Faults, when non-empty, is the deterministic fault plan injected
	// into the compaction replay (see internal/fault): node losses trigger
	// detection + restore + survivor re-partitioning, link events degrade
	// or cut interconnect channels in place. Either Faults or
	// CheckpointEvery switches Simulate to the elastic runtime
	// (elastic.go); with both zero the legacy runtimes run untouched.
	Faults *fault.Plan
	// Telemetry, when non-nil, collects the run's cycle-domain timeline —
	// per-node iteration/idle/stall spans, link occupancy windows, DRAM
	// bus windows and the runtime phase schedule (see internal/telemetry).
	// nil (the default) disables collection entirely: the simulated result
	// is cycle-exact and the hot paths allocation-identical with an
	// uninstrumented run. Like Workers, it does not affect checkpoint
	// identity. Pass a fresh (or Reset) collector per run.
	Telemetry *telemetry.Collector
}

// DefaultConfig returns an n-node system of paper-default NMP nodes
// joined by the default 25 GB/s mesh, hash-partitioned.
func DefaultConfig(n int) Config {
	return Config{
		Nodes:       n,
		K:           32,
		MinCount:    3,
		Partitioner: HashPartitioner{},
		Topo:        topo.Default(),
		NMP:         nmp.DefaultConfig(),
		Software:    DefaultSoftwareModel(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("scaleout: Nodes must be >= 1, got %d", c.Nodes)
	}
	if c.K < 1 || c.K > dna.MaxK {
		return fmt.Errorf("scaleout: K must be in [1, %d], got %d", dna.MaxK, c.K)
	}
	if c.Workers < 0 {
		return fmt.Errorf("scaleout: Workers must be >= 0, got %d", c.Workers)
	}
	if c.Partitioner == nil {
		return fmt.Errorf("scaleout: Partitioner must be set")
	}
	if rp, ok := c.Partitioner.(*RebalancePartitioner); ok {
		if c.Overlap {
			return fmt.Errorf("scaleout: RebalancePartitioner requires the BSP discipline (the migration decision is a global synchronization); unset Overlap")
		}
		if rp.M < 1 || rp.Every < 1 {
			return fmt.Errorf("scaleout: RebalancePartitioner needs M >= 1 and Every >= 1, got M=%d Every=%d (use NewRebalancePartitioner)", rp.M, rp.Every)
		}
		if c.elastic() {
			return fmt.Errorf("scaleout: RebalancePartitioner cannot run under the elastic runtime (its ownership history is not checkpointable); unset CheckpointEvery and Faults")
		}
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("scaleout: CheckpointEvery must be >= 0, got %d", c.CheckpointEvery)
	}
	if c.CheckpointBytesPerCycle < 0 {
		return fmt.Errorf("scaleout: CheckpointBytesPerCycle must be >= 0, got %g", c.CheckpointBytesPerCycle)
	}
	if err := c.Faults.Validate(c.Nodes); err != nil {
		return fmt.Errorf("scaleout: %w", err)
	}
	if err := c.Topo.Validate(c.Nodes); err != nil {
		return err
	}
	return c.NMP.Validate()
}

// elastic reports whether the configuration routes the compaction replay
// through the elastic runtime (elastic.go): periodic checkpointing, a
// fault plan, or both. False keeps the legacy runtimes byte-for-byte on
// their existing paths.
func (c Config) elastic() bool {
	return c.CheckpointEvery > 0 || !c.Faults.Empty()
}

// PhaseCycles splits one pipeline phase into compute (slowest node),
// interconnect exchange, and barrier time.
type PhaseCycles struct {
	Compute  sim.Cycle
	Exchange sim.Cycle
	Barrier  sim.Cycle
}

// Total sums the phase.
func (p PhaseCycles) Total() sim.Cycle { return p.Compute + p.Exchange + p.Barrier }

// NodeStats is one virtual node's share of the work.
type NodeStats struct {
	Reads          int
	KmersExtracted int64
	KmersOwned     int
	MacroNodes     int
	CompactCycles  sim.Cycle // summed per-iteration busy time of this node
}

// Result is a scale-out simulation outcome.
type Result struct {
	Nodes       int
	Partitioner string
	Topology    string // Network.Name() of the configured interconnect

	Count     PhaseCycles // distributed k-mer counting
	Construct PhaseCycles // distributed MacroNode construction
	Compact   PhaseCycles // lockstep Iterative Compaction replay

	TotalCycles sim.Cycle
	Seconds     float64

	// Communication accounting (exchanges + interconnect barriers).
	CommCycles     sim.Cycle
	CommFraction   float64
	ExchangedBytes int64
	HaloBytes      int64
	RemoteTNFrac   float64

	// Imbalance is the slowest node's summed per-iteration compaction
	// time over the mean (1.0 = perfectly balanced).
	Imbalance float64

	// Rebalancing accounting (zero unless the partitioner is a
	// RebalancePartitioner): migrations performed between compaction
	// iterations and the MacroNode bytes they moved over the network.
	Rebalances    int
	MigratedBytes int64

	// Elastic-runtime accounting (zero unless CheckpointEvery or Faults
	// put the run on the elastic runtime — see elastic.go).
	Checkpoints      int       // periodic checkpoint captures
	CheckpointBytes  int64     // blob bytes captured
	CheckpointCycles sim.Cycle // capture stalls charged to the run
	FaultsInjected   int       // fault-plan events applied
	NodesLost        int       // nodes killed by the plan
	Recoveries       int       // rollback-recovery rounds performed
	LostIterations   int64     // node-iterations of discarded (re-executed) work
	RecoveryCycles   sim.Cycle // detection + restore stalls charged
	RepartitionBytes int64     // shard bytes migrated to new owners on recovery

	PerNode []NodeStats
	// NMP holds the per-node replay results (index = node).
	NMP []*nmp.Result
}

// Speedup computes r's speedup over a baseline (typically the 1-node run
// of the same workload). A missing or zero-cycle baseline — an empty
// trace, for instance — yields 0 rather than a meaningless ratio.
func (r *Result) Speedup(base *Result) float64 {
	if r.TotalCycles == 0 || base == nil || base.TotalCycles == 0 {
		return 0
	}
	return float64(base.TotalCycles) / float64(r.TotalCycles)
}

// Efficiency is Speedup divided by the node ratio, with the same
// zero-baseline guard.
func (r *Result) Efficiency(base *Result) float64 {
	if base == nil || r.Nodes == 0 {
		return 0
	}
	return r.Speedup(base) * float64(base.Nodes) / float64(r.Nodes)
}

// String renders a short summary.
func (r *Result) String() string {
	return fmt.Sprintf("scaleout: %d nodes (%s, %s), %.3f ms total, comm %.1f%%, remote TNs %.1f%%, imbalance %.2f",
		r.Nodes, r.Partitioner, r.Topology, r.Seconds*1e3, r.CommFraction*100, r.RemoteTNFrac*100, r.Imbalance)
}

// Simulate runs the full scale-out pipeline: distributed counting and
// MacroNode construction over reads (real software, modeled time) and the
// lockstep compaction replay of tr (captured once from the single-node
// execution, e.g. via nmppak.CaptureTrace or the experiments Context).
func Simulate(reads []readsim.Read, tr *trace.Trace, cfg Config) (*Result, error) {
	net, err := validateRun(tr, cfg)
	if err != nil {
		return nil, err
	}
	var pr *probes
	if cfg.Telemetry != nil {
		pr = newProbes(cfg.Telemetry, net, cfg, len(tr.Iterations))
	}
	res, err := runPrelude(reads, cfg, net, pr)
	if err != nil {
		return nil, err
	}

	// Phase 3: compaction replay on the distributed runtime — N stepwise
	// per-node engines and the interconnect on one shared event timeline,
	// scheduled BSP or overlapped per cfg.Overlap (see runtime.go). A
	// RebalancePartitioner switches to the dynamic-ownership runtime
	// (rebalance.go), which re-shards between iterations.
	var co *compactOutcome
	if cfg.elastic() {
		eo, err := runElastic(tr, net, cfg, res, pr)
		if err != nil {
			return nil, err
		}
		co = eo.compactOutcome
		res.HaloBytes = eo.HaloBytes
		res.RemoteTNFrac = remoteTNFrac(eo.LocalTNs, eo.RemoteTNs)
		res.Checkpoints = eo.Checkpoints
		res.CheckpointBytes = eo.CheckpointBytes
		res.CheckpointCycles = eo.CheckpointCycles
		res.FaultsInjected = eo.FaultsInjected
		res.NodesLost = eo.NodesLost
		res.Recoveries = eo.Recoveries
		res.LostIterations = eo.LostIterations
		res.RecoveryCycles = eo.RecoveryCycles
		res.RepartitionBytes = eo.RepartitionBytes
	} else {
		run, err := newRun(tr, net, cfg)
		if err != nil {
			return nil, err
		}
		run.setProbes(pr)
		co = finishRun(run, cfg, res, 0)
	}
	finalize(res, co)
	if pr != nil {
		pr.seal()
	}
	return res, nil
}

// validateRun performs the shared entry checks of Simulate, Checkpoint and
// Restore and builds the interconnect.
func validateRun(tr *trace.Trace, cfg Config) (topo.Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr == nil {
		return nil, fmt.Errorf("scaleout: nil trace")
	}
	if tr.K != cfg.K {
		return nil, fmt.Errorf("scaleout: trace k=%d but config K=%d", tr.K, cfg.K)
	}
	return cfg.Topo.Build(cfg.Nodes)
}

// runPrelude executes the pre-compaction pipeline — distributed counting
// (phase 1) and MacroNode construction (phase 2) — and returns a Result
// with those phases and the per-node software statistics filled in. The
// checkpoint layer snapshots exactly these fields, so a restored run can
// skip the software phases entirely. A non-nil pr records the phase spans
// and the exchanges' link occupancy on the run's timeline.
func runPrelude(reads []readsim.Read, cfg Config, net topo.Network, pr *probes) (*Result, error) {
	n := cfg.Nodes
	sw := cfg.Software
	res := &Result{
		Nodes: n, Partitioner: cfg.Partitioner.Name(), Topology: net.Name(),
		PerNode: make([]NodeStats, n),
	}

	// Phase 1: distributed counting.
	sc, err := CountSharded(reads, cfg)
	if err != nil {
		return nil, err
	}
	var extract, merge sim.Cycle
	for i := 0; i < n; i++ {
		e := sc.ExtractedPerNode[i]
		c := sim.Cycle(sw.ExtractCyclesPerKmer*float64(e) + sw.SortCyclesPerKmer*float64(e)*log2(e))
		if c > extract {
			extract = c
		}
		m := sim.Cycle(sw.MergeCyclesPerRecord * float64(sc.RecordsToNode[i]))
		if m > merge {
			merge = m
		}
		res.PerNode[i].Reads = sc.ReadsPerNode[i]
		res.PerNode[i].KmersExtracted = e
		res.PerNode[i].KmersOwned = len(sc.Shards[i].Kmers)
	}
	var cx topo.ExchangeStats
	if pr != nil {
		cx = topo.ExchangeProbed(net, sc.CountExchange, pr.linkAt(extract+merge))
	} else {
		cx = topo.Exchange(net, sc.CountExchange)
	}
	res.Count = PhaseCycles{Compute: extract + merge, Exchange: cx.Cycles, Barrier: net.BarrierCycles()}
	res.ExchangedBytes += cx.TotalBytes

	// Phase 2: distributed MacroNode construction. The model needs only
	// each node's MacroNode count, so the records are routed as
	// BuildShardGraphs routes them and their distinct keys counted, without
	// building the graphs.
	sg, inbox := sc.routeGraph(cfg)
	macroNodes := macroNodeCounts(inbox, cfg.K, cfg.Workers)
	var construct sim.Cycle
	for i := 0; i < n; i++ {
		c := sim.Cycle(sw.ConstructCyclesPerRecord * float64(sg.RecvPerNode[i]))
		if c > construct {
			construct = c
		}
		res.PerNode[i].MacroNodes = macroNodes[i]
	}
	var gx topo.ExchangeStats
	if pr != nil {
		gx = topo.ExchangeProbed(net, sg.GraphExchange, pr.linkAt(res.Count.Total()+construct))
	} else {
		gx = topo.Exchange(net, sg.GraphExchange)
	}
	res.Construct = PhaseCycles{Compute: construct, Exchange: gx.Cycles, Barrier: net.BarrierCycles()}
	res.ExchangedBytes += gx.TotalBytes
	if pr != nil {
		pr.prelude(res)
	}
	return res, nil
}

// finalize folds a compaction outcome into the prelude result and derives
// the aggregate metrics.
func finalize(res *Result, co *compactOutcome) {
	n := res.Nodes
	res.NMP = co.NMP
	res.Compact = co.Phase
	res.ExchangedBytes += co.ExchangedBytes
	for i := 0; i < n; i++ {
		for _, d := range co.Durations[i] {
			res.PerNode[i].CompactCycles += d
		}
	}

	res.TotalCycles = res.Count.Total() + res.Construct.Total() + res.Compact.Total()
	res.Seconds = sim.Seconds(res.TotalCycles)
	// Communication = interconnect time: the exchanges plus the
	// interconnect share of every barrier (the NMP runtime's own sync
	// barrier exists on a single node too, so it stays out; in overlapped
	// mode Compact.Exchange is the exposed — unhidden — link time).
	res.CommCycles = res.Count.Exchange + res.Construct.Exchange + res.Compact.Exchange +
		res.Count.Barrier + res.Construct.Barrier + co.LinkBarrier
	if res.TotalCycles > 0 {
		res.CommFraction = float64(res.CommCycles) / float64(res.TotalCycles)
	}
	var sum sim.Cycle
	var slowest sim.Cycle
	for i := 0; i < n; i++ {
		sum += res.PerNode[i].CompactCycles
		if res.PerNode[i].CompactCycles > slowest {
			slowest = res.PerNode[i].CompactCycles
		}
	}
	if sum > 0 {
		res.Imbalance = float64(slowest) * float64(n) / float64(sum)
	}
}

// log2 returns log base 2 of x, 0 for x < 2.
func log2(x int64) float64 {
	if x < 2 {
		return 0
	}
	return math.Log2(float64(x))
}
