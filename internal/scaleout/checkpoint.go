// Checkpoint/restore for the distributed runtime: a paused run is
// exported as a versioned, deterministic byte blob between compaction
// iterations and later reconstructed into a runtime that resumes and
// finishes with results bit-identical to the uninterrupted run.
//
// What goes in the blob is exactly the state that is not a pure function
// of the immutable inputs (reads, trace, Config):
//
//   - the pre-compaction phases (counting, construction): their timing and
//     per-node software statistics, so a restored run never re-runs the
//     software pipeline;
//   - each node's stepwise nmp.Engine: trace cursor, local clock,
//     accumulated result and every DRAM channel's bank/rank/bus timing
//     (nmp.EngineState) — the engines are quiescent between iterations, so
//     this snapshot is complete;
//   - the measured per-node, per-iteration compute durations of the
//     iterations already executed. The BSP discipline resumes from partial
//     superstep sums; the overlapped discipline replays its global
//     event-driven macro-schedule from cycle 0 with the recorded durations
//     standing in for the already-executed engine steps (the schedule is a
//     deterministic function of durations × halo traffic × topology, so
//     the replay reproduces the uninterrupted timeline exactly while
//     skipping the engine micro-simulation);
//   - for a RebalancePartitioner: the migrated ownership table and the
//     measurement state (cumulative and last-iteration busy times, bucket
//     weights) the next migration decision reads, plus the accumulated
//     migration/halo accounting.
//
// The sharded sub-traces and link clocks are deliberately NOT in the blob:
// sharding is a pure function of (trace, partitioner table) and is
// recomputed on restore, and every topo link clock is reconstructed by the
// deterministic schedule replay. That keeps the blob small (engine timing
// state + durations, not the trace) and keeps one source of truth.
//
// Restore refuses blobs it cannot honour: short or truncated blobs, an
// unknown version tag, and any drift between the blob's recorded identity
// (node count, K, discipline, partitioner, topology, full config digest,
// trace digest) and the (trace, Config) presented at restore time.
package scaleout

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"

	"nmppak/internal/dna"
	"nmppak/internal/nmp"
	"nmppak/internal/readsim"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// CheckpointVersion is the current blob format version. Restore rejects
// any other version; bump it whenever CheckpointState (or anything it
// embeds, such as nmp.EngineState) changes incompatibly.
// Version 2 added the elastic membership section (ElasticState).
const CheckpointVersion = 2

// Structural ceilings applied while validating a decoded blob, before any
// of its counts size an allocation or a loop: far above any simulated
// machine, low enough that a corrupt or adversarial length field cannot
// make Restore balloon.
const (
	maxCheckpointNodes = 1 << 16
	maxCheckpointIters = 1 << 24
)

// checkpointMagic prefixes every blob, before the little-endian uint32
// version tag and the gob-encoded CheckpointState payload.
const checkpointMagic = "NMPPAK-CKPT\n"

// ErrElasticConfig is wrapped by Checkpoint and Restore when the
// configuration routes through the elastic runtime (CheckpointEvery /
// Faults): elastic runs manage their own in-memory recovery checkpoint
// and are not externally pause-and-resumable. Schedulers detect
// non-preemptible jobs with errors.Is(err, ErrElasticConfig) — the
// tenancy layer queues such fault-plan tenants on dedicated nodes instead
// of time-slicing them.
var ErrElasticConfig = errors.New("elastic config (CheckpointEvery/Faults) manages its own recovery checkpoints")

// RebalanceState is the dynamic-ownership runtime's extra checkpoint
// state: the migrated bucket table and the measurements feeding the next
// migration decision.
type RebalanceState struct {
	// Table is the super-bucket ownership table after the migrations
	// performed so far.
	Table []uint16
	// Cum and LastDur are the measured cumulative and last-iteration busy
	// times per node; Weight is the last iteration's per-bucket traced
	// MacroNode bytes.
	Cum     []sim.Cycle
	LastDur []sim.Cycle
	Weight  []int64
	// Accumulated traffic and migration accounting over the executed
	// iterations.
	LocalTNs      int64
	RemoteTNs     int64
	HaloBytes     int64
	Rebalances    int
	MigratedBytes int64
}

// ElasticState is the elastic runtime's extra checkpoint state: the live
// membership the blob was captured under and the committed logical
// traffic counters a recovery rolls back to. Present exactly on the
// in-memory recovery blobs the elastic runtime captures
// (Config.CheckpointEvery / Config.Faults); the external Checkpoint/Restore
// surface never carries it.
type ElasticState struct {
	// Live[i] reports whether node i was still alive at capture time; a
	// dead node's engine is frozen at its own last committed iteration
	// (Engines[i].Next <= ResumeIter).
	Live []bool
	// Committed halo accounting up to ResumeIter.
	LocalTNs  int64
	RemoteTNs int64
	HaloBytes int64
}

// CheckpointState is the decoded form of a checkpoint blob: everything a
// Restore needs beyond the immutable (trace, Config) inputs. Most callers
// only move the opaque blob around; the struct is exported so tools and
// the conformance harness can introspect it.
type CheckpointState struct {
	Version uint32

	// Identity of the run the blob belongs to. Restore matches these
	// against the presented configuration and trace.
	ConfigDigest uint64
	TraceDigest  uint64
	Nodes        int
	K            int
	Overlap      bool
	Partitioner  string
	Topology     string

	// Pre-compaction result (phases 1 and 2 plus per-node software
	// statistics), so a restored run skips the software pipeline.
	Count                 PhaseCycles
	Construct             PhaseCycles
	PerNode               []NodeStats
	PreludeExchangedBytes int64

	// ResumeIter is the first compaction iteration still to execute;
	// Durations[i][it] holds node i's measured compute time for every
	// it < ResumeIter, and Engines[i] is node i's quiescent mid-run state.
	ResumeIter int
	Durations  [][]sim.Cycle
	Engines    []nmp.EngineState

	// BSP partial sums over the executed iterations (ignored by the
	// overlapped discipline, which replays its schedule from the recorded
	// durations instead).
	Compute               sim.Cycle
	Exchange              sim.Cycle
	CompactExchangedBytes int64

	// Rebalance is present exactly when the run uses a
	// RebalancePartitioner.
	Rebalance *RebalanceState

	// Elastic is present exactly on the elastic runtime's internal
	// recovery blobs (see ElasticState).
	Elastic *ElasticState
}

// Checkpoint runs the scale-out pipeline — the software phases and the
// first beforeIter compaction iterations — and exports the paused state as
// a versioned, deterministic blob instead of finishing. beforeIter may be
// 0 (pause right after MacroNode construction) up to the trace's iteration
// count (pause after the last iteration, before sealing). The same
// (reads, trace, cfg, beforeIter) always yields a byte-identical blob.
//
// Restore(tr, cfg, blob) — same trace, same config — resumes the run and
// returns a Result bit-identical to Simulate(reads, tr, cfg).
func Checkpoint(reads []readsim.Read, tr *trace.Trace, cfg Config, beforeIter int) ([]byte, error) {
	net, err := validateRun(tr, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.elastic() {
		return nil, fmt.Errorf("scaleout: Checkpoint pauses a deterministic run; %w", ErrElasticConfig)
	}
	iters := len(tr.Iterations)
	if beforeIter < 0 || beforeIter > iters {
		return nil, fmt.Errorf("scaleout: checkpoint iteration %d outside [0, %d]", beforeIter, iters)
	}
	// A capture can be instrumented too: the BSP disciplines record the
	// executed iteration range plus a checkpoint marker at the pause point
	// (the overlapped capture has no global schedule of its own — its
	// restore replays the whole macro-schedule — so it records only the
	// software phases and the marker).
	var pr *probes
	if cfg.Telemetry != nil {
		pr = newProbes(cfg.Telemetry, net, cfg, iters)
	}
	res, err := runPrelude(reads, cfg, net, pr)
	if err != nil {
		return nil, err
	}
	ck := checkpointHeader(cfg, net, tr, res, beforeIter)

	// Advance the compaction runtime to the pause point. The engines are
	// stepped on their local back-to-back clocks (identical in both
	// disciplines — the schedule only composes durations on the global
	// timeline). A BSP capture also accumulates the partial superstep
	// sums its restore resumes from; an overlapped capture only steps the
	// engines (its restore replays the macro-schedule from the recorded
	// durations and never reads the sums, which stay zero).
	run, err := newRun(tr, net, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Overlap {
		rt := run.(*runtime)
		prestep(rt.engines, nil, rt.durations, 0, beforeIter, cfg.Workers, nil)
	} else {
		run.setProbes(pr)
		run.advance(0, beforeIter)
	}
	if err := run.snapshot(ck); err != nil {
		return nil, err
	}
	if pr != nil {
		at := pr.base + run.phase().now()
		pr.phases.Add(telemetry.SpanCheckpoint, at, at, int64(beforeIter), 0)
		pr.seal()
	}
	return ck.Marshal()
}

// checkpointHeader builds the identity and prelude sections of a
// CheckpointState from a prelude Result: everything except the live
// compaction-runtime state (durations, engines, partial sums). Shared by
// Checkpoint and Session.Checkpoint so an incrementally advanced session
// snapshots byte-identically to a one-shot capture at the same boundary.
func checkpointHeader(cfg Config, net topo.Network, tr *trace.Trace, res *Result, beforeIter int) *CheckpointState {
	return &CheckpointState{
		Version:               CheckpointVersion,
		ConfigDigest:          configDigest(cfg, net.Name()),
		TraceDigest:           tr.Digest(),
		Nodes:                 cfg.Nodes,
		K:                     cfg.K,
		Overlap:               cfg.Overlap,
		Partitioner:           cfg.Partitioner.Name(),
		Topology:              net.Name(),
		Count:                 res.Count,
		Construct:             res.Construct,
		PerNode:               res.PerNode,
		PreludeExchangedBytes: res.ExchangedBytes,
		ResumeIter:            beforeIter,
	}
}

// snapshot implements phaseRun.
func (rt *runtime) snapshot(ck *CheckpointState) error {
	rt.clock.save(ck)
	return snapshotInto(ck, rt.durations, rt.engines)
}

// snapshot implements phaseRun.
func (rr *rebalanceRun) snapshot(ck *CheckpointState) error {
	rr.clock.save(ck)
	ck.Rebalance = rr.state()
	return snapshotInto(ck, rr.durations, rr.engines)
}

// snapshotInto records the executed durations and the per-node engine
// snapshots on the checkpoint.
func snapshotInto(ck *CheckpointState, durations [][]sim.Cycle, engines []*nmp.Engine) error {
	ck.Durations = make([][]sim.Cycle, len(engines))
	ck.Engines = make([]nmp.EngineState, len(engines))
	for i, e := range engines {
		ck.Durations[i] = append([]sim.Cycle(nil), durations[i][:ck.ResumeIter]...)
		st, err := e.Snapshot()
		if err != nil {
			return err
		}
		ck.Engines[i] = st
	}
	return nil
}

// Restore reconstructs a distributed run from a checkpoint blob — taken
// under the same trace and configuration — and drives it to completion.
// The returned Result is bit-identical to the uninterrupted
// Simulate(reads, tr, cfg) the checkpoint was carved out of; the reads
// themselves are not needed, because the blob carries the software-phase
// outcome.
func Restore(tr *trace.Trace, cfg Config, blob []byte) (*Result, error) {
	ck, err := UnmarshalCheckpoint(blob)
	if err != nil {
		return nil, err
	}
	net, err := validateRun(tr, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.elastic() {
		return nil, fmt.Errorf("scaleout: Restore resumes a deterministic run; %w", ErrElasticConfig)
	}
	if err := ck.matches(tr, cfg, net); err != nil {
		return nil, err
	}
	res := ck.resumedResult(cfg, net)
	// An instrumented restore records the software phases from the blob's
	// timing and the live compaction range: the BSP disciplines re-enter
	// the global timeline at the checkpointed partial sums, the overlapped
	// discipline replays its whole macro-schedule (so even the pre-pause
	// iterations get spans, with recorded durations standing in).
	var pr *probes
	if cfg.Telemetry != nil {
		pr = newProbes(cfg.Telemetry, net, cfg, len(tr.Iterations))
		pr.prelude(res)
	}
	run, err := resumeRun(tr, net, cfg, ck)
	if err != nil {
		return nil, err
	}
	run.setProbes(pr)
	finalize(res, finishRun(run, cfg, res, ck.ResumeIter))
	if pr != nil {
		pr.seal()
	}
	return res, nil
}

// resumedResult is the Result a restored run continues from: the
// software phases and per-node statistics the blob carries.
func (ck *CheckpointState) resumedResult(cfg Config, net topo.Network) *Result {
	return &Result{
		Nodes:          cfg.Nodes,
		Partitioner:    cfg.Partitioner.Name(),
		Topology:       net.Name(),
		Count:          ck.Count,
		Construct:      ck.Construct,
		PerNode:        append([]NodeStats(nil), ck.PerNode...),
		ExchangedBytes: ck.PreludeExchangedBytes,
	}
}

// resumeRuntime rebuilds the static-partitioner runtime at the blob's
// pause point: restored engines, recorded durations, BSP partial sums.
func resumeRuntime(st *ShardedTrace, net topo.Network, cfg Config, ck *CheckpointState) (*runtime, error) {
	iters := len(st.Traces[0].Iterations)
	rt := &runtime{
		cfg:       cfg,
		st:        st,
		net:       net,
		iters:     iters,
		start:     ck.ResumeIter,
		engines:   make([]*nmp.Engine, cfg.Nodes),
		durations: make([][]sim.Cycle, cfg.Nodes),
		clock:     newPhaseClock(net, cfg, iters),
	}
	rt.clock.restore(ck)
	for i := range rt.engines {
		e, err := nmp.ResumeEngine(st.Traces[i], cfg.NMP, ck.Engines[i])
		if err != nil {
			return nil, err
		}
		rt.engines[i] = e
		rt.durations[i] = make([]sim.Cycle, iters)
		copy(rt.durations[i], ck.Durations[i])
	}
	return rt, nil
}

// resumeRebalanceRun rebuilds the dynamic-ownership run at the blob's
// pause point. The per-node sub-traces of the executed iterations are
// replaced by empty placeholders (a resumed engine never reads behind its
// cursor); only the iteration-0 quantile tables — the engines' static DIMM
// mapping option — are reconstructed, by re-sharding iteration 0 under the
// deterministic initial assignment the run started from.
func resumeRebalanceRun(tr *trace.Trace, net topo.Network, cfg Config, p *RebalancePartitioner, ck *CheckpointState) (*rebalanceRun, error) {
	rr := newRebalanceState(tr, net, cfg, p)
	rs := ck.Rebalance
	copy(rr.table, rs.Table)
	copy(rr.cum, rs.Cum)
	copy(rr.lastDur, rs.LastDur)
	copy(rr.weight, rs.Weight)
	rr.clock.restore(ck)
	rr.out.LocalTNs, rr.out.RemoteTNs, rr.out.HaloBytes = rs.LocalTNs, rs.RemoteTNs, rs.HaloBytes
	rr.out.Rebalances, rr.out.MigratedBytes = rs.Rebalances, rs.MigratedBytes
	for i := range rr.durations {
		copy(rr.durations[i], ck.Durations[i])
	}

	var quantiles [][]dna.Kmer
	if ck.ResumeIter > 0 && rr.iters > 0 {
		init := make([]uint16, BalancedBuckets)
		for b := range init {
			init[b] = uint16(initialOwner(b, rr.n))
		}
		subs, _, _, _ := shardIteration(&tr.Iterations[0], rr.n,
			func(key dna.Kmer) int { return int(init[p.bucket(key, rr.k1)]) }, mat(rr.n))
		quantiles = make([][]dna.Kmer, rr.n)
		for o := range subs {
			quantiles[o] = subs[o].Quantiles
		}
	}
	for i := 0; i < rr.n; i++ {
		rr.traces[i] = &trace.Trace{K: tr.K, Iterations: make([]trace.Iteration, ck.ResumeIter)}
		if quantiles != nil {
			rr.traces[i].Quantiles = quantiles[i]
		}
		e, err := nmp.ResumeEngine(rr.traces[i], cfg.NMP, ck.Engines[i])
		if err != nil {
			return nil, err
		}
		rr.engines[i] = e
	}
	return rr, nil
}

// Marshal encodes the checkpoint as magic + version tag + gob payload.
// Encoding is deterministic: the same state always yields the same bytes.
func (ck *CheckpointState) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	var vtag [4]byte
	binary.LittleEndian.PutUint32(vtag[:], ck.Version)
	buf.Write(vtag[:])
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return nil, fmt.Errorf("scaleout: checkpoint encode: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalCheckpoint decodes and structurally validates a checkpoint
// blob. It returns an error — never panics — on truncated input, a wrong
// magic or version tag, or internally inconsistent state.
func UnmarshalCheckpoint(blob []byte) (*CheckpointState, error) {
	head := len(checkpointMagic) + 4
	if len(blob) < head {
		return nil, fmt.Errorf("scaleout: checkpoint blob truncated (%d bytes, header is %d)", len(blob), head)
	}
	if string(blob[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("scaleout: not a checkpoint blob (bad magic)")
	}
	v := binary.LittleEndian.Uint32(blob[len(checkpointMagic):head])
	if v != CheckpointVersion {
		return nil, fmt.Errorf("scaleout: checkpoint version %d unsupported (this build reads version %d)", v, CheckpointVersion)
	}
	ck := &CheckpointState{}
	r := bytes.NewReader(blob[head:])
	if err := gob.NewDecoder(r).Decode(ck); err != nil {
		return nil, fmt.Errorf("scaleout: checkpoint decode (truncated or corrupt blob): %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("scaleout: checkpoint blob has %d trailing bytes past the payload", r.Len())
	}
	if ck.Version != v {
		return nil, fmt.Errorf("scaleout: checkpoint header version %d does not match payload version %d", v, ck.Version)
	}
	if err := ck.validate(); err != nil {
		return nil, err
	}
	return ck, nil
}

// validate checks the decoded state's internal consistency, so Restore
// can index into it without panicking even on adversarial blobs.
func (ck *CheckpointState) validate() error {
	if ck.Nodes < 1 || ck.Nodes > maxCheckpointNodes {
		return fmt.Errorf("scaleout: checkpoint has %d nodes (valid range [1, %d])", ck.Nodes, maxCheckpointNodes)
	}
	if ck.ResumeIter < 0 || ck.ResumeIter > maxCheckpointIters {
		return fmt.Errorf("scaleout: checkpoint resume iteration %d outside [0, %d]", ck.ResumeIter, maxCheckpointIters)
	}
	if len(ck.PerNode) != ck.Nodes || len(ck.Engines) != ck.Nodes || len(ck.Durations) != ck.Nodes {
		return fmt.Errorf("scaleout: checkpoint per-node state sized %d/%d/%d for %d nodes",
			len(ck.PerNode), len(ck.Engines), len(ck.Durations), ck.Nodes)
	}
	if es := ck.Elastic; es != nil {
		if len(es.Live) != ck.Nodes {
			return fmt.Errorf("scaleout: checkpoint live mask sized %d for %d nodes", len(es.Live), ck.Nodes)
		}
		alive := 0
		for _, l := range es.Live {
			if l {
				alive++
			}
		}
		if alive == 0 {
			return fmt.Errorf("scaleout: checkpoint live mask has no survivors")
		}
	}
	for i := range ck.Durations {
		if len(ck.Durations[i]) != ck.ResumeIter {
			return fmt.Errorf("scaleout: checkpoint node %d records %d durations, resume iteration is %d",
				i, len(ck.Durations[i]), ck.ResumeIter)
		}
		// A dead node of an elastic blob is frozen at its own last
		// committed iteration; everyone else must be exactly at the
		// resume point.
		if ck.Elastic != nil && !ck.Elastic.Live[i] {
			if ck.Engines[i].Next < 0 || ck.Engines[i].Next > ck.ResumeIter {
				return fmt.Errorf("scaleout: checkpoint dead node %d engine cursor %d outside [0, %d]",
					i, ck.Engines[i].Next, ck.ResumeIter)
			}
		} else if ck.Engines[i].Next != ck.ResumeIter {
			return fmt.Errorf("scaleout: checkpoint node %d engine cursor %d, resume iteration is %d",
				i, ck.Engines[i].Next, ck.ResumeIter)
		}
	}
	if rs := ck.Rebalance; rs != nil {
		if len(rs.Table) != BalancedBuckets || len(rs.Weight) != BalancedBuckets {
			return fmt.Errorf("scaleout: checkpoint rebalance tables sized %d/%d, want %d",
				len(rs.Table), len(rs.Weight), BalancedBuckets)
		}
		if len(rs.Cum) != ck.Nodes || len(rs.LastDur) != ck.Nodes {
			return fmt.Errorf("scaleout: checkpoint rebalance measurements sized %d/%d for %d nodes",
				len(rs.Cum), len(rs.LastDur), ck.Nodes)
		}
		for b, o := range rs.Table {
			if int(o) >= ck.Nodes {
				return fmt.Errorf("scaleout: checkpoint rebalance bucket %d owned by node %d of %d", b, o, ck.Nodes)
			}
		}
	}
	return nil
}

// matches verifies the blob belongs to the presented (trace, Config) pair.
func (ck *CheckpointState) matches(tr *trace.Trace, cfg Config, net topo.Network) error {
	if cfg.Nodes != ck.Nodes {
		return fmt.Errorf("scaleout: checkpoint taken on %d nodes, config has %d", ck.Nodes, cfg.Nodes)
	}
	if cfg.K != ck.K {
		return fmt.Errorf("scaleout: checkpoint taken at K=%d, config has K=%d", ck.K, cfg.K)
	}
	if cfg.Overlap != ck.Overlap {
		return fmt.Errorf("scaleout: checkpoint taken with overlap=%v, config has overlap=%v", ck.Overlap, cfg.Overlap)
	}
	if name := cfg.Partitioner.Name(); name != ck.Partitioner {
		return fmt.Errorf("scaleout: checkpoint taken under partitioner %q, config has %q", ck.Partitioner, name)
	}
	if name := net.Name(); name != ck.Topology {
		return fmt.Errorf("scaleout: checkpoint taken on topology %q, config builds %q", ck.Topology, name)
	}
	if _, isRb := cfg.Partitioner.(*RebalancePartitioner); isRb != (ck.Rebalance != nil) {
		return fmt.Errorf("scaleout: checkpoint rebalance state presence (%v) does not match the partitioner", ck.Rebalance != nil)
	}
	if ck.Elastic != nil {
		return fmt.Errorf("scaleout: blob carries elastic membership state (an internal recovery checkpoint); only the elastic runtime restores it")
	}
	if d := configDigest(cfg, net.Name()); d != ck.ConfigDigest {
		return fmt.Errorf("scaleout: configuration digest %016x does not match checkpoint %016x", d, ck.ConfigDigest)
	}
	if ck.ResumeIter > len(tr.Iterations) {
		return fmt.Errorf("scaleout: checkpoint resumes at iteration %d, trace has %d", ck.ResumeIter, len(tr.Iterations))
	}
	if d := tr.Digest(); d != ck.TraceDigest {
		return fmt.Errorf("scaleout: trace digest %016x does not match checkpoint %016x", d, ck.TraceDigest)
	}
	return nil
}

// configDigest fingerprints every configuration field the simulation
// outcome depends on. Workers is deliberately excluded: it bounds host
// parallelism while computing the (deterministic) result, so a blob may be
// restored on a machine with a different core count.
func configDigest(cfg Config, topoName string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "nodes=%d k=%d min=%d overlap=%v part=%s topo=%s|%+v nmp=%+v sw=%+v ckpt=%d/%g faults=%s",
		cfg.Nodes, cfg.K, cfg.MinCount, cfg.Overlap,
		partitionerID(cfg.Partitioner), topoName, cfg.Topo, cfg.NMP, cfg.Software,
		cfg.CheckpointEvery, cfg.CheckpointBytesPerCycle, cfg.Faults.Fingerprint())
	return h.Sum64()
}

// partitionerID renders a partitioner's identity beyond its name: a
// BalancedPartitioner folds in its assignment-table fingerprint (two
// same-named instances built from different samples shard differently)
// and a RebalancePartitioner its migration trigger.
func partitionerID(p Partitioner) string {
	switch pp := p.(type) {
	case BalancedPartitioner:
		return fmt.Sprintf("%s#%016x", pp.Name(), pp.Fingerprint())
	case *BalancedPartitioner:
		// The pointer form satisfies Partitioner through the value
		// receivers; identity must not depend on which form the caller
		// happened to store.
		return fmt.Sprintf("%s#%016x", pp.Name(), pp.Fingerprint())
	case *RebalancePartitioner:
		return fmt.Sprintf("%s@%g", pp.Name(), pp.Trigger)
	default:
		return p.Name()
	}
}
