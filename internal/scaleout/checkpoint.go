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
//   - for a RebalancePartitioner: the runtime's migration state
//     (rebalancer) — the migrated ownership table and the measurements
//     (cumulative and last-iteration busy times, bucket weights) the next
//     migration decision reads, plus the accumulated migration/halo
//     accounting.
//
// The sharded sub-traces and link clocks are deliberately NOT in the blob:
// sharding is a pure function of (trace, partitioner table), so a restore
// shards only the iterations it still runs (the whole-trace traffic split
// it needs of the rest is memoized on the trace), and every topo link
// clock is reconstructed by the deterministic schedule replay. That keeps
// the blob small (engine timing state + durations, not the trace) and
// keeps one source of truth.
//
// A blob is the magic, a version tag and CheckpointState in
// encoding/gob's wire format. The bytes are gob's, but no reflection
// writes or reads them: codec.go's hand-written encoder emits a pinned
// type section, then the value message, straight from the runtime's live
// state, and its decoder reads them back into fresh memory. A capture
// reads the engines and the migration state in place (nmp.Engine.View)
// instead of deep-copying them, and an elastic capture writes into the
// buffer of the blob it replaces.
//
// Restore refuses blobs it cannot honour: short or truncated blobs, an
// unknown version tag, and any drift between the blob's recorded identity
// (node count, K, discipline, partitioner, topology, full config digest,
// trace digest) and the (trace, Config) presented at restore time.
package scaleout

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

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
// version tag and the payload: CheckpointState in encoding/gob's wire
// format, written and read by hand (codec.go) after a pinned type section.
const checkpointMagic = "NMPPAK-CKPT\n"

// ErrElasticConfig is wrapped by Checkpoint, Restore and the Session
// constructors when the configuration is elastic (CheckpointEvery /
// Faults): elastic runs manage their own in-memory recovery checkpoint
// and are not externally pause-and-resumable. Schedulers detect
// non-preemptible jobs with errors.Is(err, ErrElasticConfig) — the
// tenancy layer queues such fault-plan tenants on dedicated nodes instead
// of time-slicing them.
var ErrElasticConfig = errors.New("elastic config (CheckpointEvery/Faults) manages its own recovery checkpoints")

// deterministic rejects an elastic config at an entry point (op) that
// pauses or resumes a run from outside.
func deterministic(op string, cfg Config) error {
	if cfg.elastic() {
		return fmt.Errorf("scaleout: %s pauses and resumes deterministic runs only; %w", op, ErrElasticConfig)
	}
	return nil
}

// RebalanceState is a rebalancing run's extra checkpoint state: the
// migrated bucket table and the measurements feeding the next migration
// decision.
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
	s, err := open(reads, tr, cfg, nil, func(cfg Config) error {
		if err := deterministic("Checkpoint", cfg); err != nil {
			return err
		}
		if iters := len(tr.Iterations); beforeIter < 0 || beforeIter > iters {
			return fmt.Errorf("scaleout: checkpoint iteration %d outside [0, %d]", beforeIter, iters)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Advance the compaction runtime to the pause point. The engines are
	// stepped on their local back-to-back clocks (identical in both
	// disciplines — the schedule only composes durations on the global
	// timeline). A BSP capture also accumulates the partial superstep
	// sums its restore resumes from; an overlapped capture only steps the
	// engines (its restore replays the macro-schedule from the recorded
	// durations and never reads the sums, which stay zero). An
	// instrumented BSP capture records the executed iteration range plus
	// a checkpoint marker at the pause point; the overlapped capture has
	// no global schedule of its own, so it records only the software
	// phases and the marker.
	s.Step(beforeIter)
	blob, err := s.Checkpoint()
	if err != nil {
		return nil, err
	}
	if pr := s.pr; pr != nil {
		at := pr.base + s.run.clock.now()
		pr.phases.Add(telemetry.SpanCheckpoint, at, at, int64(beforeIter), 0)
		pr.seal()
	}
	return blob, nil
}

// blob appends the runtime's state at boundary it to dst as a checkpoint
// blob: the identity and prelude header, then one section — an elastic
// run's membership and committed traffic (no BSP partial sums: its global
// clock never rolls back), otherwise the BSP partial sums and a
// rebalancing run's migration state — then the executed durations and
// the per-node engine states. The CheckpointState it marshals reads the
// live state in place: durations, per-node statistics, the live mask, the
// migration state and every engine's View. Session.Checkpoint, the
// periodic elastic capture and the post-recovery baseline all write
// through it, so an incrementally advanced session snapshots
// byte-identically to a one-shot Checkpoint at the same boundary.
func (rt *runtime) blob(it int, dst []byte) ([]byte, error) {
	cfg, c := rt.cfg, &rt.clock
	if rt.ident == nil {
		name := rt.deg.Name()
		rt.ident = &CheckpointState{
			Version:      CheckpointVersion,
			ConfigDigest: configDigest(cfg, name),
			TraceDigest:  rt.tr.Digest(),
			Nodes:        cfg.Nodes,
			K:            cfg.K,
			Overlap:      cfg.Overlap,
			Partitioner:  cfg.Partitioner.Name(),
			Topology:     name,
		}
	}
	ck := *rt.ident
	ck.Count, ck.Construct, ck.PerNode = rt.res.Count, rt.res.Construct, rt.res.PerNode
	ck.PreludeExchangedBytes, ck.ResumeIter = rt.res.ExchangedBytes, it
	ck.Durations = make([][]sim.Cycle, rt.n)
	ck.Engines = make([]nmp.EngineState, rt.n)
	if cfg.elastic() {
		t := rt.feed.traffic
		ck.Elastic = &ElasticState{Live: rt.live, LocalTNs: t.localTNs, RemoteTNs: t.remoteTNs, HaloBytes: t.haloBytes}
	} else {
		ck.Compute, ck.Exchange, ck.CompactExchangedBytes = c.compute, c.exchange, c.exchangedBytes
		if rt.rb != nil {
			ck.Rebalance = rt.rb.state(rt.feed.traffic)
		}
	}
	for i, e := range rt.engines {
		ck.Durations[i] = rt.durations[i][:it]
		var err error
		if ck.Engines[i], err = e.View(); err != nil {
			return nil, err
		}
	}
	return ck.appendTo(dst)
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
	// An instrumented restore records the software phases from the blob's
	// timing and the live compaction range: the BSP disciplines re-enter
	// the global timeline at the checkpointed partial sums, the overlapped
	// discipline replays its whole macro-schedule (so even the pre-pause
	// iterations get spans, with recorded durations standing in).
	s, err := open(nil, tr, cfg, ck, func(cfg Config) error { return deterministic("Restore", cfg) })
	if err != nil {
		return nil, err
	}
	return s.Finish()
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

// Marshal encodes the checkpoint as magic + version tag + payload, the
// payload being encoding/gob's bytes for ck written by hand (codec.go):
// the pinned type section, then the value. Encoding is deterministic:
// the same state always yields the same bytes.
func (ck *CheckpointState) Marshal() ([]byte, error) {
	return ck.appendTo(nil)
}

// UnmarshalCheckpoint decodes and structurally validates a checkpoint
// blob. It returns an error — never panics — on truncated input, a wrong
// magic or version tag, or internally inconsistent state. The decoded
// state shares no memory with blob.
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
	ck, err := decodeCheckpoint(blob[head:])
	if err != nil {
		return nil, err
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

// matches verifies the blob belongs to the presented (trace, Config) pair
// and that each engine's clock agrees with its recorded durations.
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
	// Every engine ran its iterations back to back, one sync barrier
	// apart, so its clock is its recorded durations plus the barriers
	// between them.
	for i, st := range ck.Engines {
		var want sim.Cycle
		for _, d := range ck.Durations[i] {
			want += d
		}
		if st.Next > 0 {
			want += nmp.SyncBarrierCycles * sim.Cycle(st.Next-1)
		}
		if st.Clock != want {
			return fmt.Errorf("scaleout: checkpoint node %d engine clock %d, its durations and sync barriers sum to %d", i, st.Clock, want)
		}
	}
	return nil
}

// configDigest fingerprints every configuration field the simulation
// outcome depends on. Workers is deliberately excluded: it bounds host
// parallelism while computing the (deterministic) result, so a blob may be
// restored on a machine with a different core count. The "/0" after the
// cadence is the text's checkpoint I/O rate slot, which reads 0 for the
// fixed DefaultCheckpointBytesPerCycle, and nmp.Config.Fingerprint and
// topo.Config.Fingerprint print the node model and the interconnect in
// the layouts they had when all of them was settable; changing the text
// would orphan every existing blob.
func configDigest(cfg Config, topoName string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "nodes=%d k=%d min=%d overlap=%v part=%s topo=%s|%s nmp=%s sw=%+v ckpt=%d/0 faults=%s",
		cfg.Nodes, cfg.K, cfg.MinCount, cfg.Overlap,
		cfg.Partitioner.id(), topoName, cfg.Topo.Fingerprint(), cfg.NMP.Fingerprint(), software,
		cfg.CheckpointEvery, cfg.Faults.Fingerprint())
	return h.Sum64()
}
