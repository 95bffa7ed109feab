// Elastic recovery for the distributed compaction runtime: periodic
// in-memory checkpoints plus a deterministic fault plan (internal/fault)
// turn the fixed-membership replay into a run that survives node loss and
// link failure mid-flight.
//
// The protocol composes three pieces that already existed separately —
// the exact engine snapshot of checkpoint.go, the ownership-change
// migration pricing of rebalance.go, and the degradable interconnect of
// topo.Degraded — into the classic rollback-recovery loop:
//
//   - Every Config.CheckpointEvery iterations the runtime captures the
//     full checkpoint blob (the same versioned bytes Checkpoint emits,
//     decoded by the same hardened UnmarshalCheckpoint on the way back)
//     in memory, replacing the previous one, and charges
//     len(blob)/CheckpointBytesPerCycle as a global stall — the
//     coordinated-checkpoint cost.
//   - fault.Plan events are applied at iteration boundaries, the first
//     point a lockstep run can act on them. Link events mutate the
//     Degraded interconnect in place (every later exchange sees the lost
//     bandwidth or the detour). A node loss is detected at the next
//     boundary: the plan's DetectCycles stall, then every node —
//     survivors live, casualties frozen — is restored from the newest
//     checkpoint blob, the work since that checkpoint is discarded, and the
//     dead node's shard fails over to the survivors
//     (key-hash-partitioned across the live set). The MacroNodes that
//     changed owners are charged over the degraded network before the
//     run resumes — the re-partition migration, priced exactly like a
//     rebalance migration.
//
// The global clock never rolls back: discarded work, detection, restore
// and migration all stay in the elapsed phase time (that is the recovery
// overhead the cadence sweep in internal/experiments measures), while the
// logical output — engine results, per-iteration durations, halo
// accounting — is rolled back and re-executed so the finished run's
// output equals a fault-free run over the surviving membership. With no
// checkpoints configured (CheckpointEvery == 0) a loss restarts the
// compaction phase from iteration 0 on the survivors, the degenerate
// cadence the sweep's zero point measures.
//
// Captures bound the epochs of the epoch driver (runtime.go): each epoch
// is sharded under the current membership, pre-stepped on the worker
// pool, then drained. Fault boundaries inside an epoch need no bound: a
// recovery rolls engines, durations, traces and counters back wholesale,
// and the drain discards the telemetry of the pre-stepped iterations it
// never reached (dropBuffered in BSP; mark/rewind of the whole segment in
// the overlapped discipline).
//
// A fault-free configuration with CheckpointEvery == 0 never enters this
// file: Simulate dispatches here only when cfg.elastic() — the legacy
// runtimes stay cycle-exact and allocation-identical.
package scaleout

import (
	"fmt"

	"nmppak/internal/dna"
	"nmppak/internal/fault"
	"nmppak/internal/nmp"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// DefaultCheckpointBytesPerCycle prices checkpoint capture and restore
// I/O when Config.CheckpointBytesPerCycle is zero: 16 B/cycle is about
// 25.6 GB/s at the modeled 1.6 GHz — a striped local NVMe target.
const DefaultCheckpointBytesPerCycle = 16

// elasticOutcome extends the compaction outcome with the traffic the
// elastic runtime accounts itself plus the recovery bookkeeping Result
// surfaces.
type elasticOutcome struct {
	*compactOutcome
	LocalTNs  int64
	RemoteTNs int64
	HaloBytes int64

	Checkpoints      int
	CheckpointBytes  int64
	CheckpointCycles sim.Cycle
	FaultsInjected   int
	NodesLost        int
	Recoveries       int
	LostIterations   int64
	RecoveryCycles   sim.Cycle
	RepartitionBytes int64
}

// recoveryPoint is a captured checkpoint: the iteration it resumes at and
// the marshaled blob (real bytes — restore decodes them through
// UnmarshalCheckpoint, so recovery exercises the same hardened path an
// on-disk blob does).
type recoveryPoint struct {
	iter int
	blob []byte
}

// elasticRun drives the fault-aware compaction replay. Its phaseClock
// tiles the phase time: halo exchanges and re-partition migrations in
// exchange (communication), link barriers in barrier with their comm
// share tracked in linkBarrier, and sync barriers, checkpoint captures,
// detection and restore stalls in barrier as protocol overhead.
type elasticRun struct {
	tr  *trace.Trace
	deg *topo.Degraded
	cfg Config
	res *Result // prelude outcome, embedded in every captured blob

	n, iters, k1 int
	every        int     // checkpoint cadence (0 = none)
	ckBPC        float64 // checkpoint capture/restore bytes per cycle

	events []fault.Event // plan events in application order
	next   int           // first pending event
	detect sim.Cycle     // failure-detection latency per recovery

	live []bool
	surv []int // live node indices, ascending (failover hash targets)

	engines   []*nmp.Engine
	traces    []*trace.Trace
	durations [][]sim.Cycle

	clock phaseClock // compaction-phase clock over the live membership

	localTNs, remoteTNs, haloBytes int64 // committed logical traffic

	cfgDigest uint64
	// ckpt is the newest checkpoint, the one a recovery restores (nil
	// before the first capture).
	ckpt *recoveryPoint

	out elasticOutcome
	pr  *probes
}

// runElastic executes the compaction phase with periodic checkpoints and
// the configured fault plan, on a degradable wrapper of net.
func runElastic(tr *trace.Trace, net topo.Network, cfg Config, res *Result, pr *probes) (*elasticOutcome, error) {
	er, err := newElasticRun(tr, net, cfg, res, pr)
	if err != nil {
		return nil, err
	}
	if cfg.Overlap {
		err = er.runOverlapped()
	} else {
		err = er.runBSP()
	}
	if err != nil {
		return nil, err
	}
	return er.finish(), nil
}

func newElasticRun(tr *trace.Trace, net topo.Network, cfg Config, res *Result, pr *probes) (*elasticRun, error) {
	n := cfg.Nodes
	er := &elasticRun{
		tr:        tr,
		deg:       topo.NewDegraded(net),
		cfg:       cfg,
		res:       res,
		n:         n,
		iters:     len(tr.Iterations),
		k1:        tr.K - 1,
		every:     cfg.CheckpointEvery,
		ckBPC:     cfg.CheckpointBytesPerCycle,
		live:      make([]bool, n),
		engines:   make([]*nmp.Engine, n),
		traces:    make([]*trace.Trace, n),
		durations: make([][]sim.Cycle, n),
		cfgDigest: configDigest(cfg, net.Name()),
		pr:        pr,
	}
	er.clock = newPhaseClock(er.deg, cfg, er.iters)
	er.clock.pr, er.clock.live = pr, er.live
	if er.ckBPC <= 0 {
		er.ckBPC = DefaultCheckpointBytesPerCycle
	}
	if cfg.Faults != nil {
		er.events = cfg.Faults.Sorted()
		er.detect = cfg.Faults.DetectCycles
	}
	for i := 0; i < n; i++ {
		er.live[i] = true
		er.surv = append(er.surv, i)
		er.traces[i] = &trace.Trace{K: tr.K}
		e, err := nmp.NewEngine(er.traces[i], cfg.NMP)
		if err != nil {
			return nil, err
		}
		er.engines[i] = e
		er.durations[i] = make([]sim.Cycle, er.iters)
	}
	if pr != nil {
		pr.attach(er.engines)
	}
	return er, nil
}

// ownerOf resolves a key under the current membership: the static
// partitioner's owner while it lives, otherwise a deterministic
// key-hashed survivor — every node computes the same failover assignment
// without coordination, like the base partitioners.
func (er *elasticRun) ownerOf(key dna.Kmer) int {
	return ownerUnder(er.cfg.Partitioner, key, er.k1, er.n, er.live, er.surv)
}

func ownerUnder(p Partitioner, key dna.Kmer, k1, n int, live []bool, surv []int) int {
	o := p.Owner(key, k1, n)
	if live[o] {
		return o
	}
	return surv[mix64(uint64(key))%uint64(len(surv))]
}

// nextLive is the replica node holding the dead node's shard copy in the
// recovery model: the next live node in ring order.
func (er *elasticRun) nextLive(i int) int {
	for d := 1; d <= er.n; d++ {
		if j := (i + d) % er.n; er.live[j] {
			return j
		}
	}
	return i
}

// pendingLoss reports whether the next boundary pass will act on a node
// loss — an event already due at the current phase time. The BSP drain
// peeks so it can drop the un-placed telemetry of pre-stepped iterations
// before the recovery's own spans are recorded.
func (er *elasticRun) pendingLoss() bool {
	now := er.clock.now()
	for _, ev := range er.events[er.next:] {
		if ev.Cycle > now {
			return false
		}
		if ev.Kind == fault.NodeLoss {
			return true
		}
	}
	return false
}

// captureDue reports whether a periodic checkpoint should be captured
// before iteration it (never re-captured after a recovery pushed a
// baseline at the same boundary).
func (er *elasticRun) captureDue(it int) bool {
	if er.every <= 0 || it == 0 || it%er.every != 0 {
		return false
	}
	return er.ckpt == nil || er.ckpt.iter < it
}

// epochEnd is the end of the epoch starting at iteration it: the next
// capture boundary, or the end of the phase.
func (er *elasticRun) epochEnd(it int) int {
	end := er.iters
	if er.every > 0 {
		end = min((it/er.every+1)*er.every, end)
	}
	return end
}

// snapshot marshals the current state as a standard checkpoint blob
// resuming at iteration it, with the elastic membership section attached.
func (er *elasticRun) snapshot(it int) ([]byte, error) {
	ck := &CheckpointState{
		Version:               CheckpointVersion,
		ConfigDigest:          er.cfgDigest,
		TraceDigest:           er.tr.Digest(),
		Nodes:                 er.n,
		K:                     er.cfg.K,
		Overlap:               er.cfg.Overlap,
		Partitioner:           er.cfg.Partitioner.Name(),
		Topology:              er.deg.Name(),
		Count:                 er.res.Count,
		Construct:             er.res.Construct,
		PerNode:               er.res.PerNode,
		PreludeExchangedBytes: er.res.ExchangedBytes,
		ResumeIter:            it,
		Elastic: &ElasticState{
			Live:      append([]bool(nil), er.live...),
			LocalTNs:  er.localTNs,
			RemoteTNs: er.remoteTNs,
			HaloBytes: er.haloBytes,
		},
	}
	if err := snapshotInto(ck, er.durations, er.engines); err != nil {
		return nil, err
	}
	return ck.Marshal()
}

// capture replaces the newest checkpoint with a periodic one and charges
// the capture stall.
func (er *elasticRun) capture(it int) error {
	blob, err := er.snapshot(it)
	if err != nil {
		return err
	}
	er.ckpt = &recoveryPoint{iter: it, blob: blob}
	d := sim.Cycle(float64(len(blob)) / er.ckBPC)
	er.out.Checkpoints++
	er.out.CheckpointBytes += int64(len(blob))
	er.out.CheckpointCycles += d
	er.clock.stallBarrier(telemetry.SpanCheckpoint, it, d, int64(len(blob)), false)
	return nil
}

// boundary processes the iteration boundary before iteration it: every
// pending fault event whose cycle has been reached is applied — link
// events mutate the interconnect immediately, node losses trigger a
// recovery. Returns the iteration to resume at when a recovery rewound
// the run, -1 otherwise.
func (er *elasticRun) boundary(it int) (int, error) {
	var losses []fault.Event
	for er.next < len(er.events) && er.events[er.next].Cycle <= er.clock.now() {
		e := er.events[er.next]
		er.next++
		er.out.FaultsInjected++
		if er.pr != nil {
			arg := e.Node
			if e.Kind != fault.NodeLoss {
				arg = e.Src
			}
			er.pr.instant(telemetry.SpanFault, er.pr.base+e.Cycle, int64(arg), int64(e.Kind))
		}
		switch e.Kind {
		case fault.NodeLoss:
			losses = append(losses, e)
		case fault.LinkDegrade:
			if err := er.deg.Slow(e.Src, e.Dst, e.Factor); err != nil {
				return 0, err
			}
		case fault.LinkOutage:
			if err := er.deg.CutRoute(e.Src, e.Dst); err != nil {
				return 0, err
			}
			if err := er.deg.Verify(er.live); err != nil {
				return 0, fmt.Errorf("scaleout: %s is unrecoverable: %w", e, err)
			}
		}
	}
	if len(losses) == 0 {
		return -1, nil
	}
	return er.recover(losses, it)
}

// recover handles one or more node losses surfacing at the boundary
// before iteration bIter: detection stall, restore from the newest
// checkpoint (or a from-scratch restart when none exists), rollback of
// everything since, re-partition migration of the shards that changed
// owners, and a fresh baseline checkpoint at the resume point. Returns
// the iteration the run resumes at.
func (er *elasticRun) recover(losses []fault.Event, bIter int) (int, error) {
	liveBefore := len(er.surv)
	oldLive := append([]bool(nil), er.live...)
	oldSurv := append([]int(nil), er.surv...)
	for _, e := range losses {
		if !er.live[e.Node] {
			return 0, fmt.Errorf("scaleout: %s kills an already-dead node", e)
		}
		er.live[e.Node] = false
		er.out.NodesLost++
	}
	er.surv = er.surv[:0]
	for i, l := range er.live {
		if l {
			er.surv = append(er.surv, i)
		}
	}
	if len(er.surv) == 0 {
		return 0, fmt.Errorf("scaleout: no survivors after %s", losses[0])
	}
	if err := er.deg.Verify(er.live); err != nil {
		return 0, fmt.Errorf("scaleout: survivors are disconnected: %w", err)
	}

	// Detection: the heartbeat/membership latency before survivors act.
	er.out.RecoveryCycles += er.detect
	er.clock.stallBarrier(telemetry.SpanDetect, bIter, er.detect, int64(losses[0].Node), false)

	// Restore from the newest checkpoint; without one the survivors
	// restart the compaction phase from scratch (the no-checkpointing
	// degenerate cadence).
	var ck *CheckpointState
	resume := 0
	if ent := er.ckpt; ent != nil {
		dec, err := UnmarshalCheckpoint(ent.blob)
		if err != nil {
			return 0, fmt.Errorf("scaleout: recovery checkpoint (iteration %d): %w", ent.iter, err)
		}
		ck = dec
		resume = ck.ResumeIter
		d := sim.Cycle(float64(len(ent.blob)) / er.ckBPC)
		er.out.RecoveryCycles += d
		er.clock.stallBarrier(telemetry.SpanRestore, resume, d, int64(len(ent.blob)), false)
	}
	er.out.LostIterations += int64(bIter-resume) * int64(liveBefore)

	if err := er.rollback(ck, resume); err != nil {
		return 0, err
	}

	// Re-partition: every MacroNode whose owner changed under the new
	// membership moves from its replica holder (the next live node after
	// the old owner) to the new owner, over the degraded interconnect.
	if resume < er.iters {
		move := mat(er.n)
		iter := &er.tr.Iterations[resume]
		for i := range iter.Nodes {
			nd := &iter.Nodes[i]
			ob := ownerUnder(er.cfg.Partitioner, nd.Key, er.k1, er.n, oldLive, oldSurv)
			oa := er.ownerOf(nd.Key)
			if ob == oa {
				continue
			}
			src := ob
			if !er.live[src] {
				src = er.nextLive(src)
			}
			if src != oa {
				move[src][oa] += int64(nd.D1 + nd.D2)
			}
		}
		mx := er.clock.doExchange(move)
		if mx.TotalBytes > 0 {
			er.clock.exchangedBytes += mx.TotalBytes
			er.out.RepartitionBytes += mx.TotalBytes
			er.clock.stall(&er.clock.exchange, telemetry.SpanRepartition, resume, mx.Cycles, mx.TotalBytes)
		}
	}

	// The old checkpoint describes the dead membership; replace it with a
	// free baseline at the resume point (the state is already in memory),
	// so a later loss restores here instead of replaying from scratch.
	blob, err := er.snapshot(resume)
	if err != nil {
		return 0, err
	}
	er.ckpt = &recoveryPoint{iter: resume, blob: blob}
	er.out.Recoveries++
	return resume, nil
}

// rollback restores every node to the checkpoint state at iteration
// resume: survivors continue from there, casualties stay frozen at their
// own last committed iteration. The discarded durations and logical
// traffic counters are rewound; the phase clock is not (lost time is the
// recovery overhead).
func (er *elasticRun) rollback(ck *CheckpointState, resume int) error {
	for i := 0; i < er.n; i++ {
		if ck == nil {
			er.traces[i] = &trace.Trace{K: er.tr.K}
			e, err := nmp.NewEngine(er.traces[i], er.cfg.NMP)
			if err != nil {
				return err
			}
			er.engines[i] = e
		} else {
			if len(er.traces[i].Iterations) > resume {
				er.traces[i].Iterations = er.traces[i].Iterations[:resume]
			}
			e, err := nmp.ResumeEngine(er.traces[i], er.cfg.NMP, ck.Engines[i])
			if err != nil {
				return err
			}
			er.engines[i] = e
		}
		d := er.durations[i]
		for j := range d {
			d[j] = 0
		}
		if ck != nil {
			copy(d, ck.Durations[i])
		}
	}
	if ck != nil {
		er.localTNs = ck.Elastic.LocalTNs
		er.remoteTNs = ck.Elastic.RemoteTNs
		er.haloBytes = ck.Elastic.HaloBytes
	} else {
		er.localTNs, er.remoteTNs, er.haloBytes = 0, 0, 0
	}
	if er.pr != nil {
		er.pr.attach(er.engines)
	}
	return nil
}

// shard splits iterations [from, to) under the current membership,
// appending each live node's sub-iterations to its trace, accumulating the
// committed traffic counters and returning the halo matrices.
func (er *elasticRun) shard(from, to int) [][][]int64 {
	halos := make([][][]int64, 0, to-from)
	for it := from; it < to; it++ {
		halo := mat(er.n)
		subs, l, r, hb := shardIteration(&er.tr.Iterations[it], er.n, er.ownerOf, halo)
		er.localTNs += l
		er.remoteTNs += r
		er.haloBytes += hb
		for o := 0; o < er.n; o++ {
			if !er.live[o] {
				continue
			}
			if it == 0 {
				er.traces[o].Quantiles = subs[o].Quantiles
			}
			er.traces[o].Iterations = append(er.traces[o].Iterations, subs[o])
		}
		halos = append(halos, halo)
	}
	return halos
}

// runBSP is the elastic BSP discipline: golden supersteps over the live
// membership, with fault boundaries, periodic captures and recoveries
// spliced between them. Fault-free it reproduces the legacy BSP schedule
// plus the checkpoint stalls.
func (er *elasticRun) runBSP() error {
	it := 0
	for {
		cont, err := er.boundary(it)
		if err != nil {
			return err
		}
		if cont >= 0 {
			it = cont
			continue
		}
		if it == er.iters {
			return nil
		}
		if er.captureDue(it) {
			if err := er.capture(it); err != nil {
				return err
			}
		}
		if it, err = er.bspEpoch(it, er.epochEnd(it)); err != nil {
			return err
		}
	}
}

// bspEpoch shards and pre-steps the epoch [from, to), then drains it
// superstep by superstep. A fault boundary inside the epoch is processed
// between two supersteps of the drain, exactly where a lockstep run meets
// it. A recovery there rolls the run back wholesale (rollback), so the
// only pre-stepped state with nothing to roll it back is the un-placed
// telemetry of the iterations past the boundary, which is dropped
// (dropBuffered) before the recovery records its own spans. Returns the
// iteration to continue at: to, or the resume point of a recovery.
func (er *elasticRun) bspEpoch(from, to int) (int, error) {
	halos := er.shard(from, to)
	prestep(er.engines, er.live, er.durations, from, to, er.cfg.Workers, er.pr)
	for j := from; j < to; j++ {
		if j > from {
			if er.pr != nil && er.pendingLoss() {
				for i := 0; i < er.n; i++ {
					if er.live[i] {
						er.pr.dropBuffered(i, j)
					}
				}
			}
			cont, err := er.boundary(j)
			if err != nil {
				return 0, err
			}
			if cont >= 0 {
				return cont, nil
			}
		}
		er.clock.superstep(j, er.durations, halos[j-from])
	}
	return to, nil
}

// runOverlapped is the elastic overlapped discipline: the event-driven
// halo-streaming schedule runs in segments bounded by checkpoint
// boundaries (a coordinated checkpoint is a global synchronization, so a
// link barrier + sync barrier close each segment). A segment is one epoch,
// executed speculatively; if a node loss lands inside it, the segment's
// recording is rewound, the committed window up to the detection boundary
// is charged as compute (the simplification: an overlapped window does
// not decompose further once discarded), and the shared recovery path
// takes over. With CheckpointEvery == 0 the whole phase is one segment
// and a fault-free run reproduces the legacy overlapped schedule exactly.
func (er *elasticRun) runOverlapped() error {
	c := &er.clock
	it := 0
	for {
		cont, err := er.boundary(it)
		if err != nil {
			return err
		}
		if cont >= 0 {
			it = cont
			continue
		}
		if it == er.iters {
			return nil
		}
		if it > 0 {
			c.stallBarrier(telemetry.SpanLinkBarrier, it-1, c.lb, 0, true)
			c.stallBarrier(telemetry.SpanSyncBarrier, it-1, c.sb, 0, false)
		}
		if er.captureDue(it) {
			if err := er.capture(it); err != nil {
				return err
			}
		}
		end := er.epochEnd(it)

		var marks probeMark
		if er.pr != nil {
			marks = er.pr.mark()
		}
		now := c.now()
		sg := segment{
			s: it, e: end, halo: er.shard(it, end), net: er.deg, live: er.live,
			durations: er.durations, sb: c.sb, pr: er.pr,
		}
		prestep(er.engines, er.live, er.durations, it, end, er.cfg.Workers, er.pr)
		if er.pr != nil {
			sg.off = er.pr.base + now
		}
		seg := sg.run()

		// A loss inside the segment window invalidates it: rewind the
		// speculative recording, commit the window up to the detection
		// boundary as compute, and recover.
		var fc sim.Cycle = -1
		for _, ev := range er.events[er.next:] {
			if ev.Cycle > now+seg.makespan {
				break
			}
			if ev.Kind == fault.NodeLoss {
				fc = ev.Cycle
				break
			}
		}
		if fc >= 0 {
			bj := -1
			for j := range seg.boundary {
				if now+seg.boundary[j] >= fc {
					bj = j
					break
				}
			}
			if bj >= 0 {
				if er.pr != nil {
					er.pr.rewind(marks)
					if seg.boundary[bj] > 0 {
						er.pr.phases.Add(telemetry.SpanCompute, sg.off, sg.off+seg.boundary[bj], int64(it), 0)
					}
				}
				c.compute += seg.boundary[bj]
				cont, err := er.boundary(it + bj + 1)
				if err != nil {
					return err
				}
				if cont >= 0 {
					it = cont
					continue
				}
				return fmt.Errorf("scaleout: fault at cycle %d detected but not consumed", fc)
			}
			// The loss lands past the segment's last iteration boundary:
			// commit the segment and let the next boundary pass detect it.
		}

		if er.pr != nil {
			er.pr.segmentSpans(sg.off, seg, it)
		}
		c.compute += seg.compute
		c.exchange += seg.makespan - seg.compute
		c.exchangedBytes += seg.bytes
		it = end
	}
}

// finish seals the outcome: the three accounting buckets tile the phase
// clock, and every engine — survivors complete, casualties frozen at
// their last committed iteration — reports its result.
func (er *elasticRun) finish() *elasticOutcome {
	out := &er.out
	out.compactOutcome = er.clock.outcome(er.durations, er.engines)
	out.LocalTNs, out.RemoteTNs, out.HaloBytes = er.localTNs, er.remoteTNs, er.haloBytes
	return out
}
