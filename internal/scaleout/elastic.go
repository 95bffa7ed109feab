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
//     full checkpoint blob (written by the same runtime.blob Checkpoint
//     uses, with the elastic membership section, and decoded by the same
//     hardened UnmarshalCheckpoint on the way back) in memory, replacing
//     the previous one, and charges
//     len(blob)/DefaultCheckpointBytesPerCycle as a global stall — the
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
//     run resumes — the re-partition migration, priced by the same
//     moveNodes as a rebalance migration.
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
// Captures bound the epochs of the one epoch loop (runtime.run), whose
// boundary pass applies the fault events: each epoch is sharded under the
// current membership, pre-stepped on the worker pool, then drained. In
// BSP, pending faults bound them too: while a fault event is still
// pending bspEpoch is one iteration, so a boundary pass runs before each
// iteration and no engine is stepped past a loss. The overlapped
// discipline cannot cut its segments that way, because a segment is
// closed by a link barrier and a sync barrier, so a shorter segment would
// change the schedule. segmentEpoch steps the whole segment speculatively
// instead and, when a loss lands inside it, rewinds the segment's
// recording (mark/rewind) and recovers at the detection boundary; the
// recovery rolls engines, durations and counters back wholesale
// in both disciplines.
//
// This file holds the elastic half of the one compaction runtime
// (runtime.go). A configuration with CheckpointEvery == 0 and no fault
// plan runs the same loop with an empty capture cadence and no fault
// events: every node stays live, nothing is captured, and the schedule is
// the plain static one.
package scaleout

import (
	"fmt"

	"nmppak/internal/dna"
	"nmppak/internal/fault"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
)

// DefaultCheckpointBytesPerCycle prices checkpoint capture and restore
// I/O: 16 B/cycle is about 25.6 GB/s at the modeled 1.6 GHz — a striped
// local NVMe target.
const DefaultCheckpointBytesPerCycle = 16

// recoveryPoint is a captured checkpoint: the iteration it resumes at and
// the marshaled blob (real bytes — restore decodes them through
// UnmarshalCheckpoint, so recovery exercises the same hardened path an
// on-disk blob does).
type recoveryPoint struct {
	iter int
	blob []byte
}

// ownerOf is the shard feed's owner of a static-partition run: a key's
// owner under the current membership — the static partitioner's owner
// while it lives, else a deterministic key-hashed survivor; every node
// computes the same failover assignment without coordination, like the
// base partitioners. (A rebalancing run's feed reads its bucket column
// instead: rebalancer.ownerOf.)
func (rt *runtime) ownerOf(key dna.Kmer, _ int) int {
	return failover(rt.static.owner(key, rt.k1), key, rt.live, rt.surv)
}

// failover is the owner of key, whose static owner is o, under the live
// membership with survivors surv.
func failover(o int, key dna.Kmer, live []bool, surv []int) int {
	if live[o] {
		return o
	}
	return surv[mix64(uint64(key))%uint64(len(surv))]
}

// nextLive is the replica node holding the dead node's shard copy in the
// recovery model: the next live node in ring order.
func (rt *runtime) nextLive(i int) int {
	for d := 1; d <= rt.n; d++ {
		if j := (i + d) % rt.n; rt.live[j] {
			return j
		}
	}
	return i
}

// captureDue reports whether a periodic checkpoint should be captured
// before iteration it (never re-captured after a recovery pushed a
// baseline at the same boundary).
func (rt *runtime) captureDue(it int) bool {
	if rt.every <= 0 || it == 0 || it%rt.every != 0 {
		return false
	}
	return rt.ckpt == nil || rt.ckpt.iter < it
}

// epochEnd is the end of the epoch starting at iteration it: the next
// capture boundary, the next rebalance point, or to.
func (rt *runtime) epochEnd(it, to int) int {
	end := to
	if rt.every > 0 {
		end = min((it/rt.every+1)*rt.every, end)
	}
	if rt.rb != nil {
		e := rt.rb.p.Every
		end = min((it/e+1)*e, end)
	}
	return end
}

// capture replaces the newest checkpoint with a periodic one, written
// into the replaced blob's buffer, and charges the capture stall.
func (rt *runtime) capture(it int) error {
	blob, err := rt.keep(it)
	if err != nil {
		return err
	}
	d := sim.Cycle(len(blob) / DefaultCheckpointBytesPerCycle)
	rt.res.Checkpoints++
	rt.res.CheckpointBytes += int64(len(blob))
	rt.res.CheckpointCycles += d
	rt.clock.stallBarrier(telemetry.SpanCheckpoint, it, d, int64(len(blob)), false)
	return nil
}

// keep makes the state at boundary it the recovery checkpoint, written
// into the buffer of the one it replaces (nothing else holds that blob:
// a recovery has already decoded it into fresh memory), and returns the
// blob.
func (rt *runtime) keep(it int) ([]byte, error) {
	var buf []byte
	if rt.ckpt != nil {
		buf = rt.ckpt.blob[:0]
	}
	blob, err := rt.blob(it, buf)
	if err != nil {
		return nil, err
	}
	if rt.ckpt == nil {
		rt.ckpt = &recoveryPoint{}
	}
	rt.ckpt.iter, rt.ckpt.blob = it, blob
	return blob, nil
}

// boundary processes the iteration boundary before iteration it: every
// pending fault event whose cycle has been reached is applied — link
// events mutate the interconnect immediately, node losses trigger a
// recovery. Returns the iteration to resume at when a recovery rewound
// the run, -1 otherwise.
func (rt *runtime) boundary(it int) (int, error) {
	var losses []fault.Event
	for rt.next < len(rt.events) && rt.events[rt.next].Cycle <= rt.clock.now() {
		e := rt.events[rt.next]
		rt.next++
		rt.res.FaultsInjected++
		if rt.pr != nil {
			arg := e.Node
			if e.Kind != fault.NodeLoss {
				arg = e.Src
			}
			rt.pr.instant(telemetry.SpanFault, rt.pr.base+e.Cycle, int64(arg), int64(e.Kind))
		}
		switch e.Kind {
		case fault.NodeLoss:
			losses = append(losses, e)
		case fault.LinkDegrade:
			if err := rt.deg.Slow(e.Src, e.Dst, e.Factor); err != nil {
				return 0, err
			}
		case fault.LinkOutage:
			if err := rt.deg.CutRoute(e.Src, e.Dst); err != nil {
				return 0, err
			}
			if err := rt.deg.Verify(rt.live); err != nil {
				return 0, fmt.Errorf("scaleout: %s is unrecoverable: %w", e, err)
			}
		}
	}
	if len(losses) == 0 {
		return -1, nil
	}
	return rt.recover(losses, it)
}

// recover handles one or more node losses surfacing at the boundary
// before iteration bIter: detection stall, restore from the newest
// checkpoint (or a from-scratch restart when none exists), rollback of
// everything since, re-partition migration of the shards that changed
// owners, and a fresh baseline checkpoint at the resume point. Returns
// the iteration the run resumes at.
func (rt *runtime) recover(losses []fault.Event, bIter int) (int, error) {
	liveBefore := len(rt.surv)
	oldLive := append([]bool(nil), rt.live...)
	oldSurv := append([]int(nil), rt.surv...)
	for _, e := range losses {
		if !rt.live[e.Node] {
			return 0, fmt.Errorf("scaleout: %s kills an already-dead node", e)
		}
		rt.live[e.Node] = false
		rt.res.NodesLost++
	}
	rt.surv = rt.surv[:0]
	for i, l := range rt.live {
		if l {
			rt.surv = append(rt.surv, i)
		}
	}
	if len(rt.surv) == 0 {
		return 0, fmt.Errorf("scaleout: no survivors after %s", losses[0])
	}
	if err := rt.deg.Verify(rt.live); err != nil {
		return 0, fmt.Errorf("scaleout: survivors are disconnected: %w", err)
	}

	// Detection: the heartbeat/membership latency before survivors act.
	rt.res.RecoveryCycles += rt.detect
	rt.clock.stallBarrier(telemetry.SpanDetect, bIter, rt.detect, int64(losses[0].Node), false)

	// Restore from the newest checkpoint; without one the survivors
	// restart the compaction phase from scratch (the no-checkpointing
	// degenerate cadence).
	var ck *CheckpointState
	resume := 0
	if ent := rt.ckpt; ent != nil {
		dec, err := UnmarshalCheckpoint(ent.blob)
		if err != nil {
			return 0, fmt.Errorf("scaleout: recovery checkpoint (iteration %d): %w", ent.iter, err)
		}
		ck = dec
		resume = ck.ResumeIter
		d := sim.Cycle(len(ent.blob) / DefaultCheckpointBytesPerCycle)
		rt.res.RecoveryCycles += d
		rt.clock.stallBarrier(telemetry.SpanRestore, resume, d, int64(len(ent.blob)), false)
	}
	rt.res.LostIterations += int64(bIter-resume) * int64(liveBefore)

	if err := rt.rollback(ck, resume); err != nil {
		return 0, err
	}

	// Re-partition: every MacroNode whose owner changed under the new
	// membership moves from its replica holder (the next live node after
	// the old owner) to the new owner, over the degraded interconnect.
	if resume < rt.iters {
		rt.res.RepartitionBytes += rt.moveNodes(resume, telemetry.SpanRepartition, func(key dna.Kmer, _ int) (int, int) {
			o := rt.static.owner(key, rt.k1)
			from, to := failover(o, key, oldLive, oldSurv), failover(o, key, rt.live, rt.surv)
			if from != to && !rt.live[from] {
				from = rt.nextLive(from)
			}
			return from, to
		})
	}

	// The old checkpoint describes the dead membership; replace it with a
	// free baseline at the resume point (the state is already in memory),
	// so a later loss restores here instead of replaying from scratch.
	if _, err := rt.keep(resume); err != nil {
		return 0, err
	}
	rt.res.Recoveries++
	return resume, nil
}

// rollback restores every node to the checkpoint state at iteration
// resume: survivors continue from there, casualties stay frozen at their
// own last committed iteration. The discarded durations and logical
// traffic counters are rewound; the phase clock is not (lost time is the
// recovery overhead).
func (rt *runtime) rollback(ck *CheckpointState, resume int) error {
	rt.feed.traffic = traffic{}
	if ck != nil {
		es := ck.Elastic
		rt.feed.traffic = traffic{es.LocalTNs, es.RemoteTNs, es.HaloBytes}
	}
	if err := startEngines(rt.engines, rt.durations, rt.feed.traces, rt.cfg.NMP, rt.iters, ck); err != nil {
		return err
	}
	if rt.pr != nil {
		rt.pr.attach(rt.engines)
	}
	return nil
}
