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
//     into a small in-memory ring, charging len(blob)/CheckpointBytesPerCycle
//     as a global stall — the coordinated-checkpoint cost.
//   - fault.Plan events are applied at iteration boundaries, the first
//     point a lockstep run can act on them. Link events mutate the
//     Degraded interconnect in place (every later exchange sees the lost
//     bandwidth or the detour). A node loss is detected at the next
//     boundary: the plan's DetectCycles stall, then every node —
//     survivors live, casualties frozen — is restored from the newest
//     ring blob, the work since that checkpoint is discarded, and the
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
// A fault-free configuration with CheckpointEvery == 0 never enters this
// file: Simulate dispatches here only when cfg.elastic() — the legacy
// runtimes stay cycle-exact and allocation-identical.
package scaleout

import (
	"fmt"
	"math"

	"nmppak/internal/dna"
	"nmppak/internal/fault"
	"nmppak/internal/nmp"
	"nmppak/internal/par"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// DefaultCheckpointBytesPerCycle prices checkpoint capture and restore
// I/O when Config.CheckpointBytesPerCycle is zero: 16 B/cycle is about
// 25.6 GB/s at the modeled 1.6 GHz — a striped local NVMe target.
const DefaultCheckpointBytesPerCycle = 16

// elasticRingCap bounds the in-memory checkpoint ring. Recovery restores
// from the newest entry; the older ones are the safety margin against a
// blob that fails to decode.
const elasticRingCap = 4

// elasticOutcome extends the compaction outcome with the traffic the
// elastic runtime accounts itself plus the recovery bookkeeping Result
// surfaces.
type elasticOutcome struct {
	compactOutcome
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

// ringEntry is one captured checkpoint: the iteration it resumes at and
// the marshaled blob (real bytes — restore decodes them through
// UnmarshalCheckpoint, so the ring exercises the same hardened path an
// on-disk blob does).
type ringEntry struct {
	iter int
	blob []byte
}

// elasticRun drives the fault-aware compaction replay. Accounting
// invariant: compute + exchange + barrier == now at every boundary — the
// three buckets tile the phase clock, with halo exchanges and re-partition
// migrations in exchange (communication), link barriers in barrier with
// their comm share tracked in linkBarrier, and sync barriers, checkpoint
// captures, detection and restore stalls in barrier as protocol overhead.
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

	now         sim.Cycle // compaction-phase clock
	compute     sim.Cycle
	exchange    sim.Cycle
	barrier     sim.Cycle
	linkBarrier sim.Cycle // comm share of the barrier bucket

	localTNs, remoteTNs, haloBytes int64 // committed logical traffic

	cfgDigest uint64
	ring      []ringEntry

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

// parallelOK reports whether the elastic run's window drivers engage
// (see runtime_parallel.go) — cycle-exact either way: the BSP chunks and
// the overlapped segments produce byte-identical traces, results and
// checkpoint blobs on both paths.
func (er *elasticRun) parallelOK() bool {
	return par.Threads(er.cfg.Workers) > 1 && er.n > 1
}

// pendingLoss reports whether the next boundary pass will act on a node
// loss — an event already due at the current phase time. The windowed
// BSP driver peeks so it can drop the un-placed telemetry of pre-stepped
// iterations before the recovery's own spans are recorded.
func (er *elasticRun) pendingLoss() bool {
	for _, ev := range er.events[er.next:] {
		if ev.Cycle > er.now {
			return false
		}
		if ev.Kind == fault.NodeLoss {
			return true
		}
	}
	return false
}

// step advances node i by one iteration on its local clock (only live
// nodes are ever stepped).
func (er *elasticRun) step(i int) sim.Cycle {
	e := er.engines[i]
	it := e.Next()
	if er.pr != nil {
		er.pr.beforeStep(i, e)
	}
	ti := e.StepIteration(e.NextStart())
	d := ti.End - ti.Start
	er.durations[i][it] = d
	if er.pr != nil {
		er.pr.afterStep(i, e, ti)
	}
	return d
}

// exchange prices one all-to-all over the (possibly degraded) network at
// the current phase time.
func (er *elasticRun) doExchange(b [][]int64) topo.ExchangeStats {
	if er.pr != nil {
		return topo.ExchangeProbed(er.deg, b, er.pr.linkAt(er.pr.base+er.now))
	}
	return topo.Exchange(er.deg, b)
}

// stallBarrier charges a whole-machine wait to the barrier bucket (with
// comm == true also to the link-barrier comm share) and records it on the
// runtime and live node tracks.
func (er *elasticRun) stallBarrier(kind telemetry.SpanKind, it int, d sim.Cycle, bytes int64, comm bool) {
	if d <= 0 {
		return
	}
	if er.pr != nil {
		er.pr.liveStall(kind, it, er.pr.base+er.now, d, bytes, er.live)
	}
	er.barrier += d
	if comm {
		er.linkBarrier += d
	}
	er.now += d
}

// stallComm charges a whole-machine wait to the exchange (communication)
// bucket.
func (er *elasticRun) stallComm(kind telemetry.SpanKind, it int, d sim.Cycle, bytes int64) {
	if d <= 0 {
		return
	}
	if er.pr != nil {
		er.pr.liveStall(kind, it, er.pr.base+er.now, d, bytes, er.live)
	}
	er.exchange += d
	er.now += d
}

// captureDue reports whether a periodic checkpoint should be captured
// before iteration it (never re-captured after a recovery pushed a
// baseline at the same boundary).
func (er *elasticRun) captureDue(it int) bool {
	if er.every <= 0 || it == 0 || it%er.every != 0 {
		return false
	}
	return len(er.ring) == 0 || er.ring[len(er.ring)-1].iter < it
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

// capture pushes a periodic checkpoint into the ring and charges the
// capture stall.
func (er *elasticRun) capture(it int) error {
	blob, err := er.snapshot(it)
	if err != nil {
		return err
	}
	if len(er.ring) == elasticRingCap {
		copy(er.ring, er.ring[1:])
		er.ring = er.ring[:elasticRingCap-1]
	}
	er.ring = append(er.ring, ringEntry{iter: it, blob: blob})
	d := sim.Cycle(float64(len(blob)) / er.ckBPC)
	er.out.Checkpoints++
	er.out.CheckpointBytes += int64(len(blob))
	er.out.CheckpointCycles += d
	er.stallBarrier(telemetry.SpanCheckpoint, it, d, int64(len(blob)), false)
	return nil
}

// boundary processes the iteration boundary before iteration it: every
// pending fault event whose cycle has been reached is applied — link
// events mutate the interconnect immediately, node losses trigger a
// recovery. Returns the iteration to resume at when a recovery rewound
// the run, -1 otherwise.
func (er *elasticRun) boundary(it int) (int, error) {
	var losses []fault.Event
	for er.next < len(er.events) && er.events[er.next].Cycle <= er.now {
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
// before iteration bIter: detection stall, restore from the newest ring
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
	er.stallBarrier(telemetry.SpanDetect, bIter, er.detect, int64(losses[0].Node), false)

	// Restore from the newest ring checkpoint; with an empty ring the
	// survivors restart the compaction phase from scratch (the
	// no-checkpointing degenerate cadence).
	var ck *CheckpointState
	resume := 0
	if len(er.ring) > 0 {
		ent := &er.ring[len(er.ring)-1]
		dec, err := UnmarshalCheckpoint(ent.blob)
		if err != nil {
			return 0, fmt.Errorf("scaleout: recovery checkpoint (iteration %d): %w", ent.iter, err)
		}
		ck = dec
		resume = ck.ResumeIter
		d := sim.Cycle(float64(len(ent.blob)) / er.ckBPC)
		er.out.RecoveryCycles += d
		er.stallBarrier(telemetry.SpanRestore, resume, d, int64(len(ent.blob)), false)
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
		mx := er.doExchange(move)
		if mx.TotalBytes > 0 {
			er.out.ExchangedBytes += mx.TotalBytes
			er.out.RepartitionBytes += mx.TotalBytes
			er.stallComm(telemetry.SpanRepartition, resume, mx.Cycles, mx.TotalBytes)
		}
	}

	// The old ring describes the dead membership; replace it with a free
	// baseline at the resume point (the state is already in memory), so a
	// later loss restores here instead of replaying from scratch.
	blob, err := er.snapshot(resume)
	if err != nil {
		return 0, err
	}
	er.ring = er.ring[:0]
	er.ring = append(er.ring, ringEntry{iter: resume, blob: blob})
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

// shardInto splits global iteration it under the current membership,
// appending each live node's sub-iteration to its trace and accumulating
// the committed traffic counters.
func (er *elasticRun) shardInto(it int, halo [][]int64) {
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
}

// runBSP is the elastic BSP discipline: golden supersteps over the live
// membership, with fault boundaries, periodic captures and recoveries
// spliced between them. Fault-free it reproduces the legacy BSP schedule
// plus the checkpoint stalls. With a worker pool the supersteps advance
// through the window protocol (bspChunk) in chunks of up to PrestepDepth
// iterations, never crossing a capture boundary — byte-identical to the
// serial path either way.
func (er *elasticRun) runBSP() error {
	lb := er.deg.BarrierCycles()
	sb := er.cfg.NMP.SyncBarrierCycles
	windowed := er.parallelOK()
	if windowed && er.pr != nil {
		er.pr.enableBuffer(er.n, er.iters)
	}
	k := er.cfg.depth()
	durs := make([]sim.Cycle, er.n)
	halos := make([][][]int64, 0, k)
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

		if windowed {
			// Chunk [it, end): capped by the pre-step depth and by the
			// next capture boundary (a capture is a global horizon).
			end := it + k
			if er.every > 0 {
				if b := (it/er.every + 1) * er.every; b < end {
					end = b
				}
			}
			if end > er.iters {
				end = er.iters
			}
			cont, err = er.bspChunk(it, end, lb, sb, durs, &halos)
			if err != nil {
				return err
			}
			if cont >= 0 {
				it = cont
				continue
			}
			it = end
			continue
		}

		halo := mat(er.n)
		er.shardInto(it, halo)
		for i := range durs {
			durs[i] = 0
		}
		par.ForIdx(er.n, er.cfg.Workers, func(i int) {
			if er.live[i] {
				durs[i] = er.step(i)
			}
		})
		var slowest sim.Cycle
		maxIdx := 0
		for i, d := range durs {
			if d > slowest {
				slowest = d
				maxIdx = i
			}
		}
		if er.pr != nil {
			er.pr.liveCompute(it, er.pr.base+er.now, durs, er.live, slowest, false)
		}
		er.compute += slowest
		er.now += slowest

		hx := er.doExchange(halo)
		er.out.ExchangedBytes += hx.TotalBytes
		er.stallComm(telemetry.SpanExchangeWait, it, hx.Cycles, hx.TotalBytes)

		if it+1 < er.iters {
			er.stallBarrier(telemetry.SpanLinkBarrier, it, lb, 0, true)
			er.stallBarrier(telemetry.SpanSyncBarrier, it, sb, 0, false)
			if er.pr != nil {
				for i := 0; i < er.n; i++ {
					if er.live[i] {
						er.pr.c.AddDep(i, it+1, telemetry.BoundBarrier, maxIdx)
					}
				}
			}
		}
		it++
	}
}

// bspChunk advances the windowed elastic BSP through supersteps
// [from, to): pre-shard the chunk's halos, pre-step the live engines
// across the worker pool (buffering their telemetry), then drain the
// fault boundaries, measurement placement and exchange/barrier pricing
// serially in the exact serial order. Interior fault boundaries stay
// conservative because a recovery rolls engines, durations, traces and
// counters back wholesale (rollback); the only window state with no
// serial counterpart is the un-placed telemetry of iterations pre-stepped
// past the detection boundary, which is dropped (dropBuffered) before the
// recovery records its own spans so the tracks stay byte-identical.
// Returns the resume iteration when a recovery rewound the run, -1
// otherwise.
func (er *elasticRun) bspChunk(from, to int, lb, sb sim.Cycle, durs []sim.Cycle, halos *[][][]int64) (int, error) {
	hs := (*halos)[:0]
	for j := from; j < to; j++ {
		h := mat(er.n)
		er.shardInto(j, h)
		hs = append(hs, h)
	}
	*halos = hs
	par.ForIdx(er.n, er.cfg.Workers, func(i int) {
		if !er.live[i] {
			return
		}
		for j := from; j < to; j++ {
			er.step(i)
			if er.pr != nil {
				er.pr.bufferStep(i, j)
			}
		}
	})
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
		var slowest sim.Cycle
		maxIdx := 0
		for i := 0; i < er.n; i++ {
			if er.live[i] {
				durs[i] = er.durations[i][j]
			} else {
				durs[i] = 0
			}
			if durs[i] > slowest {
				slowest = durs[i]
				maxIdx = i
			}
		}
		if er.pr != nil {
			er.pr.liveCompute(j, er.pr.base+er.now, durs, er.live, slowest, true)
		}
		er.compute += slowest
		er.now += slowest

		hx := er.doExchange(hs[j-from])
		er.out.ExchangedBytes += hx.TotalBytes
		er.stallComm(telemetry.SpanExchangeWait, j, hx.Cycles, hx.TotalBytes)

		if j+1 < er.iters {
			er.stallBarrier(telemetry.SpanLinkBarrier, j, lb, 0, true)
			er.stallBarrier(telemetry.SpanSyncBarrier, j, sb, 0, false)
			if er.pr != nil {
				for i := 0; i < er.n; i++ {
					if er.live[i] {
						er.pr.c.AddDep(i, j+1, telemetry.BoundBarrier, maxIdx)
					}
				}
			}
		}
	}
	return -1, nil
}

// segOutcome summarizes one speculative overlapped segment.
type segOutcome struct {
	makespan sim.Cycle   // segment completion (last halo delivery)
	compute  sim.Cycle   // longest live node's local chain in the segment
	boundary []sim.Cycle // boundary[j]: latest live finish of iteration s+j
	bytes    int64       // halo bytes streamed
}

// runOverlapped is the elastic overlapped discipline: the event-driven
// halo-streaming schedule runs in segments bounded by checkpoint
// boundaries (a coordinated checkpoint is a global synchronization, so a
// link barrier + sync barrier close each segment). A segment is executed
// speculatively; if a node loss lands inside it, the segment's recording
// is rewound, the committed window up to the detection boundary is
// charged as compute (the simplification: an overlapped window does not
// decompose further once discarded), and the shared recovery path takes
// over. With CheckpointEvery == 0 the whole phase is one segment and a
// fault-free run reproduces the legacy overlapped schedule exactly.
func (er *elasticRun) runOverlapped() error {
	lb := er.deg.BarrierCycles()
	sb := er.cfg.NMP.SyncBarrierCycles
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
			er.stallBarrier(telemetry.SpanLinkBarrier, it-1, lb, 0, true)
			er.stallBarrier(telemetry.SpanSyncBarrier, it-1, sb, 0, false)
		}
		if er.captureDue(it) {
			if err := er.capture(it); err != nil {
				return err
			}
		}
		end := er.iters
		if er.every > 0 {
			if b := (it/er.every + 1) * er.every; b < end {
				end = b
			}
		}

		var marks probeMark
		if er.pr != nil {
			marks = er.pr.mark()
		}
		seg := er.runSegment(it, end)

		// A loss inside the segment window invalidates it: rewind the
		// speculative recording, commit the window up to the detection
		// boundary as compute, and recover.
		var fc sim.Cycle = -1
		for _, ev := range er.events[er.next:] {
			if ev.Cycle > er.now+seg.makespan {
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
				if er.now+seg.boundary[j] >= fc {
					bj = j
					break
				}
			}
			if bj >= 0 {
				if er.pr != nil {
					er.pr.rewind(marks)
					if seg.boundary[bj] > 0 {
						er.pr.phases.Add(telemetry.SpanCompute, er.pr.base+er.now, er.pr.base+er.now+seg.boundary[bj], int64(it), 0)
					}
				}
				er.compute += seg.boundary[bj]
				er.now += seg.boundary[bj]
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
			if seg.compute > 0 {
				er.pr.phases.Add(telemetry.SpanCompute, er.pr.base+er.now, er.pr.base+er.now+seg.compute, int64(it), 0)
			}
			if seg.makespan > seg.compute {
				er.pr.phases.Add(telemetry.SpanExchangeWait, er.pr.base+er.now+seg.compute, er.pr.base+er.now+seg.makespan, int64(it), seg.bytes)
			}
		}
		er.compute += seg.compute
		er.exchange += seg.makespan - seg.compute
		er.now += seg.makespan
		er.out.ExchangedBytes += seg.bytes
		it = end
	}
}

// runSegment executes iterations [s, e) of the overlapped schedule over
// the live membership on a fresh event timeline: the same
// finish-stream-start dependency structure as the legacy runtime, scoped
// to the segment and routed over the degraded network.
func (er *elasticRun) runSegment(s, e int) *segOutcome {
	n, m := er.n, e-s
	pr := er.pr
	sb := er.cfg.NMP.SyncBarrierCycles
	seg := &segOutcome{boundary: make([]sim.Cycle, m)}

	halo := make([][][]int64, m)
	for j := 0; j < m; j++ {
		halo[j] = mat(n)
		er.shardInto(s+j, halo[j])
	}

	g := &sim.Engine{}
	if pr != nil {
		g.SetProbe(&pr.loop)
	}
	type segNode struct {
		pendingIn []int
		readyAt   sim.Cycle
		finished  []bool
		started   []bool
	}
	nodes := make([]*segNode, n)
	local0 := make([]sim.Cycle, n)
	lastEnd := make([]sim.Cycle, n)
	for i := 0; i < n; i++ {
		if !er.live[i] {
			continue
		}
		nodes[i] = &segNode{
			pendingIn: make([]int, m),
			finished:  make([]bool, m),
			started:   make([]bool, m),
		}
		local0[i] = er.engines[i].Now()
	}
	for j := 0; j < m; j++ {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if dst != src && halo[j][src][dst] > 0 {
					nodes[dst].pendingIn[j]++
					seg.bytes += halo[j][src][dst]
				}
			}
		}
	}
	fl := topo.NewFlight(er.deg, g)
	var off sim.Cycle
	if pr != nil {
		off = pr.base + er.now
		fl.SetProbe(&topo.Probe{Links: pr.links, Offset: off})
	}
	note := func(t sim.Cycle) {
		if t > seg.makespan {
			seg.makespan = t
		}
	}

	// The window protocol engages per segment: the live membership and the
	// degraded routes both shift at fault boundaries, so the gate and the
	// lookahead matrix are segment-local. A degenerate segment (single
	// survivor, zero-lookahead network) runs the lazy serial schedule.
	windowed := er.parallelOK() && len(er.surv) > 1 && er.deg.MinLatency() > 0
	prestepped := 0

	var begin func(i, j int, at sim.Cycle)
	tryStart := func(i, j, src int) {
		nd := nodes[i]
		if j >= m || nd.started[j] || !nd.finished[j-1] || nd.pendingIn[j-1] > 0 {
			return
		}
		nd.started[j] = true
		at := nd.readyAt
		bound := telemetry.BoundSync
		if now := g.Now(); now > at {
			at = now
			if src >= 0 {
				bound = telemetry.BoundDelivery
			}
		}
		if pr != nil {
			sn := src
			if bound != telemetry.BoundDelivery {
				sn = -1
			}
			pr.c.AddDep(i, s+j, bound, sn)
		}
		begin(i, j, at)
	}
	finish := func(i, j int) {
		nd := nodes[i]
		now := g.Now()
		nd.finished[j] = true
		if now > seg.boundary[j] {
			seg.boundary[j] = now
		}
		note(now)
		for off := 1; off < n; off++ {
			dst := (i + off) % n
			if !er.live[dst] {
				continue
			}
			b := halo[j][i][dst]
			if b <= 0 {
				continue
			}
			d := dst
			fl.Send(i, d, b, func() {
				note(g.Now())
				nodes[d].pendingIn[j]--
				tryStart(d, j+1, i)
			})
		}
		if j+1 < m {
			nd.readyAt = now + sb
			tryStart(i, j+1, -1)
		}
	}
	begin = func(i, j int, at sim.Cycle) {
		g.At(at, func() {
			if pr != nil && j > 0 {
				e0 := lastEnd[i]
				if sb > 0 {
					pr.node[i].Add(telemetry.SpanSyncBarrier, off+e0, off+e0+sb, int64(s+j), 0)
				}
				if at > e0+sb {
					pr.node[i].Add(telemetry.SpanDeliveryWait, off+e0+sb, off+at, int64(s+j), 0)
				}
			}
			var d sim.Cycle
			if j < prestepped {
				d = er.durations[i][s+j]
				if pr != nil {
					pr.placeBuffered(i, s+j, off+at)
				}
			} else {
				if windowed {
					panic("scaleout: windowed elastic segment reached an un-stepped iteration")
				}
				d = er.step(i)
				if pr != nil {
					pr.placeIter(i, s+j, off+at)
				}
			}
			lastEnd[i] = at + d
			g.After(d, func() { finish(i, j) })
		})
	}
	for i := 0; i < n; i++ {
		if er.live[i] {
			nodes[i].started[0] = true
			begin(i, 0, 0)
		}
	}
	if windowed {
		// Window driver on the segment-local clock: pre-step the live
		// engines in chunks of up to PrestepDepth iterations, derive the
		// conservative horizon from the chain bounds plus the degraded
		// per-pair lookahead, and drain the segment's event loop up to it.
		// Identical closures in identical order — the segment stays
		// byte-identical, so the mark/rewind speculation in runOverlapped
		// composes unchanged.
		if pr != nil && pr.buf == nil {
			pr.enableBuffer(n, er.iters)
		}
		look := pairLookahead(er.deg, n)
		k := er.cfg.depth()
		workers := er.cfg.Workers
		lbound := make([]sim.Cycle, n)
		lend := make([]sim.Cycle, n)
		for r := 0; r < m; r += k {
			hi := r + k
			if hi > m {
				hi = m
			}
			par.ForIdx(n, workers, func(i int) {
				if !er.live[i] {
					return
				}
				for j := r; j < hi; j++ {
					er.step(i)
					if pr != nil {
						pr.bufferStep(i, s+j)
					}
				}
			})
			prestepped = hi
			for i := 0; i < n; i++ {
				if !er.live[i] {
					continue
				}
				for j := r; j < hi; j++ {
					lend[i] = lbound[i] + er.durations[i][s+j]
					lbound[i] = lend[i] + sb
				}
			}
			if hi >= m {
				break
			}
			h := sim.Cycle(math.MaxInt64)
			hj := halo[hi-1]
			for i := 0; i < n; i++ {
				if !er.live[i] {
					continue
				}
				bound := lbound[i]
				for src := 0; src < n; src++ {
					if src != i && er.live[src] && hj[src][i] > 0 {
						if d := lend[src] + look[src][i]; d > bound {
							bound = d
						}
					}
				}
				if bound < h {
					h = bound
				}
			}
			g.RunUntil(h)
		}
	}
	g.Run()

	for i := 0; i < n; i++ {
		if !er.live[i] {
			continue
		}
		// A segment past iteration 0 re-enters each engine through
		// NextStart(), whose leading sync barrier the global schedule has
		// already charged between segments — drop it from the local chain
		// so compute never exceeds the segment makespan.
		lead := sim.Cycle(0)
		if s > 0 {
			lead = sb
		}
		if c := er.engines[i].Now() - local0[i] - lead; c > seg.compute {
			seg.compute = c
		}
		if pr != nil && lastEnd[i] < seg.makespan {
			pr.node[i].Add(telemetry.SpanIdle, off+lastEnd[i], off+seg.makespan, int64(e-1), 0)
		}
	}
	return seg
}

// finish seals the outcome: the three accounting buckets tile the phase
// clock, and every engine — survivors complete, casualties frozen at
// their last committed iteration — reports its result.
func (er *elasticRun) finish() *elasticOutcome {
	out := &er.out
	out.Phase = PhaseCycles{Compute: er.compute, Exchange: er.exchange, Barrier: er.barrier}
	out.LinkBarrier = er.linkBarrier
	out.Durations = er.durations
	out.LocalTNs, out.RemoteTNs, out.HaloBytes = er.localTNs, er.remoteTNs, er.haloBytes
	out.NMP = make([]*nmp.Result, er.n)
	for i, e := range er.engines {
		out.NMP[i] = e.Result()
	}
	return out
}
