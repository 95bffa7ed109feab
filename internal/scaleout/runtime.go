// The distributed compaction runtime: N stepwise per-node NMP engines
// (nmp.Engine) and the interconnect composed on one global timeline,
// replacing the post-hoc per-phase aggregation the package started with.
// Two execution disciplines share the machinery:
//
//   - BSP (Config.Overlap == false, the default): every iteration is a
//     global superstep — all nodes compute, the slowest paces the step,
//     the iteration's halo exchange runs serially on the links, and a
//     log-tree barrier plus the NMP runtime's own sync barrier close the
//     step. This reproduces the original aggregation model cycle for
//     cycle (TestGoldenEquivalence pins it).
//   - Overlapped (Config.Overlap == true): a node that finishes iteration
//     i immediately streams its outgoing halo bytes while lagging nodes
//     are still computing, and only the dependent work waits — node j may
//     begin iteration i+1 as soon as (a) its own iteration i ended plus
//     the local sync barrier and (b) every iteration-i halo message
//     destined to j has been delivered. There is no global barrier; halo
//     messages route hop-by-hop through the same contended topology links
//     that price the BSP exchanges, on the run's one topo.Flight.
//
// In both modes each engine advances on its local back-to-back clock
// (identical to nmp.Simulate), so per-iteration durations — and therefore
// every per-node Result — are identical across modes; the modes differ
// only in how those durations and the halo traffic compose on the global
// timeline. That makes the BSP/overlap comparison exact: same compute,
// different schedule.
//
// The same fact drives every discipline — static, rebalancing and elastic
// — through one epoch loop (run): fault boundary, then, overlapped, the
// barriers closing the previous segment, then a due capture, a due
// migration and the epoch. An epoch is a range of iterations with no
// checkpoint capture, migration or Session.Step boundary inside it; in
// BSP, an iteration while a fault event is still pending. An epoch is fed
// one iteration at a time (step): the one shard feed (shardFeed) carves
// the iteration into a reused arena and points each live node trace at
// its window, every live engine is pre-stepped through it on the worker
// pool (prestep; Workers=1 is a pool of one), and the feed releases it
// again, so a run — fresh or resumed — shards only the iterations it
// replays and holds one of them at a time. The epoch is then drained from
// the recorded durations and the buffered telemetry: by the BSP superstep
// drain (bspEpoch) or by the overlapped segment schedule (segmentEpoch,
// which runs schedule). Because an iteration's duration never depends on
// when the schedule starts it, pre-stepping changes nothing the drain
// computes: results, Chrome traces and checkpoint blobs are
// byte-identical at every worker count.
//
// One runtime type, runtime, steps every run. A non-elastic run is an
// elastic one (elastic.go) whose capture cadence and fault events are
// empty, so every node stays live; a RebalancePartitioner adds migration
// state (rebalance.go) whose decisions bound the epochs like captures; a
// migration and an elastic re-partition are priced by one move pricer
// (moveNodes), and every checkpoint blob — a Session's and the elastic
// recovery ones — comes from one writer (blob). Every entry point opens
// and finishes its run through a Session (session.go).
package scaleout

import (
	"fmt"

	"nmppak/internal/fault"
	"nmppak/internal/nmp"
	"nmppak/internal/par"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// runtime is the compaction runtime: it owns the per-node engines, their
// shard feed and the phase clock, and can be advanced iteration range by
// iteration range, snapshotted between iterations and sealed. A fresh
// runtime starts at iteration 0; one reconstructed from a checkpoint
// carries the recorded durations and BSP partial sums of the iterations
// already executed and shards and steps only from `start` on. Under an
// elastic config (elastic.go) it also captures periodic recovery
// checkpoints and applies the fault plan at iteration boundaries;
// otherwise its capture cadence and fault events are empty and every node
// stays live. Under a RebalancePartitioner it migrates ownership between
// epochs (rebalance.go).
type runtime struct {
	tr  *trace.Trace
	deg *topo.Degraded // the interconnect; fault events degrade it in place
	cfg Config
	res *Result // prelude outcome, finished by seal

	n, iters, k1 int
	// static is the partitioner's owner map over the n nodes, where every
	// run starts and a static-partition run stays.
	static ownerMap
	// start is the first iteration the engines step live; the overlapped
	// schedule replays the iterations before it from their recorded
	// durations.
	start int

	feed shardFeed
	// whole holds the whole-trace traffic split of a static-partition run
	// resumed past iteration 0, whose feed never sees the iterations before
	// start; nil when the feed covers every iteration or the traffic is
	// restored from the blob's RebalanceState.
	whole *traffic

	// rb is the migration state of a RebalancePartitioner run; nil for a
	// static partition.
	rb *rebalancer

	engines   []*nmp.Engine
	durations [][]sim.Cycle

	// halos holds the halo matrices of the epoch in flight (step), moves
	// the byte matrix of an ownership change (moveNodes); each is refilled
	// by its next use, since nothing reads a matrix past its epoch.
	halos, moves matBlock

	// clock holds the phase time over the live membership: the BSP partial
	// sums (a restored BSP run starts from the checkpointed ones) plus the
	// elastic protocol stalls.
	clock phaseClock

	every int // checkpoint cadence (0 = none)

	events []fault.Event // plan events in application order
	next   int           // first pending event
	detect sim.Cycle     // failure-detection latency per recovery

	live []bool
	surv []int // live node indices, ascending (failover hash targets)

	// ckpt is the newest recovery checkpoint, the one a recovery restores
	// (nil before the first capture).
	ckpt *recoveryPoint
	// ident is the identity header of the run's blobs (version, digests,
	// shape and names), built by the first blob.
	ident *CheckpointState

	// pr is the run's telemetry glue; nil disables every recording site.
	pr *probes
}

// newRuntime builds the compaction runtime cfg selects over the run's
// Flight fl, whose network is the Degraded wrapper the run's fault events
// degrade in place, with the run's telemetry glue pr attached (nil:
// uninstrumented): fresh when ck is nil, otherwise at the blob's pause
// point with restored engines, recorded durations and BSP partial sums.
// res is the prelude outcome the run finishes. A resumed run re-shards
// nothing before the pause point: the node traces' slots there stay
// empty. A static partition takes its whole-trace traffic split from the
// trace's memo (wholeTraffic); a rebalancing run sharded its past under
// migrated tables, so its traffic so far comes from the blob's
// RebalanceState.
func newRuntime(tr *trace.Trace, fl *topo.Flight, cfg Config, res *Result, ck *CheckpointState, pr *probes) (*runtime, error) {
	n := cfg.Nodes
	rt := &runtime{
		tr:        tr,
		deg:       fl.Network().(*topo.Degraded),
		cfg:       cfg,
		res:       res,
		n:         n,
		iters:     len(tr.Iterations),
		k1:        tr.K - 1,
		static:    cfg.Partitioner.owners(n),
		engines:   make([]*nmp.Engine, n),
		durations: make([][]sim.Cycle, n),
		every:     cfg.CheckpointEvery,
		live:      make([]bool, n),
		pr:        pr,
	}
	if cfg.Faults != nil {
		rt.events = cfg.Faults.Sorted()
		rt.detect = cfg.Faults.DetectCycles
	}
	for i := range rt.live {
		rt.live[i] = true
		rt.surv = append(rt.surv, i)
	}
	rt.clock = newPhaseClock(fl, cfg, rt.iters)
	rt.clock.pr, rt.clock.live = pr, rt.live
	if rp, ok := cfg.Partitioner.(*RebalancePartitioner); ok {
		rt.rb = newRebalancer(tr, n, rp, ck)
		rt.feed = newShardFeed(tr, n, rt.rb.ownerOf, rt.live)
	} else {
		rt.feed = newShardFeed(tr, n, rt.ownerOf, rt.live)
	}
	if ck != nil {
		rt.start = ck.ResumeIter
		if !cfg.Overlap {
			rt.clock.restore(ck)
		}
		if rs := ck.Rebalance; rs != nil {
			rt.feed.traffic = traffic{rs.LocalTNs, rs.RemoteTNs, rs.HaloBytes}
		}
	}
	if rt.start > 0 && rt.rb == nil {
		rt.whole = wholeTraffic(tr, n, cfg.Partitioner)
	}
	if err := startEngines(rt.engines, rt.durations, rt.feed.traces, cfg.NMP, rt.iters, ck); err != nil {
		return nil, err
	}
	// An overlapped run's engines are probed once seal starts the
	// schedule that places their steps (overlap).
	if pr != nil && !cfg.Overlap {
		pr.attach(rt.engines)
	}
	return rt, nil
}

// startEngines builds node i's engine over traces[i] and its row of iters
// durations: fresh when ck is nil, otherwise resumed from the
// checkpoint's engine snapshot with the durations it recorded.
func startEngines(engines []*nmp.Engine, durations [][]sim.Cycle, traces []*trace.Trace, cfg nmp.Config, iters int, ck *CheckpointState) error {
	for i, t := range traces {
		durations[i] = make([]sim.Cycle, iters)
		var err error
		if ck == nil {
			engines[i], err = nmp.NewEngine(t, cfg)
		} else {
			engines[i], err = nmp.ResumeEngine(t, cfg, ck.Engines[i])
			copy(durations[i], ck.Durations[i])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// step feeds iterations [from, to) to the engines one at a time: each is
// carved into an arena from the pool, pre-stepped on every live engine and
// released before the next is carved. A rebalancing run first advances its
// bucket column to the iteration, which the feed's owner reads. The arena
// goes back to the pool when the epoch's iterations are stepped, so a
// paused run holds none. Returns the iterations' halo matrices for the
// drain, valid until the next step.
func (rt *runtime) step(from, to int, pr *probes) [][][]int64 {
	a := arenas.get()
	defer arenas.put(a)
	halos := rt.halos.take(to-from, rt.n)
	for it := from; it < to; it++ {
		if rt.rb != nil {
			rt.rb.col.advance(rt.tr, it, rt.rb.p.M)
		}
		rt.feed.carve(a, it, halos[it-from])
		rt.prestep(it, pr)
		rt.feed.release(it)
	}
	return halos
}

// prestep is the one place engines are stepped: every live engine steps
// iteration it on its local back-to-back clock, one node per pool task,
// recording the iteration's duration and, when pr is non-nil, buffering
// the step's telemetry for the drain that places it. A task owns its node
// exclusively — the engine, its duration row, its DRAM tracks and its
// probe scratch stay single-writer.
func (rt *runtime) prestep(it int, pr *probes) {
	par.ForIdx(rt.n, rt.cfg.Workers, func(i int) {
		if !rt.live[i] {
			return
		}
		e := rt.engines[i]
		if pr != nil {
			pr.beforeStep(i, it, e)
		}
		ti := e.StepIteration()
		rt.durations[i][it] = ti.End - ti.Start
		if pr != nil {
			pr.afterStep(i, it, e, ti)
		}
	})
}

// advance executes iterations [from, to) for a Session step or a
// Checkpoint's pause point, so a run can be split at any iteration
// boundary. A BSP run executes them through the epoch loop (run). An
// overlapped run only feeds and steps the engines, unprobed: seal's epoch
// loop replays those iterations from their recorded durations, as a
// restored run's are.
func (rt *runtime) advance(from, to int) error {
	if !rt.cfg.Overlap {
		return rt.run(from, to)
	}
	rt.step(from, to, nil)
	rt.start = to
	return nil
}

// run is the one epoch loop both disciplines share. It executes
// iterations [from, to): at every epoch boundary it applies the fault
// events whose cycle has been reached (a recovery may rewind the loop
// before from), then — overlapped, past iteration 0 — charges the link
// and sync barriers that close the previous segment, then takes a due
// capture, then a due migration, then runs the epoch up to the next
// capture or rebalance point or to: a BSP superstep drain (bspEpoch) or
// an overlapped segment schedule (segmentEpoch).
func (rt *runtime) run(from, to int) error {
	c := &rt.clock
	for it := from; ; {
		cont, err := rt.boundary(it)
		if err != nil {
			return err
		}
		if cont >= 0 {
			it = cont
			continue
		}
		if it == to {
			return nil
		}
		if rt.cfg.Overlap && it > 0 {
			c.stallBarrier(telemetry.SpanLinkBarrier, it-1, c.lb, 0, true)
			c.stallBarrier(telemetry.SpanSyncBarrier, it-1, nmp.SyncBarrierCycles, 0, false)
		}
		if rt.captureDue(it) {
			if err := rt.capture(it); err != nil {
				return err
			}
		}
		if rt.rb != nil {
			rt.migrateAt(it)
		}
		end := rt.epochEnd(it, to)
		if !rt.cfg.Overlap {
			it = rt.bspEpoch(it, end)
		} else if it, err = rt.segmentEpoch(it, end); err != nil {
			return err
		}
	}
}

// bspEpoch feeds and pre-steps the epoch [from, to), then drains it
// superstep by superstep; a rebalancing run measures the drained
// supersteps for its next migration decision. While a fault event is still
// pending the epoch is cut to one iteration, so the boundary pass before
// every epoch meets the fault exactly where a lockstep run does and no
// engine is ever stepped past it. Returns the epoch's end.
func (rt *runtime) bspEpoch(from, to int) int {
	if rt.next < len(rt.events) {
		to = from + 1 // a fault may land before the next iteration
	}
	halos := rt.step(from, to, rt.pr)
	for j := from; j < to; j++ {
		rt.clock.superstep(j, rt.durations, halos[j-from])
	}
	if rt.rb != nil {
		rt.measure(from, to)
	}
	return to
}

// seal completes the phase — every BSP iteration must have been advanced;
// the overlapped discipline runs its whole epoch loop here, probed — and
// finalizes the run's Result: the three accounting buckets tile the phase
// clock and every engine — survivors complete, casualties frozen at their
// last committed iteration — reports its result. The traffic accounting
// is what the feed committed, or, for a static partition resumed past
// iteration 0, the memoized whole-trace split.
func (rt *runtime) seal() error {
	if rt.cfg.Overlap {
		if rt.pr != nil {
			rt.pr.attach(rt.engines)
		}
		if err := rt.run(0, rt.iters); err != nil {
			return err
		}
	}
	t := rt.feed.traffic
	if rt.whole != nil {
		t = *rt.whole
	}
	t.record(rt.res)
	if rt.rb != nil {
		rt.res.Rebalances = rt.rb.rebalances
		rt.res.MigratedBytes = rt.rb.migratedBytes
	}
	finalize(rt.res, &rt.clock, rt.durations, rt.engines)
	return nil
}

// segmentEpoch is an overlapped epoch: the event-driven halo-streaming
// schedule over [it, end). Epochs are bounded by checkpoint captures (a
// coordinated checkpoint is a global synchronization, so run closes each
// segment with a link barrier and a sync barrier); without a capture
// cadence the whole phase is one all-live segment. Finishing nodes stream
// their halo bytes while laggards compute, and each node's next iteration
// waits only on its own finish (plus sync barrier) and on the delivery of
// the halo traffic it depends on. The segment is executed speculatively:
// if a node loss lands inside it, its recording is rewound, the committed
// window up to the detection boundary is charged as compute (the
// simplification: an overlapped window does not decompose further once
// discarded), and the shared recovery path takes over. Iterations before
// start replay their recorded durations (the schedule is a deterministic
// function of durations, halo and topology; their halo matrices come from
// the count pass alone). A segment's phase time splits as Compute = the
// slowest node's unconstrained local chain (what a zero-cost interconnect
// would yield) and Exchange = the communication time the schedule failed
// to hide. Returns the iteration the loop continues at.
func (rt *runtime) segmentEpoch(it, end int) (int, error) {
	c := &rt.clock
	var marks probeMark
	if rt.pr != nil {
		marks = rt.pr.mark()
	}
	now := c.now()
	from := max(it, rt.start)
	halo := rt.step(from, end, rt.pr)
	if from > it {
		halo = append(rt.feed.halos(it, from), halo...)
	}
	var off sim.Cycle
	if rt.pr != nil {
		off = rt.pr.base + now
	}
	seg := rt.schedule(it, end, halo, off)

	// A loss inside the segment window invalidates it: rewind the
	// speculative recording, commit the window up to the detection
	// boundary as compute, and recover. A loss past the segment's last
	// iteration boundary commits the segment; the next boundary pass
	// detects it.
	for _, ev := range rt.events[rt.next:] {
		if ev.Cycle > now+seg.makespan {
			break
		}
		if ev.Kind != fault.NodeLoss {
			continue
		}
		for j, b := range seg.boundary {
			if now+b < ev.Cycle {
				continue
			}
			if rt.pr != nil {
				rt.pr.rewind(marks)
				if b > 0 {
					rt.pr.phases.Add(telemetry.SpanCompute, off, off+b, int64(it), 0)
				}
			}
			c.compute += b
			cont, err := rt.boundary(it + j + 1)
			if err != nil {
				return 0, err
			}
			if cont < 0 {
				return 0, fmt.Errorf("scaleout: fault at cycle %d detected but not consumed", ev.Cycle)
			}
			return cont, nil
		}
		break
	}

	if rt.pr != nil {
		// A static run's one segment spans the phase; its spans carry no
		// iteration.
		arg := it
		if !rt.cfg.elastic() {
			arg = -1
		}
		rt.pr.segmentSpans(off, seg, arg)
	}
	c.compute += seg.compute
	c.exchange += seg.makespan - seg.compute
	c.exchangedBytes += seg.bytes
	return end, nil
}

// phaseClock is a compaction phase's global clock, tiled into three
// accounting buckets — compute + exchange + barrier is the elapsed phase
// time at every iteration boundary — plus the one BSP superstep drain
// every discipline shares. Halo exchanges and migrations land in
// exchange; link barriers land in barrier with their interconnect share
// tracked in linkBarrier; sync barriers and protocol stalls (checkpoint
// captures, detection, restore) land in barrier too. Whole-machine waits
// are recorded on the runtime track and on the live node tracks.
type phaseClock struct {
	fl    *topo.Flight // the run's network, priced message by message
	iters int
	lb    sim.Cycle // link barrier between supersteps
	pr    *probes
	live  []bool

	compute, exchange, barrier sim.Cycle
	linkBarrier                sim.Cycle
	exchangedBytes             int64

	durs []sim.Cycle // superstep scratch
}

func newPhaseClock(fl *topo.Flight, cfg Config, iters int) phaseClock {
	return phaseClock{
		fl:    fl,
		iters: iters,
		lb:    fl.Network().BarrierCycles(),
		durs:  make([]sim.Cycle, cfg.Nodes),
	}
}

// now is the elapsed phase time.
func (c *phaseClock) now() sim.Cycle { return c.compute + c.exchange + c.barrier }

// restore re-enters a BSP run at a checkpoint from its partial sums; the
// inter-superstep barriers crossed so far depend only on the iteration
// count.
func (c *phaseClock) restore(ck *CheckpointState) {
	crossed := max(min(ck.ResumeIter, c.iters-1), 0)
	c.compute, c.exchange = ck.Compute, ck.Exchange
	c.exchangedBytes = ck.CompactExchangedBytes
	c.linkBarrier = sim.Cycle(crossed) * c.lb
	c.barrier = c.linkBarrier + sim.Cycle(crossed)*nmp.SyncBarrierCycles
}

// stall charges a d-cycle whole-machine wait to bucket (one of the
// clock's own) and records it.
func (c *phaseClock) stall(bucket *sim.Cycle, kind telemetry.SpanKind, it int, d sim.Cycle, bytes int64) {
	if d <= 0 {
		return
	}
	if c.pr != nil {
		c.pr.stall(kind, it, c.pr.base+c.now(), d, bytes, c.live)
	}
	*bucket += d
}

// stallBarrier charges a wait to the barrier bucket; comm marks it as
// interconnect time (the link barrier).
func (c *phaseClock) stallBarrier(kind telemetry.SpanKind, it int, d sim.Cycle, bytes int64, comm bool) {
	if comm && d > 0 {
		c.linkBarrier += d
	}
	c.stall(&c.barrier, kind, it, d, bytes)
}

// superstep drains BSP superstep it from the pre-stepped durations: the
// slowest live node paces the compute segment, the iteration's halo
// exchange runs on the links, and between supersteps a link barrier plus
// the NMP sync barrier close the step, gating every live node's next
// iteration on the slowest one.
func (c *phaseClock) superstep(it int, durations [][]sim.Cycle, halo [][]int64) {
	var slowest sim.Cycle
	maxIdx := 0
	for i := range c.durs {
		c.durs[i] = 0
		if c.live[i] {
			c.durs[i] = durations[i][it]
		}
		if c.durs[i] > slowest {
			slowest = c.durs[i]
			maxIdx = i
		}
	}
	if c.pr != nil {
		c.pr.superstepCompute(it, c.pr.base+c.now(), c.durs, slowest, c.live)
	}
	c.compute += slowest

	hx := c.fl.Exchange(halo, c.pr.linkAt(c.now()))
	c.exchangedBytes += hx.TotalBytes
	c.stall(&c.exchange, telemetry.SpanExchangeWait, it, hx.Cycles, hx.TotalBytes)

	if it+1 < c.iters {
		c.stallBarrier(telemetry.SpanLinkBarrier, it, c.lb, 0, true)
		c.stallBarrier(telemetry.SpanSyncBarrier, it, nmp.SyncBarrierCycles, 0, false)
		if c.pr != nil {
			for i := range c.durs {
				if c.live[i] {
					c.pr.c.AddDep(i, it+1, telemetry.BoundBarrier, maxIdx)
				}
			}
		}
	}
}

// segOutcome summarizes one overlapped segment on its local clock.
type segOutcome struct {
	makespan sim.Cycle   // last finish or halo delivery
	compute  sim.Cycle   // longest live node's local chain in the segment
	boundary []sim.Cycle // boundary[j]: latest live finish of iteration s+j
	bytes    int64       // halo bytes streamed
}

// ovNode is one node's overlap-mode scheduling state on the segment
// timeline (link occupancy lives in the shared topo.Flight).
type ovNode struct {
	// pendingIn[j] counts halo messages of iteration s+j still in flight
	// toward this node.
	pendingIn []int
	// readyAt is when the node's own compute-side constraint for its next
	// iteration is satisfied (previous end + sync barrier).
	readyAt sim.Cycle
	// finished[j] is set once the node's iteration s+j has completed.
	finished []bool
	started  []bool
}

// schedule executes the overlapped macro schedule of iterations [s, e)
// on a fresh event timeline whose cycle 0 is global time off: the finish →
// stream → start dependency structure over the live nodes, routed through
// the interconnect; halo[j] is iteration s+j's matrix. Every duration is
// already recorded; iterations before start were stepped before a
// checkpoint and have no buffered telemetry. The event closures and their
// creation order depend only on the durations, the halo matrices and the
// network, so the schedule is the same however the durations were
// produced.
func (rt *runtime) schedule(s, e int, halo [][][]int64, off sim.Cycle) *segOutcome {
	n, m := rt.n, e-s
	pr, live := rt.pr, rt.live
	const sb = nmp.SyncBarrierCycles
	seg := &segOutcome{boundary: make([]sim.Cycle, m)}

	g := &sim.Engine{}
	if pr != nil {
		g.SetProbe(&pr.loop)
	}
	nodes := make([]*ovNode, n)
	// lastEnd[i] is node i's last iteration end on the segment clock, for
	// the gap spans between iterations.
	lastEnd := make([]sim.Cycle, n)
	for i := range nodes {
		if live[i] {
			nodes[i] = &ovNode{
				pendingIn: make([]int, m),
				finished:  make([]bool, m),
				started:   make([]bool, m),
			}
		}
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
	var lp *topo.Probe
	if pr != nil {
		lp = &topo.Probe{Links: pr.links, Offset: off}
	}
	fl := rt.clock.fl
	fl.Reset(g, lp)
	note := func(t sim.Cycle) {
		if t > seg.makespan {
			seg.makespan = t
		}
	}

	var begin func(i, j int, at sim.Cycle)
	// tryStart launches node i's iteration s+j once both its compute-side
	// and delivery-side dependencies have resolved; the triggering event
	// supplies the later of the two times. src is the halo sender when a
	// delivery triggered the call, -1 when the node's own finish did.
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
				// The last constraint to resolve was a halo delivery that
				// landed after the node's own compute-side readiness: the
				// interconnect bounded this iteration.
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
		// Stream this iteration's outgoing halo through the topology: the
		// Flight reserves the first route link immediately (the sender's
		// serializing injection port) and store-and-forwards through every
		// contended downstream link, the same occupancy discipline
		// topo.Exchange uses. The tag is the segment iteration.
		for k := 1; k < n; k++ {
			dst := (i + k) % n
			if !live[dst] {
				continue
			}
			if b := halo[j][i][dst]; b > 0 {
				fl.Send(i, dst, b, int32(j))
			}
		}
		if j+1 < m {
			nd.readyAt = now + sb
			tryStart(i, j+1, -1)
		}
	}
	// A delivery of iteration s+j's halo from src may unblock dst's next
	// iteration.
	fl.OnDeliver(func(src, dst int, j int32) {
		note(g.Now())
		nodes[dst].pendingIn[j]--
		tryStart(dst, int(j)+1, src)
	})
	begin = func(i, j int, at sim.Cycle) {
		g.At(at, func() {
			it := s + j
			// The gap since the node's previous iteration decomposes into
			// the sync barrier and, past it, the halo-delivery wait (the
			// start is never earlier than readyAt = previous end + sb).
			if pr != nil && j > 0 {
				e0 := lastEnd[i]
				pr.node[i].Add(telemetry.SpanSyncBarrier, off+e0, off+e0+sb, int64(it), 0)
				if at > e0+sb {
					pr.node[i].Add(telemetry.SpanDeliveryWait, off+e0+sb, off+at, int64(it), 0)
				}
			}
			d := rt.durations[i][it]
			if pr != nil {
				if it < rt.start {
					pr.placeReplayed(i, it, off+at, d)
				} else {
					pr.place(i, it, off+at)
				}
			}
			lastEnd[i] = at + d
			g.After(d, func() { finish(i, j) })
		})
	}
	for i := 0; i < n; i++ {
		if live[i] {
			nodes[i].started[0] = true
			begin(i, 0, 0)
		}
	}
	g.Run()

	// A node's unconstrained local chain is its durations joined by sync
	// barriers — what a free interconnect would run, and exactly the
	// engine's back-to-back clock advance over the segment; anything
	// beyond the slowest chain is exposed communication.
	for i := 0; i < n; i++ {
		if !live[i] {
			continue
		}
		c := sim.Cycle(m-1) * sb
		for it := s; it < e; it++ {
			c += rt.durations[i][it]
		}
		if c > seg.compute {
			seg.compute = c
		}
		if pr != nil && lastEnd[i] < seg.makespan {
			pr.node[i].Add(telemetry.SpanIdle, off+lastEnd[i], off+seg.makespan, int64(e-1), 0)
		}
	}
	return seg
}
