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
//     (topo.Flight) that price topo.Exchange.
//
// In both modes each engine advances on its local back-to-back clock
// (identical to nmp.Simulate), so per-iteration durations — and therefore
// every per-node Result — are identical across modes; the modes differ
// only in how those durations and the halo traffic compose on the global
// timeline. That makes the BSP/overlap comparison exact: same compute,
// different schedule.
//
// The same fact drives every discipline — static, rebalancing and elastic
// — through one epoch driver. An epoch is a range of iterations with no
// checkpoint capture, migration or Session.Step boundary inside it. Each
// epoch is sharded just before it is stepped: the one shard feed
// (shardFeed) appends its per-node slices to the node traces, so a run —
// fresh or resumed — shards only the iterations it replays. Every live
// engine is then pre-stepped through the whole epoch on the worker pool
// (prestep; Workers=1 is a pool of one), and the epoch is drained from
// the recorded durations and the buffered telemetry: by the BSP superstep
// drain (phaseClock.superstep) or by the overlapped segment schedule
// (segment.run). Because an iteration's duration never depends on when
// the schedule starts it, pre-stepping changes nothing the drain
// computes: results, Chrome traces and checkpoint blobs are
// byte-identical at every worker count.
package scaleout

import (
	"nmppak/internal/nmp"
	"nmppak/internal/par"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// compactOutcome is the compaction phase as scheduled by the runtime.
type compactOutcome struct {
	Phase          PhaseCycles
	LinkBarrier    sim.Cycle // interconnect share of Phase.Barrier
	ExchangedBytes int64
	NMP            []*nmp.Result
	// Durations[i][it] is node i's compute time for iteration it.
	Durations [][]sim.Cycle
}

// phaseRun is a compaction runtime that can be advanced epoch by epoch,
// snapshotted between iterations and sealed: the static-partitioner
// runtime or the rebalancing one. Sessions, Checkpoint and Restore drive
// both through it.
type phaseRun interface {
	setProbes(pr *probes)
	// advance executes iterations [from, to) as BSP supersteps.
	advance(from, to int)
	// phase is the run's compaction-phase clock.
	phase() *phaseClock
	// snapshot records the compaction state on a checkpoint whose
	// ResumeIter is the current boundary.
	snapshot(ck *CheckpointState) error
	// seal completes the phase — every BSP iteration must have been
	// advanced; the overlapped static run schedules its whole macro
	// schedule here — and records the run's traffic accounting on res.
	seal(res *Result) *compactOutcome
}

// newRun builds the compaction runtime cfg's partitioner selects: fresh
// at iteration 0 when ck is nil, otherwise rebuilt at the checkpoint's
// pause point.
func newRun(tr *trace.Trace, net topo.Network, cfg Config, ck *CheckpointState) (phaseRun, error) {
	if rp, ok := cfg.Partitioner.(*RebalancePartitioner); ok {
		rr, err := newRebalanceRun(tr, net, cfg, rp, ck)
		if err != nil {
			return nil, err
		}
		return rr, nil
	}
	rt, err := newRuntime(tr, net, cfg, ck)
	if err != nil {
		return nil, err
	}
	return rt, nil
}

// finishRun executes a run's remaining iterations from boundary `from`
// and seals it.
func finishRun(run phaseRun, cfg Config, res *Result, from int) *compactOutcome {
	if !cfg.Overlap {
		run.advance(from, run.phase().iters)
	}
	return run.seal(res)
}

// runtime owns the per-node engines and their shard feed under the
// static partition. A fresh runtime starts at iteration 0; one
// reconstructed from a checkpoint carries the recorded durations and BSP
// partial sums of the iterations already executed and shards and steps
// only from `start` on.
type runtime struct {
	cfg   Config
	net   topo.Network
	iters int
	start int // first iteration the engines step live

	feed shardFeed
	// whole holds the whole-trace shard facts of a run resumed past
	// iteration 0, whose feed never sees the iterations before start; nil
	// when the feed covers every iteration.
	whole *shardFacts

	engines   []*nmp.Engine
	durations [][]sim.Cycle

	// clock holds the BSP partial sums over the executed iterations (a
	// restored run starts from the checkpointed ones).
	clock phaseClock

	// pr is the run's telemetry glue; nil disables every recording site.
	pr *probes
}

// setProbes attaches (or, with nil, skips) the run's telemetry glue.
func (rt *runtime) setProbes(pr *probes) {
	rt.pr = pr
	rt.clock.pr = pr
	if pr != nil {
		pr.attach(rt.engines)
	}
}

// newRuntime builds the static-partition runtime: fresh when ck is nil,
// otherwise at the blob's pause point with restored engines, recorded
// durations and BSP partial sums. A resumed run re-shards nothing before
// the pause point: the node traces hold placeholders there, and the
// whole-trace traffic split and the iteration-0 quantile tables come from
// the trace's memoized shard facts.
func newRuntime(tr *trace.Trace, net topo.Network, cfg Config, ck *CheckpointState) (*runtime, error) {
	iters := len(tr.Iterations)
	rt := &runtime{
		cfg:       cfg,
		net:       net,
		iters:     iters,
		feed:      newShardFeed(tr, cfg.Nodes, staticOwner(tr, cfg.Nodes, cfg.Partitioner), nil),
		engines:   make([]*nmp.Engine, cfg.Nodes),
		durations: make([][]sim.Cycle, cfg.Nodes),
		clock:     newPhaseClock(net, cfg, iters),
	}
	if ck != nil {
		rt.start = ck.ResumeIter
		rt.clock.restore(ck)
	}
	if rt.start > 0 {
		rt.whole = shardFactsOf(tr, cfg.Nodes, cfg.Partitioner)
		rt.feed.resumeAt(rt.start, rt.whole.quantiles)
	}
	if err := startEngines(rt.engines, rt.durations, rt.feed.traces, cfg.NMP, iters, ck); err != nil {
		return nil, err
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

// prestep is the one place engines are stepped: every live engine (live
// == nil: every engine) advances through iterations [from, to) on its
// local back-to-back clock, one node per pool task, recording each
// iteration's duration in durations and, when instrumented, buffering the
// step's telemetry for the drain that places it. A task owns its node
// exclusively — the engine, its duration row, its DRAM tracks and its
// probe scratch stay single-writer.
func prestep(engines []*nmp.Engine, live []bool, durations [][]sim.Cycle, from, to, workers int, pr *probes) {
	if to <= from {
		return
	}
	par.ForIdx(len(engines), workers, func(i int) {
		if live != nil && !live[i] {
			return
		}
		e := engines[i]
		for it := from; it < to; it++ {
			if pr != nil {
				pr.beforeStep(i, it, e)
			}
			ti := e.StepIteration(e.NextStart())
			durations[i][it] = ti.End - ti.Start
			if pr != nil {
				pr.afterStep(i, it, e, ti)
			}
		}
	})
}

// step shards iterations [from, to) onto the node traces and pre-steps
// every engine through them, returning their halo matrices.
func (rt *runtime) step(from, to int) [][][]int64 {
	halos := rt.feed.shard(from, to)
	prestep(rt.engines, nil, rt.durations, from, to, rt.cfg.Workers, rt.pr)
	return halos
}

// advance runs iterations [from, to) as one BSP epoch — the static
// partition has no interior epoch boundary — sharding it and pre-stepping
// every engine through it, then draining superstep by superstep. The
// partial sums accumulate on the clock, so a run can be split at any
// iteration boundary: a checkpoint capture or a Session.Step stops
// mid-way.
func (rt *runtime) advance(from, to int) {
	halos := rt.step(from, to)
	for it := from; it < to; it++ {
		rt.clock.superstep(it, rt.durations, halos[it-from])
	}
}

// phase implements phaseRun.
func (rt *runtime) phase() *phaseClock { return &rt.clock }

// seal implements phaseRun. The static partition's traffic accounting
// covers the whole trace: what the feed counted, or, for a run resumed
// past iteration 0, the memoized whole-trace facts.
func (rt *runtime) seal(res *Result) *compactOutcome {
	var out *compactOutcome
	if rt.cfg.Overlap {
		out = rt.runOverlapped()
	} else {
		out = rt.clock.outcome(rt.durations, rt.engines)
	}
	t := rt.feed.traffic
	if rt.whole != nil {
		t = rt.whole.traffic
	}
	t.record(res)
	return out
}

// runOverlapped schedules the whole phase as one all-live overlapped
// segment: finishing nodes stream their halo bytes while laggards
// compute, and each node's next iteration waits only on its own finish
// (plus sync barrier) and on the delivery of the halo traffic it depends
// on. A restored run replays the iterations before its checkpoint from
// the recorded durations (the macro schedule is a deterministic function
// of durations, halo and topology; the replayed iterations' halo matrices
// come from the count pass alone) and shards and pre-steps only the rest.
// The phase is split as Compute = the slowest node's unconstrained local
// chain (what a zero-cost interconnect would yield) and Exchange = the
// communication time the schedule failed to hide.
func (rt *runtime) runOverlapped() *compactOutcome {
	out := &compactOutcome{Durations: rt.durations}
	if rt.iters > 0 {
		halo := append(rt.feed.halos(0, rt.start), rt.step(rt.start, rt.iters)...)
		sg := segment{
			s: 0, e: rt.iters, halo: halo, net: rt.net,
			durations: rt.durations, replayed: rt.start,
			sb: rt.cfg.NMP.SyncBarrierCycles, pr: rt.pr,
		}
		if rt.pr != nil {
			sg.off = rt.pr.base
		}
		seg := sg.run()
		if rt.pr != nil {
			rt.pr.segmentSpans(sg.off, seg, -1)
		}
		out.Phase = PhaseCycles{Compute: seg.compute, Exchange: seg.makespan - seg.compute}
		out.ExchangedBytes = seg.bytes
	}
	out.NMP = engineResults(rt.engines)
	return out
}

// engineResults seals every engine and collects its result.
func engineResults(engines []*nmp.Engine) []*nmp.Result {
	res := make([]*nmp.Result, len(engines))
	for i, e := range engines {
		res[i] = e.Result()
	}
	return res
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
	net    topo.Network
	iters  int
	lb, sb sim.Cycle // link and sync barrier between supersteps
	pr     *probes
	live   []bool // nil: every node is live

	compute, exchange, barrier sim.Cycle
	linkBarrier                sim.Cycle
	exchangedBytes             int64

	durs []sim.Cycle // superstep scratch
}

func newPhaseClock(net topo.Network, cfg Config, iters int) phaseClock {
	return phaseClock{
		net:   net,
		iters: iters,
		lb:    net.BarrierCycles(),
		sb:    cfg.NMP.SyncBarrierCycles,
		durs:  make([]sim.Cycle, cfg.Nodes),
	}
}

// now is the elapsed phase time.
func (c *phaseClock) now() sim.Cycle { return c.compute + c.exchange + c.barrier }

// save records the BSP partial sums on a checkpoint.
func (c *phaseClock) save(ck *CheckpointState) {
	ck.Compute, ck.Exchange = c.compute, c.exchange
	ck.CompactExchangedBytes = c.exchangedBytes
}

// restore re-enters a BSP run at a checkpoint from its partial sums; the
// inter-superstep barriers crossed so far depend only on the iteration
// count.
func (c *phaseClock) restore(ck *CheckpointState) {
	crossed := max(min(ck.ResumeIter, c.iters-1), 0)
	c.compute, c.exchange = ck.Compute, ck.Exchange
	c.exchangedBytes = ck.CompactExchangedBytes
	c.linkBarrier = sim.Cycle(crossed) * c.lb
	c.barrier = c.linkBarrier + sim.Cycle(crossed)*c.sb
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

// doExchange prices one all-to-all on the network at the current time,
// mirroring its link occupancy onto the link tracks when instrumented.
func (c *phaseClock) doExchange(b [][]int64) topo.ExchangeStats {
	if c.pr != nil {
		return topo.ExchangeProbed(c.net, b, c.pr.linkAt(c.pr.base+c.now()))
	}
	return topo.Exchange(c.net, b)
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
		if c.live == nil || c.live[i] {
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

	hx := c.doExchange(halo)
	c.exchangedBytes += hx.TotalBytes
	c.stall(&c.exchange, telemetry.SpanExchangeWait, it, hx.Cycles, hx.TotalBytes)

	if it+1 < c.iters {
		c.stallBarrier(telemetry.SpanLinkBarrier, it, c.lb, 0, true)
		c.stallBarrier(telemetry.SpanSyncBarrier, it, c.sb, 0, false)
		if c.pr != nil {
			for i := range c.durs {
				if c.live == nil || c.live[i] {
					c.pr.c.AddDep(i, it+1, telemetry.BoundBarrier, maxIdx)
				}
			}
		}
	}
}

// outcome seals a phase the clock drained: its buckets, the recorded
// durations and every engine's result.
func (c *phaseClock) outcome(durations [][]sim.Cycle, engines []*nmp.Engine) *compactOutcome {
	return &compactOutcome{
		Phase:          PhaseCycles{Compute: c.compute, Exchange: c.exchange, Barrier: c.barrier},
		LinkBarrier:    c.linkBarrier,
		ExchangedBytes: c.exchangedBytes,
		Durations:      durations,
		NMP:            engineResults(engines),
	}
}

// segment is one overlapped schedule over iterations [s, e) on a fresh
// event timeline whose cycle 0 is global time off: the finish → stream →
// start dependency structure over the live nodes, routed through net.
// Every duration is already recorded; iterations below replayed were
// stepped before a checkpoint and have no buffered telemetry.
type segment struct {
	s, e      int
	halo      [][][]int64 // halo[j] is iteration s+j's matrix
	net       topo.Network
	live      []bool // nil: every node is live
	durations [][]sim.Cycle
	replayed  int
	sb        sim.Cycle
	off       sim.Cycle
	pr        *probes
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

// run executes the segment's macro schedule. The event closures and
// their creation order depend only on the durations, the halo matrices
// and the network, so the schedule is the same however the durations
// were produced.
func (sg *segment) run() *segOutcome {
	n, m, s := len(sg.durations), sg.e-sg.s, sg.s
	pr, sb, off := sg.pr, sg.sb, sg.off
	live := func(i int) bool { return sg.live == nil || sg.live[i] }
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
		if live(i) {
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
				if dst != src && sg.halo[j][src][dst] > 0 {
					nodes[dst].pendingIn[j]++
					seg.bytes += sg.halo[j][src][dst]
				}
			}
		}
	}
	fl := topo.NewFlight(sg.net, g)
	if pr != nil {
		fl.SetProbe(&topo.Probe{Links: pr.links, Offset: off})
	}
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
		// topo.Exchange uses.
		for k := 1; k < n; k++ {
			dst := (i + k) % n
			if !live(dst) {
				continue
			}
			b := sg.halo[j][i][dst]
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
			it := s + j
			// The gap since the node's previous iteration decomposes into
			// the sync barrier and, past it, the halo-delivery wait (the
			// start is never earlier than readyAt = previous end + sb).
			if pr != nil && j > 0 {
				e0 := lastEnd[i]
				if sb > 0 {
					pr.node[i].Add(telemetry.SpanSyncBarrier, off+e0, off+e0+sb, int64(it), 0)
				}
				if at > e0+sb {
					pr.node[i].Add(telemetry.SpanDeliveryWait, off+e0+sb, off+at, int64(it), 0)
				}
			}
			d := sg.durations[i][it]
			if pr != nil {
				if it < sg.replayed {
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
		if live(i) {
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
		if !live(i) {
			continue
		}
		c := sim.Cycle(m-1) * sb
		for it := sg.s; it < sg.e; it++ {
			c += sg.durations[i][it]
		}
		if c > seg.compute {
			seg.compute = c
		}
		if pr != nil && lastEnd[i] < seg.makespan {
			pr.node[i].Add(telemetry.SpanIdle, off+lastEnd[i], off+seg.makespan, int64(sg.e-1), 0)
		}
	}
	return seg
}
