// Telemetry glue for the distributed runtime: one probes value per
// instrumented run owns the track layout (runtime phase schedule, one
// track per node engine, per DRAM channel, per topology link), the
// engine/link/DRAM probe attachments, and the local-to-global re-basing
// that pins spans recorded on a node's back-to-back clock onto the run's
// shared timeline.
//
// Engines are stepped ahead of the schedule (prestep, runtime.go):
// beforeStep/afterStep buffer each step's record on its local clock, and
// the drain later pins the record onto the shared timeline (place).
//
// Concurrency contract: beforeStep/afterStep run on the worker goroutine
// that owns node i and touch only node-i records, scratch and DRAM tracks
// (each track is single-writer); every other method runs on the
// single-threaded drain, after the workers have joined. A nil *probes
// disables everything — the recording sites are nil-guarded, so a
// telemetry-free run takes one branch per site and allocates nothing.
package scaleout

import (
	"fmt"

	"nmppak/internal/nmp"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
)

// busScratch is the per-node DRAM bus reading around one engine step.
type busScratch struct {
	prev, cur []int64
}

// stepRec is one buffered engine step: the bracket state recorded on the
// worker goroutine around the step, placed onto the global timeline later,
// when the drain reaches the iteration. dramFrom/dramTo bracket the step's
// span batch on each DRAM track so place can re-base exactly that batch —
// later iterations' spans may already sit past dramTo by then, still on
// their local clock, waiting for their own placement.
type stepRec struct {
	start, end sim.Cycle // the step's local-clock window
	busDelta   int64     // DRAM bus cycles the step consumed
	dramFrom   []int
	dramTo     []int

	// Post-step engine event-kernel counters, so dropBuffered can rewind
	// pr.kern when a recovery discards pre-stepped iterations the drain
	// never reached (a lockstep run never stepped them, and the counters
	// end up in the trace).
	ev   int64
	pend int
}

type probes struct {
	c      *telemetry.Collector
	phases *telemetry.Track     // the runtime's phase schedule
	node   []*telemetry.Track   // per node engine
	dram   [][]*telemetry.Track // [node][channel]
	links  []*telemetry.Track   // per dense link ID

	kern []sim.Probe // per-node engine event-kernel counters
	loop sim.Probe   // the overlapped discipline's global event loop

	// base is the compaction phase's global start (the software phases
	// end there); set by prelude.
	base sim.Cycle

	lp  topo.Probe // reusable link-probe header for serial exchanges
	bus []busScratch

	// buf holds the per-iteration step records, [node][iteration].
	buf [][]stepRec
}

// newProbes lays out every track of the run up front, in a fixed order
// (the export order), before any parallel section, and sizes the step
// records for an iters-iteration compaction phase.
func newProbes(c *telemetry.Collector, net topo.Network, cfg Config, iters int) *probes {
	n := cfg.Nodes
	chs := cfg.NMP.Channels
	pr := &probes{c: c}
	pr.phases = c.NewTrack(telemetry.TrackRuntime, 0, "phases")
	pr.node = make([]*telemetry.Track, n)
	for i := 0; i < n; i++ {
		pr.node[i] = c.NewTrack(telemetry.TrackNode, i, fmt.Sprintf("node%d", i))
	}
	pr.dram = make([][]*telemetry.Track, n)
	for i := 0; i < n; i++ {
		pr.dram[i] = make([]*telemetry.Track, chs)
		for ch := 0; ch < chs; ch++ {
			pr.dram[i][ch] = c.NewTrack(telemetry.TrackDRAM, i*chs+ch, fmt.Sprintf("node%d/ch%d", i, ch))
		}
	}
	pr.links = make([]*telemetry.Track, net.NumLinks())
	for l := range pr.links {
		pr.links[l] = c.NewTrack(telemetry.TrackLink, l, fmt.Sprintf("%s/link%d", net.Name(), l))
	}
	pr.kern = make([]sim.Probe, n)
	pr.bus = make([]busScratch, n)
	pr.buf = make([][]stepRec, n)
	for i := range pr.buf {
		pr.buf[i] = make([]stepRec, iters)
	}
	pr.lp.Links = pr.links
	return pr
}

// attach hooks the per-node engines: DRAM channel tracks and event-kernel
// counters.
func (pr *probes) attach(engines []*nmp.Engine) {
	for i, e := range engines {
		e.SetKernelProbe(&pr.kern[i])
		e.SetDRAMProbes(pr.dram[i])
	}
}

// linkAt returns the link probe positioned at global time off, for a
// serial exchange about to run on its own local engine.
func (pr *probes) linkAt(off sim.Cycle) *topo.Probe {
	pr.lp.Offset = off
	return &pr.lp
}

// phaseSpans renders one software phase at global time t on the runtime
// track (compute, then exchange, then the interconnect barrier — the
// order finalize sums them in) and returns the phase end.
func (pr *probes) phaseSpans(p PhaseCycles, t sim.Cycle) sim.Cycle {
	if p.Compute > 0 {
		pr.phases.Add(telemetry.SpanCompute, t, t+p.Compute, -1, 0)
		t += p.Compute
	}
	if p.Exchange > 0 {
		pr.phases.Add(telemetry.SpanExchangeWait, t, t+p.Exchange, -1, 0)
		t += p.Exchange
	}
	if p.Barrier > 0 {
		pr.phases.Add(telemetry.SpanLinkBarrier, t, t+p.Barrier, -1, 0)
		t += p.Barrier
	}
	return t
}

// prelude records the software phases (counting, construction) and
// anchors the compaction phase's global start.
func (pr *probes) prelude(res *Result) {
	t := pr.phaseSpans(res.Count, 0)
	pr.base = pr.phaseSpans(res.Construct, t)
}

// beforeStep and afterStep bracket node i's step of iteration it and
// buffer its record; both run on the worker goroutine that owns node i.
func (pr *probes) beforeStep(i, it int, e *nmp.Engine) {
	r := &pr.buf[i][it]
	r.dramFrom = r.dramFrom[:0]
	for _, t := range pr.dram[i] {
		r.dramFrom = append(r.dramFrom, t.Len())
	}
	b := &pr.bus[i]
	b.prev = e.AppendBusBusy(b.prev[:0])
}

func (pr *probes) afterStep(i, it int, e *nmp.Engine, ti nmp.IterTiming) {
	r := &pr.buf[i][it]
	b := &pr.bus[i]
	b.cur = e.AppendBusBusy(b.cur[:0])
	r.busDelta = 0
	for c := range b.cur {
		r.busDelta += b.cur[c] - b.prev[c]
	}
	r.start, r.end = ti.Start, ti.End
	r.dramTo = r.dramTo[:0]
	for _, t := range pr.dram[i] {
		r.dramTo = append(r.dramTo, t.Len())
	}
	r.ev, r.pend = pr.kern[i].Dispatched, pr.kern[i].MaxPending
}

// place pins node i's pre-stepped iteration it onto the global timeline at
// gs: the iteration span lands on the node track (Arg2 = the step's DRAM
// bus cycles) and the step's own DRAM span batch is re-based from the
// engine's local clock (ShiftRange, because the track tail may already
// hold later pre-stepped iterations).
func (pr *probes) place(i, it int, gs sim.Cycle) {
	r := &pr.buf[i][it]
	delta := gs - r.start
	for c, t := range pr.dram[i] {
		t.ShiftRange(r.dramFrom[c], r.dramTo[c], delta)
	}
	pr.node[i].Add(telemetry.SpanIter, gs, gs+(r.end-r.start), int64(it), r.busDelta)
}

// placeReplayed records an iteration whose engine step happened before a
// checkpoint: the overlapped restore replays its recorded duration, so
// there is no DRAM attribution to re-base.
func (pr *probes) placeReplayed(i, it int, gs, d sim.Cycle) {
	pr.node[i].Add(telemetry.SpanIter, gs, gs+d, int64(it), 0)
}

// dropBuffered discards node i's un-placed DRAM spans from pre-stepped
// iteration `from` on: the elastic BSP drain calls it before a recovery
// rolls the run back past those iterations, since the drain never reached
// them and their spans must not survive on the tracks. The spans of iterations >= from form the track tail (placement
// happens in iteration order), so truncating to the buffered batch start
// removes exactly them.
func (pr *probes) dropBuffered(i, from int) {
	r := &pr.buf[i][from]
	for c, t := range pr.dram[i] {
		t.Truncate(r.dramFrom[c])
	}
	k := &pr.kern[i]
	if from > 0 {
		p := &pr.buf[i][from-1]
		k.Dispatched, k.MaxPending = p.ev, p.pend
	} else {
		k.Dispatched, k.MaxPending = 0, 0
	}
}

// stall records one d-cycle whole-machine wait starting at gnow on the
// runtime track and every live node track (live == nil: every node).
func (pr *probes) stall(kind telemetry.SpanKind, it int, gnow, d sim.Cycle, bytes int64, live []bool) {
	if d <= 0 {
		return
	}
	pr.phases.Add(kind, gnow, gnow+d, int64(it), bytes)
	for i := range pr.node {
		if live == nil || live[i] {
			pr.node[i].Add(kind, gnow, gnow+d, int64(it), 0)
		}
	}
}

// superstepCompute places every live node's pre-stepped iteration at
// gnow, fills the stragglers' idle windows up to the slowest node and
// records the phase compute segment. Dead nodes record nothing (their
// tracks simply end at the iteration they died in).
func (pr *probes) superstepCompute(it int, gnow sim.Cycle, durs []sim.Cycle, max sim.Cycle, live []bool) {
	for i := range pr.node {
		if live != nil && !live[i] {
			continue
		}
		pr.place(i, it, gnow)
		if durs[i] < max {
			pr.node[i].Add(telemetry.SpanIdle, gnow+durs[i], gnow+max, int64(it), 0)
		}
	}
	if max > 0 {
		pr.phases.Add(telemetry.SpanCompute, gnow, gnow+max, int64(it), 0)
	}
}

// segmentSpans records an overlapped segment starting at global time off
// on the runtime track: its compute share, then the exposed exchange.
func (pr *probes) segmentSpans(off sim.Cycle, seg *segOutcome, it int) {
	if seg.compute > 0 {
		pr.phases.Add(telemetry.SpanCompute, off, off+seg.compute, int64(it), 0)
	}
	if seg.makespan > seg.compute {
		pr.phases.Add(telemetry.SpanExchangeWait, off+seg.compute, off+seg.makespan, int64(it), seg.bytes)
	}
}

// instant drops a zero-length marker span on the runtime track (exported
// to Chrome traces as an instant event).
func (pr *probes) instant(kind telemetry.SpanKind, at sim.Cycle, a1, a2 int64) {
	pr.phases.Add(kind, at, at, a1, a2)
}

// probeMark captures the recording position across every track and the
// dependency stream, so a speculative window (an elastic overlapped
// segment) can be rewound when a fault discards its work.
type probeMark struct {
	tracks []int
	deps   int
}

func (pr *probes) mark() probeMark {
	ts := pr.c.Tracks()
	m := probeMark{tracks: make([]int, len(ts)), deps: pr.c.NumDeps()}
	for i, t := range ts {
		m.tracks[i] = t.Len()
	}
	return m
}

func (pr *probes) rewind(m probeMark) {
	for i, t := range pr.c.Tracks() {
		if i < len(m.tracks) {
			t.Truncate(m.tracks[i])
		}
	}
	pr.c.TruncateDeps(m.deps)
}

// seal records the end-of-run event-loop counters.
func (pr *probes) seal() {
	var ev int64
	var maxPend int
	for i := range pr.kern {
		ev += pr.kern[i].Dispatched
		if pr.kern[i].MaxPending > maxPend {
			maxPend = pr.kern[i].MaxPending
		}
	}
	pr.c.AddCounter("engine_events", ev)
	pr.c.AddCounter("engine_max_pending", int64(maxPend))
	if pr.loop.Dispatched > 0 {
		pr.c.AddCounter("overlap_events", pr.loop.Dispatched)
		pr.c.AddCounter("overlap_max_pending", int64(pr.loop.MaxPending))
	}
}
