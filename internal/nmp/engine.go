package nmp

import (
	"fmt"

	"nmppak/internal/dram"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/trace"
)

// Engine is a resumable trace replay: one NMP-PaK node whose simulation
// advances one compaction iteration per StepIteration call instead of
// running to completion. Between steps the engine is quiescent — no
// pending events, all DRAM bank state settled into absolute cycle times —
// so an external driver (the scale-out runtime, internal/scaleout) can
// interleave its own events between iterations and impose per-iteration
// start times without perturbing the intra-iteration outcome. Simulate is
// a thin loop over StepIteration and produces bit-identical results to
// the pre-refactor monolithic simulator.
//
// Time inside an Engine is the node's local clock. StepIteration's
// notBefore argument is expressed on that clock; drivers that run many
// engines on a shared global timeline (each with its own local clock)
// translate between the two by offsetting durations, never by rewinding
// an engine.
type Engine struct {
	cfg      Config
	tr       *trace.Trace
	channels []*dram.Channel
	kernel   sim.Engine
	res      Result
	next     int       // index of the next iteration to step
	clock    sim.Cycle // local end time of the last stepped iteration
	final    bool      // Result() has sealed the aggregate fields
}

// NewEngine validates the configuration and prepares a stepwise replay of
// tr. No simulation work happens until the first StepIteration.
func NewEngine(tr *trace.Trace, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr == nil {
		return nil, fmt.Errorf("nmp: nil trace")
	}
	e := &Engine{cfg: cfg, tr: tr, channels: make([]*dram.Channel, cfg.Channels)}
	for i := range e.channels {
		e.channels[i] = dram.NewChannel(cfg.DRAM)
	}
	return e, nil
}

// Iterations returns the total iteration count of the trace.
func (e *Engine) Iterations() int { return len(e.tr.Iterations) }

// Next returns the index of the iteration the next StepIteration will run.
func (e *Engine) Next() int { return e.next }

// Done reports whether every iteration has been stepped.
func (e *Engine) Done() bool { return e.next >= len(e.tr.Iterations) }

// Now returns the local end time of the last stepped iteration (0 before
// the first step).
func (e *Engine) Now() sim.Cycle { return e.clock }

// SetKernelProbe attaches an event-loop probe to the engine's internal
// event kernel (nil detaches; disabled costs one branch per event).
func (e *Engine) SetKernelProbe(p *sim.Probe) { e.kernel.SetProbe(p) }

// SetDRAMProbes attaches one data-bus occupancy track per DRAM channel
// (tracks[i] to channel i; a short or nil slice leaves the rest
// unprobed). Spans land on the engine's local clock; drivers re-base them
// with Track.ShiftRange after each step.
func (e *Engine) SetDRAMProbes(tracks []*telemetry.Track) {
	for i, ch := range e.channels {
		if i < len(tracks) {
			ch.SetProbe(tracks[i])
		} else {
			ch.SetProbe(nil)
		}
	}
}

// AppendBusBusy appends each channel's cumulative data-bus busy cycles to
// dst (drivers diff successive calls to attribute DRAM-bound time to one
// iteration).
func (e *Engine) AppendBusBusy(dst []int64) []int64 {
	for _, ch := range e.channels {
		dst = append(dst, ch.Stats.BusBusyCycles)
	}
	return dst
}

// NextStart returns the earliest local time the next iteration may begin:
// the end of the previous one plus the runtime's lockstep sync barrier
// (iteration 0 starts at 0). Passing this to StepIteration reproduces the
// back-to-back schedule of Simulate.
func (e *Engine) NextStart() sim.Cycle {
	if e.next == 0 {
		return 0
	}
	return e.clock + e.cfg.SyncBarrierCycles
}

// StepIteration simulates the next iteration, beginning no earlier than
// notBefore on the engine's local clock, and returns its timing. The
// caller controls inter-iteration time: NextStart() gives the single-node
// schedule, while a distributed driver may hold an iteration back until
// halo traffic has been delivered. Stepping a finished engine panics.
func (e *Engine) StepIteration(notBefore sim.Cycle) IterTiming {
	if e.Done() {
		panic("nmp: StepIteration past the end of the trace")
	}
	if e.final {
		panic("nmp: StepIteration after Result")
	}
	start := notBefore
	if start < e.clock {
		start = e.clock
	}
	iter := &e.tr.Iterations[e.next]
	is := acquireIterSim(&e.cfg)
	is.reset(&e.kernel, e.channels, &e.cfg, e.tr, iter, start, &e.res)
	is.kickoff()
	e.kernel.Run()
	end := e.kernel.Now()
	ti := IterTiming{
		Start: start, NMPDone: is.lastNMP, CPUDone: is.lastCPU, End: end,
		NodesNMP: is.nmpNodes, NodesCPU: len(is.cpuNodes),
	}
	e.res.PerIter = append(e.res.PerIter, ti)
	e.res.NMPBusyCycles += is.lastNMP - start
	if is.lastCPU > start {
		e.res.CPUBusyCycles += is.lastCPU - start
	}
	if is.lastCPU <= is.lastNMP {
		e.res.HiddenCPUIters++
	}
	is.release()
	e.clock = end
	e.next++
	return ti
}

// Result seals and returns the accumulated simulation result. It may be
// called once all desired iterations are stepped (normally when Done);
// the engine cannot be stepped afterwards.
func (e *Engine) Result() *Result {
	if !e.final {
		e.final = true
		e.res.Iterations = e.next
		e.res.Cycles = e.clock
		e.res.Seconds = sim.Seconds(e.res.Cycles)
		for _, ch := range e.channels {
			e.res.Mem = append(e.res.Mem, ch.Stats)
			e.res.BytesRead += ch.Stats.BytesRead
			e.res.BytesWrite += ch.Stats.BytesWritten
		}
		peak := e.cfg.DRAM.PeakBytesPerCycle() * float64(e.res.Cycles) * float64(e.cfg.Channels)
		if peak > 0 {
			e.res.Utilization = float64(e.res.BytesRead+e.res.BytesWrite) / peak
		}
	}
	return &e.res
}

// Simulate replays a compaction trace on the NMP system: a stepwise
// Engine driven back-to-back (each iteration starts one sync barrier
// after the previous one ends).
func Simulate(tr *trace.Trace, cfg Config) (*Result, error) {
	e, err := NewEngine(tr, cfg)
	if err != nil {
		return nil, err
	}
	for !e.Done() {
		e.StepIteration(e.NextStart())
	}
	return e.Result(), nil
}

// String renders a short result summary.
func (r *Result) String() string {
	return fmt.Sprintf("nmp: %d iters, %.3f ms, util %.1f%%, TN same-PE/intra/inter = %d/%d/%d, CPU nodes %d",
		r.Iterations, r.Seconds*1e3, r.Utilization*100, r.TNSamePE, r.TNIntraDIMM, r.TNInterDIMM, r.NodesCPU)
}
