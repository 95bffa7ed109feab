package nmp

import (
	"fmt"

	"nmppak/internal/dram"
	"nmppak/internal/sim"
	"nmppak/internal/trace"
)

// EngineState is a complete snapshot of a quiescent Engine between
// StepIteration calls: the trace cursor, the local clock, the accumulated
// (unsealed) result, and every DRAM channel's timing state. An engine's
// intra-iteration behaviour is a pure function of (trace, Config,
// EngineState), so ResumeEngine continues a replay bit-identically to the
// uninterrupted run — the foundation internal/scaleout's distributed
// checkpoint/restore builds on.
type EngineState struct {
	// Next is the index of the first iteration still to be stepped.
	Next int
	// Clock is the local end time of the last stepped iteration.
	Clock sim.Cycle
	// Res is the mid-run accumulated result (aggregate fields unsealed:
	// Result() has not been called).
	Res Result
	// Channels is the block of every DRAM channel's timing state, one
	// allocation per engine, so a state passes it on without copying it.
	Channels *[dram.Channels]dram.ChannelState
}

// View returns the engine's quiescent state without copying it: the
// result's iteration timings and the channel block are the engine's live
// ones, so the view is valid until the next StepIteration, and the caller
// must not modify it or resume from it. The engine must not yet be sealed
// by Result(), so its result has no per-channel Mem totals.
func (e *Engine) View() (EngineState, error) {
	if e.final {
		return EngineState{}, fmt.Errorf("nmp: engine state read after Result")
	}
	return EngineState{Next: e.next, Clock: e.clock, Res: e.res, Channels: e.mem}, nil
}

// Snapshot copies the engine's state: View with none of the engine's
// memory — the iteration timings and the channel block copied once — so
// it stays valid as the engine steps on and may be resumed.
func (e *Engine) Snapshot() (EngineState, error) {
	st, err := e.View()
	if err != nil {
		return EngineState{}, err
	}
	st.Res.PerIter = append([]IterTiming(nil), st.Res.PerIter...)
	mem := *e.mem
	st.Channels = &mem
	return st, nil
}

// ResumeEngine reconstructs an Engine mid-replay from a snapshot: the same
// trace and configuration the snapshot was taken under, positioned to step
// iteration st.Next. Iterations before st.Next are never read again, so a
// caller that reconstructs tr may substitute empty placeholders for them,
// except iteration 0 under StaticMapping, whose nodes every iteration's
// DIMM table is built from.
// st is typically decoded from an untrusted blob, so ResumeEngine checks
// it: the channel block must be present and every channel state passes
// dram.ResumeChannel; the clock must lie in [0, dram.MaxCycle]; and the
// result's totals that Result() seals (Mem, BytesRead, BytesWrite,
// Iterations, Cycles, Seconds, Utilization) must still be empty, as
// Snapshot leaves them. The engine adopts st's memory — the result's
// iteration timings and the channel block — and steps it in place, so
// the caller must not read or resume from st again.
func ResumeEngine(tr *trace.Trace, cfg Config, st EngineState) (*Engine, error) {
	if err := checkInputs(tr, cfg); err != nil {
		return nil, err
	}
	if st.Next < 0 || st.Next > len(tr.Iterations) {
		return nil, fmt.Errorf("nmp: resume cursor %d outside trace of %d iterations", st.Next, len(tr.Iterations))
	}
	if len(st.Res.PerIter) != st.Next {
		return nil, fmt.Errorf("nmp: state records %d iteration timings at cursor %d", len(st.Res.PerIter), st.Next)
	}
	if st.Clock < 0 || st.Clock > dram.MaxCycle {
		return nil, fmt.Errorf("nmp: state clock %d outside [0, %d]", st.Clock, dram.MaxCycle)
	}
	if r := &st.Res; len(r.Mem) > 0 || r.BytesRead != 0 || r.BytesWrite != 0 || r.Iterations != 0 ||
		r.Cycles != 0 || r.Seconds != 0 || r.Utilization != 0 {
		return nil, fmt.Errorf("nmp: state result carries sealed totals (%d Mem entries, %d/%d bytes, %d iterations, %d cycles)",
			len(r.Mem), r.BytesRead, r.BytesWrite, r.Iterations, r.Cycles)
	}
	if st.Channels == nil {
		return nil, fmt.Errorf("nmp: state has no channel states")
	}
	e := &Engine{cfg: cfg, tr: tr, mem: st.Channels, res: st.Res, next: st.Next, clock: st.Clock}
	for i := range e.channels {
		var err error
		if e.channels[i], err = dram.ResumeChannel(&e.mem[i]); err != nil {
			return nil, fmt.Errorf("nmp: channel %d: %w", i, err)
		}
	}
	return e, nil
}
