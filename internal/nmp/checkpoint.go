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
	// Channels holds one timing snapshot per DRAM channel.
	Channels []dram.ChannelState
}

// View returns the engine's quiescent state without copying it: the
// result's iteration timings and every channel's bank and rank arrays are
// the engine's live ones, so the view is valid until the next
// StepIteration, and the caller must not modify it or resume from it.
// The engine must not yet be sealed by Result(), so its result has no
// per-channel Mem totals.
func (e *Engine) View() (EngineState, error) {
	if e.final {
		return EngineState{}, fmt.Errorf("nmp: engine state read after Result")
	}
	if e.view == nil {
		e.view = make([]dram.ChannelState, len(e.channels))
	}
	for i, ch := range e.channels {
		e.view[i] = ch.ChannelState
	}
	return EngineState{Next: e.next, Clock: e.clock, Res: e.res, Channels: e.view}, nil
}

// Snapshot deep-copies the engine's state: View with none of the
// engine's memory, so it stays valid as the engine steps on and may be
// resumed.
func (e *Engine) Snapshot() (EngineState, error) {
	st, err := e.View()
	if err != nil {
		return EngineState{}, err
	}
	st.Res.PerIter = append([]IterTiming(nil), st.Res.PerIter...)
	st.Channels = make([]dram.ChannelState, len(e.channels))
	for i, ch := range e.channels {
		st.Channels[i] = ch.State()
	}
	return st, nil
}

// ResumeEngine reconstructs an Engine mid-replay from a snapshot: the same
// trace and configuration the snapshot was taken under, positioned to step
// iteration st.Next. Iterations before st.Next are never read again, so a
// caller that reconstructs tr may substitute empty placeholders for them.
// Every channel state is checked by dram.ResumeChannel, since st is
// typically decoded from an untrusted blob; so are the clock, which must
// lie in [0, dram.MaxCycle], and the result, whose totals Result()
// seals (Mem, BytesRead, BytesWrite, Iterations, Cycles, Seconds,
// Utilization) must still be empty, as Snapshot leaves them. The engine
// owns st's slices — the result's and every channel's — and steps them
// in place, so the caller must not read or resume from st again.
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
	if len(st.Channels) != dram.Channels {
		return nil, fmt.Errorf("nmp: state has %d channels, a node has %d", len(st.Channels), dram.Channels)
	}
	e := &Engine{cfg: cfg, tr: tr, channels: make([]*dram.Channel, dram.Channels), res: st.Res, next: st.Next, clock: st.Clock}
	for i, cs := range st.Channels {
		ch, err := dram.ResumeChannel(cs)
		if err != nil {
			return nil, fmt.Errorf("nmp: channel %d: %w", i, err)
		}
		e.channels[i] = ch
	}
	return e, nil
}
