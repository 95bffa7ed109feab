// Session: an incrementally advanced distributed run, the pause/resume
// surface the multi-tenant fleet scheduler (internal/tenancy) drives, and
// the one way any run is opened and finished. Simulate is a fresh session
// finished; Checkpoint is a fresh session stepped to its pause point and
// snapshotted; Restore is a resumed session finished.
//
// A public session (NewSession/ResumeSession) holds the live runtime
// between iteration boundaries, so a scheduler can interleave "advance one
// iteration", "how many machine cycles has this job consumed so far",
// "snapshot it and give the nodes to someone else" and "finish it" in any
// order. The invariants that make time-slicing exact:
//
//   - Step composes: the one compaction runtime's BSP partial sums (and,
//     under a RebalancePartitioner, its migration schedule) accumulate
//     identically whether the iteration range is covered by one advance
//     or many, so a session's final Result is reflect.DeepEqual to the
//     uninterrupted Simulate.
//   - Checkpoint at boundary b is byte-identical to the one-shot
//     scaleout.Checkpoint(reads, tr, cfg, b) blob, whether the session
//     was fresh or itself resumed from an earlier blob. ResumeSession
//     continues from any such blob.
//   - Progress is the run's cumulative machine-cycle clock at the current
//     boundary — software prelude, compute and exchange partial sums, and
//     the inter-superstep barriers between executed iterations — so slice
//     costs on a shared fleet timeline are exact differences of Progress.
//     At the final boundary Progress equals Result.TotalCycles.
//
// Public sessions are BSP-only: the overlapped discipline replays its
// whole macro-schedule when it is sealed and exposes no mid-run global
// clock, so its slices cannot be priced on a fleet timeline. They carry no
// run-level telemetry, since the scheduler owns the fleet timeline.
// Elastic configurations (CheckpointEvery/Faults) are rejected with
// ErrElasticConfig, exactly like Checkpoint and Restore — their
// in-memory recovery checkpoint owns the checkpoint machinery.
package scaleout

import (
	"fmt"

	"nmppak/internal/readsim"
	"nmppak/internal/sim"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// Session is a paused-between-iterations distributed run. Create one with
// NewSession (runs the software prelude) or ResumeSession (from a
// checkpoint blob); drive it with Step, snapshot it with Checkpoint, and
// seal it with Finish. Not safe for concurrent use.
type Session struct {
	cfg Config
	res *Result // prelude result; finalized by Finish
	pr  *probes // the run's telemetry glue; nil when uninstrumented

	run *runtime

	next  int // first unexecuted iteration (the current boundary)
	iters int
	done  bool
	err   error // the first failed advance, reported by Checkpoint and Finish
}

// open is the one way a run starts; Simulate, Checkpoint, Restore,
// NewSession and ResumeSession all go through it. It validates tr and cfg,
// applies the entry point's own admission check (admit, nil for none),
// then either runs the software prelude over reads (ck == nil) or
// re-enters at the checkpoint's pause point, and builds the compaction
// runtime with the run's telemetry glue attached.
func open(reads []readsim.Read, tr *trace.Trace, cfg Config, ck *CheckpointState, admit func(Config) error) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr == nil {
		return nil, fmt.Errorf("scaleout: nil trace")
	}
	if tr.K != cfg.K {
		return nil, fmt.Errorf("scaleout: trace k=%d but config K=%d", tr.K, cfg.K)
	}
	net, err := cfg.Topo.Build(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	if admit != nil {
		if err := admit(cfg); err != nil {
			return nil, err
		}
	}
	s := &Session{cfg: cfg, iters: len(tr.Iterations)}
	if cfg.Telemetry != nil {
		s.pr = newProbes(cfg.Telemetry, net, cfg, s.iters)
	}
	// One Flight prices every message of the run, over the wrapper that
	// fault events degrade in place.
	fl := topo.NewFlight(topo.NewDegraded(net))
	if ck == nil {
		if s.res, err = runPrelude(reads, cfg, fl, s.pr); err != nil {
			return nil, err
		}
	} else {
		if err := ck.matches(tr, cfg, net); err != nil {
			return nil, err
		}
		s.res, s.next = ck.resumedResult(cfg, net), ck.ResumeIter
		if s.pr != nil {
			s.pr.prelude(s.res)
		}
	}
	if s.run, err = newRuntime(tr, fl, cfg, s.res, ck, s.pr); err != nil {
		return nil, err
	}
	return s, nil
}

// validateSession rejects the configurations a Session cannot time-slice.
func validateSession(cfg Config) error {
	if err := deterministic("Session", cfg); err != nil {
		return err
	}
	if cfg.Overlap {
		return fmt.Errorf("scaleout: Session requires the BSP discipline (the overlapped schedule has no mid-run global clock to slice on); unset Overlap")
	}
	if cfg.Telemetry != nil {
		return fmt.Errorf("scaleout: Session does not drive run-level telemetry (the scheduler owns the fleet timeline); unset Telemetry")
	}
	return nil
}

// NewSession runs the software prelude (distributed counting and
// MacroNode construction) and returns a session paused at iteration 0.
func NewSession(reads []readsim.Read, tr *trace.Trace, cfg Config) (*Session, error) {
	return open(reads, tr, cfg, nil, validateSession)
}

// ResumeSession reconstructs a session from a checkpoint blob taken under
// the same (trace, config) — by scaleout.Checkpoint or a prior
// Session.Checkpoint — paused at the blob's resume iteration. The reads
// are not needed: the blob carries the software-phase outcome.
func ResumeSession(tr *trace.Trace, cfg Config, blob []byte) (*Session, error) {
	ck, err := UnmarshalCheckpoint(blob)
	if err != nil {
		return nil, err
	}
	return open(nil, tr, cfg, ck, validateSession)
}

// Iterations returns the trace's total compaction iteration count.
func (s *Session) Iterations() int { return s.iters }

// Next returns the current boundary: the first unexecuted iteration.
func (s *Session) Next() int { return s.next }

// Remaining returns how many iterations are still to execute.
func (s *Session) Remaining() int { return s.iters - s.next }

// Step advances the run by up to n iterations (fewer if the trace ends
// first) and returns how many it executed. n <= 0 is a no-op.
func (s *Session) Step(n int) int {
	if s.done || s.err != nil || n <= 0 {
		return 0
	}
	to := min(s.next+n, s.iters)
	if to <= s.next {
		return 0
	}
	if s.err = s.run.advance(s.next, to); s.err != nil {
		return 0
	}
	executed := to - s.next
	s.next = to
	return executed
}

// Progress returns the run's cumulative machine cycles at the current
// boundary: the software prelude, the executed supersteps' compute and
// exchange sums, and the min(next, iters-1) inter-superstep barriers
// already crossed. At the final boundary this equals the finished
// Result.TotalCycles.
func (s *Session) Progress() sim.Cycle {
	return s.res.Count.Total() + s.res.Construct.Total() + s.run.clock.now()
}

// Checkpoint exports the session's state at the current boundary as a
// versioned blob of its exact size, byte-identical to
// scaleout.Checkpoint(reads, tr, cfg, s.Next()). The session stays usable; a preempting scheduler typically
// drops it and later calls ResumeSession with the blob.
func (s *Session) Checkpoint() ([]byte, error) {
	if s.done {
		return nil, fmt.Errorf("scaleout: Session already finished")
	}
	if s.err != nil {
		return nil, s.err
	}
	return s.run.blob(s.next, nil)
}

// Finish advances any remaining iterations, seals the phase and returns
// the completed Result — reflect.DeepEqual to the uninterrupted
// Simulate(reads, tr, cfg), however the preceding Step / Checkpoint /
// ResumeSession sequence sliced the run. The overlapped discipline
// schedules its remaining iterations in the seal. The session is sealed
// afterwards.
func (s *Session) Finish() (*Result, error) {
	if s.done {
		return nil, fmt.Errorf("scaleout: Session already finished")
	}
	if !s.cfg.Overlap {
		s.Step(s.Remaining())
	}
	s.done = true
	if s.err != nil {
		return nil, s.err
	}
	if err := s.run.seal(); err != nil {
		return nil, err
	}
	if s.pr != nil {
		s.pr.seal()
	}
	return s.res, nil
}
