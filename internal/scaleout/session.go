// Session: an incrementally advanced distributed run, the pause/resume
// surface the multi-tenant fleet scheduler (internal/tenancy) drives.
//
// Checkpoint/Restore (checkpoint.go) pause a run exactly once, at one
// pre-chosen iteration; a Session instead holds the live runtime between
// iteration boundaries, so a scheduler can interleave "advance one
// iteration", "how many machine cycles has this job consumed so far",
// "snapshot it and give the nodes to someone else" and "finish it" in any
// order. The invariants that make time-slicing exact:
//
//   - Step composes: the BSP partial sums (and the rebalance runtime's
//     migration schedule) accumulate identically whether the iteration
//     range is covered by one advance or many, so a session's final
//     Result is reflect.DeepEqual to the uninterrupted Simulate.
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
// Sessions are BSP-only: the overlapped discipline replays its whole
// macro-schedule at restore time and exposes no mid-run global clock, so
// its slices cannot be priced on a fleet timeline. Elastic configurations
// (CheckpointEvery/Faults) are rejected with ErrElasticConfig, exactly
// like Checkpoint — their in-memory recovery checkpoint owns the
// checkpoint machinery.
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
	tr  *trace.Trace
	cfg Config
	net topo.Network
	res *Result // prelude result; finalized by Finish

	run phaseRun

	next  int // first unexecuted iteration (the current boundary)
	iters int
	done  bool
}

// validateSession rejects the configurations a Session cannot time-slice.
func validateSession(cfg Config) error {
	if cfg.elastic() {
		return fmt.Errorf("scaleout: Session pauses a deterministic run; %w", ErrElasticConfig)
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
	net, err := validateRun(tr, cfg)
	if err != nil {
		return nil, err
	}
	if err := validateSession(cfg); err != nil {
		return nil, err
	}
	res, err := runPrelude(reads, cfg, net, nil)
	if err != nil {
		return nil, err
	}
	run, err := newRun(tr, net, cfg, nil)
	if err != nil {
		return nil, err
	}
	return &Session{tr: tr, cfg: cfg, net: net, res: res, run: run, iters: len(tr.Iterations)}, nil
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
	net, err := validateRun(tr, cfg)
	if err != nil {
		return nil, err
	}
	if err := validateSession(cfg); err != nil {
		return nil, err
	}
	if err := ck.matches(tr, cfg, net); err != nil {
		return nil, err
	}
	run, err := newRun(tr, net, cfg, ck)
	if err != nil {
		return nil, err
	}
	return &Session{tr: tr, cfg: cfg, net: net, res: ck.resumedResult(cfg, net), run: run,
		next: ck.ResumeIter, iters: len(tr.Iterations)}, nil
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
	if s.done || n <= 0 {
		return 0
	}
	to := s.next + n
	if to > s.iters {
		to = s.iters
	}
	if to <= s.next {
		return 0
	}
	s.run.advance(s.next, to)
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
	return s.res.Count.Total() + s.res.Construct.Total() + s.run.phase().now()
}

// Checkpoint exports the session's state at the current boundary as a
// versioned blob, byte-identical to scaleout.Checkpoint(reads, tr, cfg,
// s.Next()). The session stays usable; a preempting scheduler typically
// drops it and later calls ResumeSession with the blob.
func (s *Session) Checkpoint() ([]byte, error) {
	if s.done {
		return nil, fmt.Errorf("scaleout: Session already finished")
	}
	ck := checkpointHeader(s.cfg, s.net, s.tr, s.res, s.next)
	if err := s.run.snapshot(ck); err != nil {
		return nil, err
	}
	return ck.Marshal()
}

// Finish advances any remaining iterations, prices the closing barriers
// and returns the completed Result — reflect.DeepEqual to the
// uninterrupted Simulate(reads, tr, cfg), however the preceding Step /
// Checkpoint / ResumeSession sequence sliced the run. The session is
// sealed afterwards.
func (s *Session) Finish() (*Result, error) {
	if s.done {
		return nil, fmt.Errorf("scaleout: Session already finished")
	}
	s.Step(s.Remaining())
	s.done = true
	finalize(s.res, s.run.seal(s.res))
	return s.res, nil
}
