// Package conformance is the resume-equivalence test layer for the
// distributed runtime's checkpoint/restore (internal/scaleout): it sweeps
// the configuration matrix — topology × replay discipline × partitioner ×
// node count × checkpoint iteration — and, for every cell, asserts the
// three properties the blob format promises:
//
//  1. Resume equivalence: a run checkpointed mid-way and restored finishes
//     with a Result bit-identical (reflect.DeepEqual, floats included) to
//     the uninterrupted run.
//  2. Blob determinism: checkpointing the same (reads, trace, config,
//     iteration) twice yields byte-identical blobs.
//  3. Round-trip stability: decoding a blob and re-encoding it reproduces
//     the same bytes.
//
// The harness is ordinary library code so other packages (and future
// conformance dimensions, e.g. multi-tenant interleaving) can reuse the
// matrix and the verifier; conformance_test.go drives it under `go test`.
package conformance

import (
	"bytes"
	"fmt"
	"reflect"

	"nmppak/internal/assemble"
	"nmppak/internal/compact"
	"nmppak/internal/fault"
	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/readsim"
	"nmppak/internal/scaleout"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// Fixture is the shared workload a sweep runs against: reads, their
// captured compaction trace, and the counting result the weight-aware
// partitioner is built from. The genome carries a repeat family so the
// rebalancing partitioner has real skew to react to.
type Fixture struct {
	Reads []readsim.Read
	Trace *trace.Trace
	Kmers *kmer.Result
	K     int
}

// NewFixture builds the workload: a repeat-skewed synthetic genome,
// simulated short reads, one traced single-batch assembly and the counting
// result.
func NewFixture(genomeLen int) (*Fixture, error) {
	const k, minCount = 32, 3
	g, err := genome.Generate(genome.Config{
		Length: genomeLen, Seed: 13, RepeatFraction: 0.3, RepeatUnit: 600,
	})
	if err != nil {
		return nil, err
	}
	reads, err := readsim.Simulate(g, readsim.Config{
		ReadLen: 100, Coverage: 12, ErrorRate: 0.005, Seed: 13,
	})
	if err != nil {
		return nil, err
	}
	b := trace.NewBuilder(k)
	if _, err := assemble.Run(reads, assemble.Config{
		K: k, MinCount: minCount, Flow: compact.FlowPipelined, Observer: b,
	}); err != nil {
		return nil, err
	}
	kres, err := kmer.Count(reads, kmer.Config{K: k, MinCount: minCount})
	if err != nil {
		return nil, err
	}
	return &Fixture{Reads: reads, Trace: b.Trace(), Kmers: kres, K: k}, nil
}

// Partitioners enumerated by the sweep.
const (
	PartHash      = "hash"
	PartMinimizer = "minimizer"
	PartBalanced  = "balanced"
	PartRebalance = "rebalance"
)

// Case is one cell of the conformance matrix.
type Case struct {
	Topo    topo.Kind
	Overlap bool
	Part    string
	Nodes   int
	// At is the checkpoint iteration (the first iteration the restored run
	// executes); negative means "the middle of the trace".
	At int
	// Elastic turns the cell into an elastic-runtime cell: a periodic
	// checkpoint cadence plus (on multi-node machines) a mid-phase node
	// loss, so the parallel sweep exercises captures, fault boundaries and
	// the recovery rollback of pre-stepped work.
	Elastic bool
	// NoCheckpoints drops an elastic cell's checkpoint cadence: the loss
	// restarts the phase from iteration 0, so the recovery rolls back
	// every iteration the whole-phase epoch pre-stepped.
	NoCheckpoints bool
	// Stride, when positive, cuts the run at every Stride-th iteration
	// boundary, so no epoch pre-steps more than Stride iterations where the
	// runtime has a boundary to cut at: an elastic cell captures every
	// Stride iterations, a BSP static or rebalancing cell is driven through
	// Session.Step(Stride) with a cross-worker-count resume at each
	// boundary, and an overlapped static cell (whose only boundary is a
	// checkpoint) is checkpointed and cross-mode restored at each one.
	// Name renders it as "/dN", the pre-step depth the cuts bound.
	Stride int
}

// Name renders the cell for subtest names and error messages.
func (c Case) Name() string {
	disc := "bsp"
	if c.Overlap {
		disc = "overlap"
	}
	if c.Elastic {
		disc = "elastic-" + disc
	}
	at := "mid"
	if c.At >= 0 {
		at = fmt.Sprintf("it%d", c.At)
	}
	name := fmt.Sprintf("%s/%s/%s/n%d/%s", c.Topo, disc, c.Part, c.Nodes, at)
	if c.Stride > 0 {
		name += fmt.Sprintf("/d%d", c.Stride)
	}
	if c.NoCheckpoints {
		name += "/ck0"
	}
	return name
}

// Config materializes the cell's scale-out configuration against a
// fixture.
func (c Case) Config(fx *Fixture) (scaleout.Config, error) {
	cfg := scaleout.DefaultConfig(c.Nodes)
	switch c.Topo {
	case topo.FullMesh:
		cfg.Topo = topo.Default()
	case topo.Torus2D:
		cfg.Topo = topo.Torus(0, 0)
	case topo.Dragonfly:
		cfg.Topo = topo.DragonflyGroups(0)
	default:
		return cfg, fmt.Errorf("conformance: unknown topology kind %v", c.Topo)
	}
	cfg.Overlap = c.Overlap
	switch c.Part {
	case PartHash:
		cfg.Partitioner = scaleout.HashPartitioner{}
	case PartMinimizer:
		cfg.Partitioner = scaleout.NewMinimizerPartitioner(12)
	case PartBalanced:
		cfg.Partitioner = scaleout.NewBalancedPartitioner(fx.Kmers, 12, c.Nodes)
	case PartRebalance:
		cfg.Partitioner = scaleout.NewRebalancePartitioner(12, 1)
	default:
		return cfg, fmt.Errorf("conformance: unknown partitioner %q", c.Part)
	}
	if c.Elastic && !c.NoCheckpoints {
		cfg.CheckpointEvery = 2
		if c.Stride > 0 {
			cfg.CheckpointEvery = c.Stride
		}
	}
	return cfg, nil
}

// Valid reports whether the cell is a legal configuration; the illegal
// regions of the matrix are overlap × rebalance (migration is a global
// synchronization, so the rebalancer requires BSP) and elastic ×
// rebalance (recovery re-partitioning owns the table) — Validate rejects
// both, which the sweep asserts separately.
func (c Case) Valid() bool {
	if c.Part == PartRebalance && (c.Overlap || c.Elastic) {
		return false
	}
	return true
}

// Matrix enumerates the full sweep: every topology, both disciplines, all
// four partitioners, the given node counts, mid-trace checkpoints.
func Matrix(nodes []int) []Case {
	var cases []Case
	for _, kind := range []topo.Kind{topo.FullMesh, topo.Torus2D, topo.Dragonfly} {
		for _, overlap := range []bool{false, true} {
			for _, part := range []string{PartHash, PartMinimizer, PartBalanced, PartRebalance} {
				for _, n := range nodes {
					cases = append(cases, Case{Topo: kind, Overlap: overlap, Part: part, Nodes: n, At: -1})
				}
			}
		}
	}
	return cases
}

// Verify runs one cell end to end and returns the first violated property
// as an error (nil when the cell conforms). For an invalid cell it
// asserts that configuration validation rejects it.
func Verify(fx *Fixture, c Case) error {
	cfg, err := c.Config(fx)
	if err != nil {
		return err
	}
	if !c.Valid() {
		if err := cfg.Validate(); err == nil {
			return fmt.Errorf("%s: invalid cell accepted by Config.Validate", c.Name())
		}
		return nil
	}
	at := c.At
	if at < 0 {
		at = len(fx.Trace.Iterations) / 2
	}

	want, err := scaleout.Simulate(fx.Reads, fx.Trace, cfg)
	if err != nil {
		return fmt.Errorf("%s: uninterrupted run: %w", c.Name(), err)
	}
	blob, err := scaleout.Checkpoint(fx.Reads, fx.Trace, cfg, at)
	if err != nil {
		return fmt.Errorf("%s: checkpoint: %w", c.Name(), err)
	}

	// Property 2: blob determinism.
	blob2, err := scaleout.Checkpoint(fx.Reads, fx.Trace, cfg, at)
	if err != nil {
		return fmt.Errorf("%s: second checkpoint: %w", c.Name(), err)
	}
	if !bytes.Equal(blob, blob2) {
		return fmt.Errorf("%s: checkpoint blob is not byte-deterministic (%d vs %d bytes)", c.Name(), len(blob), len(blob2))
	}

	// Property 3: round-trip stability.
	ck, err := scaleout.UnmarshalCheckpoint(blob)
	if err != nil {
		return fmt.Errorf("%s: unmarshal: %w", c.Name(), err)
	}
	rt, err := ck.Marshal()
	if err != nil {
		return fmt.Errorf("%s: re-marshal: %w", c.Name(), err)
	}
	if !bytes.Equal(blob, rt) {
		return fmt.Errorf("%s: decode/encode round trip changed the blob", c.Name())
	}

	// Property 1: resume equivalence, bit for bit.
	got, err := scaleout.Restore(fx.Trace, cfg, blob)
	if err != nil {
		return fmt.Errorf("%s: restore: %w", c.Name(), err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: restored result differs from uninterrupted run: %s", c.Name(), diffSummary(got, want))
	}
	return nil
}

// ParallelMatrix enumerates the Workers=1 versus multi-worker
// equivalence sweep across every discipline the epoch driver serves:
//
//   - the hash columns (BSP and overlap) at every node count, plus a
//     3-iteration-stride cell on the small multi-node columns;
//   - the rebalancing runtime (BSP only — migration is a global
//     synchronization) on the small multi-node columns, whole-run and at
//     stride 3;
//   - the elastic runtime (both disciplines, a mid-phase node loss) on
//     the small columns: with periodic captures every 2 and every 3
//     iterations, and without captures, where the loss rolls back every
//     pre-stepped iteration.
//
// The hash partitioner keeps the sweep's cost on the runtime under test
// rather than on partitioning variety — VerifyParallel holds for any.
func ParallelMatrix(nodes []int) []Case {
	const stride = 3
	var small []int
	for _, n := range nodes {
		if n > 1 && n <= 8 {
			small = append(small, n)
		}
	}
	isSmall := func(n int) bool {
		for _, s := range small {
			if s == n {
				return true
			}
		}
		return false
	}
	var cases []Case
	for _, kind := range []topo.Kind{topo.FullMesh, topo.Torus2D, topo.Dragonfly} {
		for _, overlap := range []bool{false, true} {
			for _, n := range nodes {
				c := Case{Topo: kind, Overlap: overlap, Part: PartHash, Nodes: n, At: -1}
				cases = append(cases, c)
				if isSmall(n) {
					c.Stride = stride
					cases = append(cases, c)
				}
			}
		}
		for _, n := range small {
			c := Case{Topo: kind, Overlap: false, Part: PartRebalance, Nodes: n, At: -1}
			cases = append(cases, c)
			c.Stride = stride
			cases = append(cases, c)
			for _, overlap := range []bool{false, true} {
				c := Case{Topo: kind, Overlap: overlap, Part: PartHash, Nodes: n, At: -1, Elastic: true}
				cases = append(cases, c)
				c.Stride = stride
				cases = append(cases, c)
				c.Stride, c.NoCheckpoints = 0, true
				cases = append(cases, c)
			}
		}
	}
	return cases
}

// VerifyParallel asserts that a run pre-stepped on a pool of workers is
// indistinguishable from one stepped inline (Workers=1) on a cell, beyond
// wall-clock:
//
//  1. Result equivalence: Workers=1 and Workers=workers runs produce
//     bit-identical Results (reflect.DeepEqual, floats included).
//  2. Telemetry equivalence: both runs export byte-identical Chrome
//     traces — every span, on every node/DRAM/link track, lands at the
//     same cycle with the same payload in the same order.
//  3. Checkpoint equivalence: blobs captured under either worker count
//     are byte-identical, and a blob captured under one mode restored
//     under the other (both directions) resumes to the serial Result.
func VerifyParallel(fx *Fixture, c Case, workers int) error {
	cfg, err := c.Config(fx)
	if err != nil {
		return err
	}
	if !c.Valid() {
		return nil
	}
	name := fmt.Sprintf("%s/w%d", c.Name(), workers)

	// An elastic cell injects a mid-phase node loss so the equivalence
	// holds across captures, fault boundaries and the recovery rollback —
	// the loss cycle comes from a fault-free serial run of the same cell.
	if c.Elastic && c.Nodes > 1 {
		golden, err := scaleout.Simulate(fx.Reads, fx.Trace, cfg)
		if err != nil {
			return fmt.Errorf("%s: fault-free elastic run: %w", name, err)
		}
		at := sim.Cycle(float64(golden.Compact.Total()) / 2)
		cfg.Faults = fault.NodeLossAt(c.Nodes/2, at, 500)
	}

	run := func(w int) (*scaleout.Result, []byte, error) {
		rcfg := cfg
		rcfg.Workers = w
		rcfg.Telemetry = telemetry.New()
		res, err := scaleout.Simulate(fx.Reads, fx.Trace, rcfg)
		if err != nil {
			return nil, nil, err
		}
		var buf bytes.Buffer
		if err := rcfg.Telemetry.WriteChrome(&buf); err != nil {
			return nil, nil, err
		}
		return res, buf.Bytes(), nil
	}
	serial, strace, err := run(1)
	if err != nil {
		return fmt.Errorf("%s: serial run: %w", name, err)
	}
	parallel, ptrace, err := run(workers)
	if err != nil {
		return fmt.Errorf("%s: parallel run: %w", name, err)
	}
	if !reflect.DeepEqual(parallel, serial) {
		return fmt.Errorf("%s: parallel result differs from serial: %s", name, diffSummary(parallel, serial))
	}
	if !bytes.Equal(ptrace, strace) {
		return fmt.Errorf("%s: telemetry traces diverge (%d vs %d bytes)", name, len(ptrace), len(strace))
	}

	// The elastic runtime owns its checkpoint lifecycle (periodic
	// captures inside the run — their byte-identity across worker counts
	// is covered by the Result and trace comparisons above, which include
	// the restored-from-capture recovery); the external Checkpoint API
	// rejects elastic configurations, so the cross-mode blob section only
	// applies to the static and rebalancing runtimes.
	if c.Elastic {
		return nil
	}

	// Checkpoint identity and cross-mode restore at the cell's boundary.
	at := c.At
	if at < 0 {
		at = len(fx.Trace.Iterations) / 2
	}
	scfg, pcfg := cfg, cfg
	scfg.Workers, pcfg.Workers = 1, workers
	sblob, err := scaleout.Checkpoint(fx.Reads, fx.Trace, scfg, at)
	if err != nil {
		return fmt.Errorf("%s: serial checkpoint: %w", name, err)
	}
	pblob, err := scaleout.Checkpoint(fx.Reads, fx.Trace, pcfg, at)
	if err != nil {
		return fmt.Errorf("%s: parallel checkpoint: %w", name, err)
	}
	if !bytes.Equal(sblob, pblob) {
		return fmt.Errorf("%s: checkpoint blobs diverge across worker counts (%d vs %d bytes)", name, len(sblob), len(pblob))
	}
	fromParallel, err := scaleout.Restore(fx.Trace, scfg, pblob)
	if err != nil {
		return fmt.Errorf("%s: serial restore of parallel-captured blob: %w", name, err)
	}
	if !reflect.DeepEqual(fromParallel, serial) {
		return fmt.Errorf("%s: parallel-captured blob restored serially diverges: %s", name, diffSummary(fromParallel, serial))
	}
	fromSerial, err := scaleout.Restore(fx.Trace, pcfg, sblob)
	if err != nil {
		return fmt.Errorf("%s: parallel restore of serial-captured blob: %w", name, err)
	}
	if !reflect.DeepEqual(fromSerial, serial) {
		return fmt.Errorf("%s: serial-captured blob restored in parallel diverges: %s", name, diffSummary(fromSerial, serial))
	}
	if c.Stride > 0 {
		return verifyStrided(fx, c, cfg, serial, workers, name)
	}
	return nil
}

// verifyStrided cuts a non-elastic cell's run at every Stride-th
// iteration boundary and asserts that the cut run still finishes with the
// serial Result. A BSP run is time-sliced through a Session whose worker
// count flips at every boundary (Step, Checkpoint, then ResumeSession
// under the other count), so neighbouring epochs are pre-stepped by
// opposite modes. An overlapped run cannot be sliced by a Session, so it
// is checkpointed at each boundary under one worker count and restored
// under the other.
func verifyStrided(fx *Fixture, c Case, cfg scaleout.Config, serial *scaleout.Result, workers int, name string) error {
	counts := [2]int{workers, 1}
	if c.Overlap {
		iters := len(fx.Trace.Iterations)
		for b, k := c.Stride, 0; b < iters; b, k = b+c.Stride, k+1 {
			ccfg, rcfg := cfg, cfg
			ccfg.Workers, rcfg.Workers = counts[k%2], counts[(k+1)%2]
			blob, err := scaleout.Checkpoint(fx.Reads, fx.Trace, ccfg, b)
			if err != nil {
				return fmt.Errorf("%s: checkpoint at %d under w%d: %w", name, b, ccfg.Workers, err)
			}
			got, err := scaleout.Restore(fx.Trace, rcfg, blob)
			if err != nil {
				return fmt.Errorf("%s: restore at %d under w%d: %w", name, b, rcfg.Workers, err)
			}
			if !reflect.DeepEqual(got, serial) {
				return fmt.Errorf("%s: captured at %d under w%d, restored under w%d, diverges: %s",
					name, b, ccfg.Workers, rcfg.Workers, diffSummary(got, serial))
			}
		}
		return nil
	}
	scfg := cfg
	scfg.Workers = counts[0]
	s, err := scaleout.NewSession(fx.Reads, fx.Trace, scfg)
	if err != nil {
		return fmt.Errorf("%s: session: %w", name, err)
	}
	for k := 1; s.Step(c.Stride) > 0 && s.Remaining() > 0; k++ {
		blob, err := s.Checkpoint()
		if err != nil {
			return fmt.Errorf("%s: session checkpoint at %d: %w", name, s.Next(), err)
		}
		at := s.Next()
		scfg.Workers = counts[k%2]
		if s, err = scaleout.ResumeSession(fx.Trace, scfg, blob); err != nil {
			return fmt.Errorf("%s: resume at %d under w%d: %w", name, at, scfg.Workers, err)
		}
	}
	got, err := s.Finish()
	if err != nil {
		return fmt.Errorf("%s: session finish: %w", name, err)
	}
	if !reflect.DeepEqual(got, serial) {
		return fmt.Errorf("%s: run sliced every %d iterations diverges: %s", name, c.Stride, diffSummary(got, serial))
	}
	return nil
}

// diffSummary points at the first diverging Result field so a conformance
// failure is actionable without a debugger.
func diffSummary(got, want *scaleout.Result) string {
	switch {
	case got.TotalCycles != want.TotalCycles:
		return fmt.Sprintf("TotalCycles %d vs %d", got.TotalCycles, want.TotalCycles)
	case got.Compact != want.Compact:
		return fmt.Sprintf("Compact %+v vs %+v", got.Compact, want.Compact)
	case got.CommCycles != want.CommCycles:
		return fmt.Sprintf("CommCycles %d vs %d", got.CommCycles, want.CommCycles)
	case got.ExchangedBytes != want.ExchangedBytes:
		return fmt.Sprintf("ExchangedBytes %d vs %d", got.ExchangedBytes, want.ExchangedBytes)
	case got.Rebalances != want.Rebalances || got.MigratedBytes != want.MigratedBytes:
		return fmt.Sprintf("migrations %d/%d vs %d/%d", got.Rebalances, got.MigratedBytes, want.Rebalances, want.MigratedBytes)
	case !reflect.DeepEqual(got.PerNode, want.PerNode):
		return "PerNode stats diverge"
	case !reflect.DeepEqual(got.NMP, want.NMP):
		return "per-node NMP results diverge"
	default:
		return "aggregate fields diverge (Seconds/CommFraction/Imbalance)"
	}
}
