// Package experiments contains one driver per table and figure of the
// paper's evaluation (§6), plus the motivational measurements of §3. Each
// driver returns a rendered text report and a map of named measured values
// that Report.String prints beside the paper's numbers.
//
// All drivers share a Context: a scaled-down workload (a synthetic genome
// and simulated short reads standing in for the paper's ART reads; see
// internal/readsim) whose compaction trace is captured once and replayed
// by the hardware models.
package experiments

import (
	"fmt"
	"time"

	"nmppak/internal/assemble"
	"nmppak/internal/compact"
	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/pakgraph"
	"nmppak/internal/readsim"
	"nmppak/internal/trace"
)

// Workload defines the shared experiment input.
type Workload struct {
	GenomeLen int
	Coverage  float64
	ErrorRate float64
	ReadLen   int
	K         int
	MinCount  uint32
	Seed      int64
	Workers   int
	// RepeatFraction / RepeatUnit skew the synthetic genome with repeat
	// families (0 = repeat-free); the scaling study's partitioner sweep
	// uses them to build the repeat-heavy workload load balancing is
	// judged on.
	RepeatFraction float64
	RepeatUnit     int
}

// DefaultWorkload is the standard experiment scale: large enough for the
// size distributions and compaction dynamics to show the paper's shapes,
// small enough that the full suite runs in minutes.
func DefaultWorkload() Workload {
	return Workload{
		GenomeLen: 500_000,
		Coverage:  30,
		ErrorRate: 0.01,
		ReadLen:   100,
		K:         32,
		MinCount:  3,
		Seed:      42,
		Workers:   0,
	}
}

// QuickWorkload is a smaller configuration for tests and benchmarks.
func QuickWorkload() Workload {
	w := DefaultWorkload()
	w.GenomeLen = 60_000
	w.Coverage = 20
	return w
}

// Context caches the derived artifacts of a workload.
type Context struct {
	W      Workload
	Genome *genome.Genome
	Reads  []readsim.Read

	kres      *kmer.Result
	tr        *trace.Trace
	deepTr    *trace.Trace
	traceTime time.Duration
}

// NewContext generates the genome and reads.
func NewContext(w Workload) (*Context, error) {
	g, err := genome.Generate(genome.Config{
		Length: w.GenomeLen, Seed: w.Seed,
		RepeatFraction: w.RepeatFraction, RepeatUnit: w.RepeatUnit,
	})
	if err != nil {
		return nil, err
	}
	reads, err := readsim.Simulate(g, readsim.Config{
		ReadLen: w.ReadLen, Coverage: w.Coverage, ErrorRate: w.ErrorRate, Seed: w.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Context{W: w, Genome: g, Reads: reads}, nil
}

// Kmers returns the workload's counting result (computed once and
// cached; the trace capture and the weight-aware partitioners share it).
func (c *Context) Kmers() (*kmer.Result, error) {
	if c.kres != nil {
		return c.kres, nil
	}
	res, err := kmer.Count(c.Reads, kmer.Config{K: c.W.K, Workers: c.W.Workers, MinCount: c.W.MinCount})
	if err != nil {
		return nil, err
	}
	c.kres = res
	return res, nil
}

// Trace returns the compaction trace of the workload (single batch,
// captured once and cached).
func (c *Context) Trace() (*trace.Trace, error) {
	if c.tr == nil {
		tr, d, err := c.capture(false)
		if err != nil {
			return nil, err
		}
		c.tr, c.traceTime = tr, d
	}
	return c.tr, nil
}

// DeepTrace returns a compaction trace taken to its fixed point (no
// threshold) — the configuration the paper uses for the Fig. 7/8 size
// studies ("iteration 219 (completion)"), where the surviving MacroNodes
// accumulate multi-kilobyte extensions.
func (c *Context) DeepTrace() (*trace.Trace, error) {
	if c.deepTr == nil {
		tr, _, err := c.capture(true)
		if err != nil {
			return nil, err
		}
		c.deepTr = tr
	}
	return c.deepTr, nil
}

// capture builds the graph of the cached counts and records its
// compaction trace, run to the fixed point or stopped at the performance
// studies' threshold, with the compaction's wall time.
func (c *Context) capture(fixedPoint bool) (*trace.Trace, time.Duration, error) {
	res, err := c.Kmers()
	if err != nil {
		return nil, 0, err
	}
	g, err := pakgraph.Build(res)
	if err != nil {
		return nil, 0, err
	}
	// Like the paper, compaction for the performance studies stops at a
	// node-count threshold ("iterate until # MN < threshold") rather than
	// running to fixed point: the last iterations consist of a handful of
	// giant fully-compacted nodes whose processing the threshold (and the
	// graph walk) is designed to avoid.
	threshold := 0
	if !fixedPoint {
		threshold = max(g.Len()/100, 1)
	}
	b := trace.NewBuilder(c.W.K)
	t0 := time.Now()
	if _, err := compact.Run(g, compact.Options{Workers: c.W.Workers, Observer: b, Threshold: threshold}); err != nil {
		return nil, 0, err
	}
	return b.Trace(), time.Since(t0), nil
}

// Assemble runs the full pipeline on the workload with the given batch
// count and flow.
func (c *Context) Assemble(batches int, flow compact.Flow) (*assemble.Output, error) {
	return assemble.Run(c.Reads, assemble.Config{
		K: c.W.K, Workers: c.W.Workers, MinCount: c.W.MinCount,
		Batches: batches, Flow: flow,
	})
}

// Report is the uniform driver result.
type Report struct {
	ID       string // e.g. "fig12"
	Title    string
	Text     string
	Measured map[string]float64
	Paper    map[string]float64 // the paper's reported values for comparison
}

// String renders the report with a paper-vs-measured footer.
func (r *Report) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Text)
	if len(r.Paper) > 0 {
		s += "\npaper-vs-measured:\n"
		for _, k := range sortedKeys(r.Paper) {
			m, ok := r.Measured[k]
			if !ok {
				continue
			}
			s += fmt.Sprintf("  %-28s paper %10.4g   measured %10.4g\n", k, r.Paper[k], m)
		}
	}
	return s
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
