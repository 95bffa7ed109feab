package assemble

import (
	"strings"
	"testing"

	"nmppak/internal/compact"
	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/metrics"
	"nmppak/internal/readsim"
	"nmppak/internal/trace"
)

func workload(t testing.TB, length int, cov, errRate float64, seed int64) (*genome.Genome, []readsim.Read) {
	t.Helper()
	g, err := genome.Generate(genome.Config{Length: length, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(g, readsim.Config{ReadLen: 100, Coverage: cov, ErrorRate: errRate, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g, reads
}

func TestEndToEndErrorFree(t *testing.T) {
	gen, reads := workload(t, 10000, 25, 0, 21)
	out, err := Run(reads, Config{K: 32, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref := gen.Replicons[0].String()
	for _, c := range out.Contigs {
		if !strings.Contains(ref, c.String()) {
			t.Fatalf("contig (len %d) not a genome substring", c.Len())
		}
	}
	sum := metrics.Summarize(out.Contigs, gen.Replicons)
	if sum.GenomeFrac < 0.999 {
		t.Fatalf("genome fraction %v", sum.GenomeFrac)
	}
	if sum.N50 < len(ref)/3 {
		t.Fatalf("N50 %d too low for error-free assembly of %d bp", sum.N50, len(ref))
	}
	if out.Times.Total() <= 0 {
		t.Fatal("no stage times recorded")
	}
}

func TestEndToEndWithErrorsAndPruning(t *testing.T) {
	gen, reads := workload(t, 20000, 30, 0.01, 22)
	out, err := Run(reads, Config{K: 32, Workers: 4, MinCount: 3, MinContigLen: 100})
	if err != nil {
		t.Fatal(err)
	}
	sum := metrics.Summarize(out.Contigs, gen.Replicons)
	if sum.GenomeFrac < 0.95 {
		t.Fatalf("genome fraction %v too low", sum.GenomeFrac)
	}
	if sum.N50 < 500 {
		t.Fatalf("N50 %d too low", sum.N50)
	}
	if out.KmerPruned == 0 {
		t.Fatal("expected error k-mers to be pruned")
	}
}

// TestBatchingDegradesN50 reproduces the Table 1 mechanism: smaller batches
// mean lower per-batch coverage, so the pruning threshold removes genuine
// k-mers and fragments contigs.
func TestBatchingDegradesN50(t *testing.T) {
	gen, reads := workload(t, 30000, 30, 0.01, 23)
	n50 := func(batches int) int {
		out, err := Run(reads, Config{K: 32, Workers: 4, MinCount: 3, Batches: batches})
		if err != nil {
			t.Fatal(err)
		}
		return metrics.Summarize(out.Contigs, gen.Replicons).N50
	}
	one := n50(1)
	many := n50(30)
	if many >= one {
		t.Fatalf("batching did not degrade N50: 1 batch %d vs 30 batches %d", one, many)
	}
	if many > one/2 {
		t.Logf("note: mild degradation only (%d -> %d)", one, many)
	}
}

func TestBatchedStillCoversGenome(t *testing.T) {
	gen, reads := workload(t, 10000, 25, 0, 24)
	out, err := Run(reads, Config{K: 32, Workers: 4, Batches: 5})
	if err != nil {
		t.Fatal(err)
	}
	sum := metrics.Summarize(out.Contigs, gen.Replicons)
	// Error-free: batching must not lose genome content.
	if sum.GenomeFrac < 0.999 {
		t.Fatalf("genome fraction %v after batching", sum.GenomeFrac)
	}
	if out.FinalGraph == nil || out.FinalGraph.Len() == 0 {
		t.Fatal("missing final graph")
	}
	if err := out.FinalGraph.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactThresholdRespected(t *testing.T) {
	_, reads := workload(t, 8000, 20, 0, 25)
	out, err := Run(reads, Config{K: 32, Workers: 4, CompactThreshold: 4000})
	if err != nil {
		t.Fatal(err)
	}
	// Compaction stops above the threshold, so the final graph stays big.
	if out.FinalGraph.Len() < 2000 {
		t.Fatalf("graph compacted past threshold: %d nodes", out.FinalGraph.Len())
	}
}

func TestObserverReceivesTrace(t *testing.T) {
	_, reads := workload(t, 5000, 15, 0, 26)
	b := trace.NewBuilder(32)
	_, err := Run(reads, Config{K: 32, Workers: 2, Observer: b})
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Trace()
	if len(tr.Iterations) == 0 {
		t.Fatal("no iterations traced")
	}
	transfers := 0
	for i := range tr.Iterations {
		transfers += len(tr.Iterations[i].Transfers)
	}
	if transfers == 0 {
		t.Fatal("no transfers traced")
	}
	// Iteration 0 scans roughly one node per genome position.
	if n := len(tr.Iterations[0].Nodes); n < 3000 {
		t.Fatalf("iteration 0 has %d nodes", n)
	}
}

// TestNaiveAndOptimizedAgree checks the assembly's counting statistics,
// summed over batches, against the serial reference counter run on the
// same batches.
func TestNaiveAndOptimizedAgree(t *testing.T) {
	_, reads := workload(t, 3000, 10, 0.01, 27)
	cfg := Config{K: 32, Workers: 4, MinCount: 2, Batches: 3}
	out, err := Run(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var distinct, pruned int64
	for _, batch := range splitBatches(reads, cfg.Batches) {
		res, err := kmer.CountNaive(batch, kmer.Config{K: cfg.K, Workers: 1, MinCount: cfg.MinCount})
		if err != nil {
			t.Fatal(err)
		}
		distinct += int64(len(res.Kmers))
		pruned += res.PrunedKinds
	}
	if out.KmerDistinct != distinct || out.KmerPruned != pruned || pruned == 0 {
		t.Fatalf("assembly counted %d distinct / %d pruned k-mers, the naive reference %d / %d",
			out.KmerDistinct, out.KmerPruned, distinct, pruned)
	}
}

// TestMinContigLenFilter checks that MinContigLen drops exactly the
// contigs shorter than it: the filtered run reports the unfiltered run's
// contigs of at least that length, in the same order, and nothing else.
func TestMinContigLenFilter(t *testing.T) {
	_, reads := workload(t, 20000, 30, 0.01, 22)
	const minLen = 100
	all, err := Run(reads, Config{K: 32, Workers: 4, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := Run(reads, Config{K: 32, Workers: 4, MinCount: 3, MinContigLen: minLen})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, c := range all.Contigs {
		if c.Len() >= minLen {
			want = append(want, c.String())
		}
	}
	if len(want) == len(all.Contigs) {
		t.Fatalf("workload has no contig shorter than %d bases; the filter is untested", minLen)
	}
	if len(kept.Contigs) != len(want) {
		t.Fatalf("filter kept %d contigs, want the %d of %d at least %d bases long",
			len(kept.Contigs), len(want), len(all.Contigs), minLen)
	}
	for i, c := range kept.Contigs {
		if c.Len() < minLen || c.String() != want[i] {
			t.Fatalf("contig %d (%d bases) is not the unfiltered run's %d-th long contig", i, c.Len(), i)
		}
	}
}

// TestObserverNeedsOneBatch checks that Run refuses an Observer unless the
// run compacts once: each batch's compaction would restart the iteration
// indices of the one trace. Batches is capped at the read count first.
func TestObserverNeedsOneBatch(t *testing.T) {
	_, reads := workload(t, 3000, 10, 0, 29)
	for _, tc := range []struct {
		name    string
		reads   []readsim.Read
		batches int
		wantErr bool
	}{
		{"one batch", reads, 1, false},
		{"default batches", reads, 0, false},
		{"three batches", reads, 3, true},
		{"two batches", reads, 2, true},
		{"three batches of one read", reads[:1], 3, false},
	} {
		_, err := Run(tc.reads, Config{K: 32, Workers: 2, Batches: tc.batches, Observer: trace.NewBuilder(32)})
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: error %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
}

func TestFlowsAgreeEndToEnd(t *testing.T) {
	_, reads := workload(t, 4000, 12, 0, 28)
	a, err := Run(reads, Config{K: 32, Flow: compact.FlowPipelined})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(reads, Config{K: 32, Flow: compact.FlowSequential})
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.N50 != b.Summary.N50 || a.Summary.Contigs != b.Summary.Contigs {
		t.Fatalf("flows disagree: %+v vs %+v", a.Summary, b.Summary)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Config{K: 1}); err == nil {
		t.Fatal("expected K validation error")
	}
	out, err := Run(nil, Config{K: 32})
	if err != nil || len(out.Contigs) != 0 {
		t.Fatalf("empty input: %v %v", out, err)
	}
}

func TestSplitBatches(t *testing.T) {
	reads := make([]readsim.Read, 10)
	b := splitBatches(reads, 3)
	if len(b) != 3 {
		t.Fatalf("batches = %d", len(b))
	}
	total := 0
	for _, bb := range b {
		total += len(bb)
	}
	if total != 10 {
		t.Fatalf("split lost reads: %d", total)
	}
	if len(splitBatches(reads, 1)) != 1 {
		t.Fatal("single batch")
	}
}
