package compact

import (
	"testing"

	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/pakgraph"
	"nmppak/internal/readsim"
)

// allocGraphs builds n identical copies of a fixed PaK-graph: 20 kb with
// repeats at 30x and 0.5% errors, k=31, error k-mers pruned at count 2,
// so compaction sees forks, tips and finished contigs, not just a path.
func allocGraphs(tb testing.TB, n int) []*pakgraph.Graph {
	tb.Helper()
	gen, err := genome.Generate(genome.Config{Length: 20_000, Seed: 5, RepeatFraction: 0.05, RepeatUnit: 300})
	if err != nil {
		tb.Fatal(err)
	}
	reads, err := readsim.Simulate(gen, readsim.Config{ReadLen: 100, Coverage: 30, ErrorRate: 0.005, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := kmer.Count(reads, kmer.Config{K: 31, Workers: 1, MinCount: 2})
	if err != nil {
		tb.Fatal(err)
	}
	gs := make([]*pakgraph.Graph, n)
	for i := range gs {
		if gs[i], err = pakgraph.Build(res); err != nil {
			tb.Fatal(err)
		}
	}
	return gs
}

// TestRunAllocs bounds the mallocs of one compaction run per invalidated
// node. The per-iteration scratch is allocated once per Run and resliced,
// and each invalidated node's TransferNode sequences share one arena, so
// what remains per node is that arena and the growth of its update
// targets' extension and wire lists in Apply.
func TestRunAllocs(t *testing.T) {
	gs := allocGraphs(t, 2)
	invalidated := 0
	next := 0
	allocs := testing.AllocsPerRun(1, func() {
		g := gs[next]
		next++
		res, err := Run(g, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		invalidated = 0
		for _, st := range res.Stats {
			invalidated += st.Invalidated
		}
	})
	if invalidated == 0 {
		t.Fatal("fixture invalidated no node")
	}
	perNode := allocs / float64(invalidated)
	t.Logf("%v mallocs for %d invalidated nodes (%.2f per node)", allocs, invalidated, perNode)
	if perNode > 3.5 {
		t.Errorf("Run made %.2f mallocs per invalidated node, want <= 3.5", perNode)
	}
}

// BenchmarkCompactRun compacts the allocGraphs fixture to its fixed point;
// graph construction is outside the timer.
func BenchmarkCompactRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := allocGraphs(b, 1)[0]
		b.StartTimer()
		if _, err := Run(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
