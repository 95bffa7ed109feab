package trace

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"nmppak/internal/compact"
	"nmppak/internal/dna"
	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/pakgraph"
	"nmppak/internal/readsim"
)

func record(t testing.TB, length int, seed int64) *Trace {
	t.Helper()
	g, err := genome.Generate(genome.Config{Length: length, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(g, readsim.Config{ReadLen: 100, Coverage: 10, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := kmer.Count(reads, kmer.Config{K: 32})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := pakgraph.Build(res)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(32)
	if _, err := compact.Run(pg, compact.Options{Observer: b, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	return b.Trace()
}

func TestBuilderCapturesIterations(t *testing.T) {
	tr := record(t, 4000, 1)
	if len(tr.Iterations) < 3 {
		t.Fatalf("iterations = %d", len(tr.Iterations))
	}
	// Node counts must be non-increasing.
	for i := 1; i < len(tr.Iterations); i++ {
		if len(tr.Iterations[i].Nodes) > len(tr.Iterations[i-1].Nodes) {
			t.Fatal("node count increased across iterations")
		}
	}
	// Every transfer's src must be invalidated and dst must not be.
	for it, iter := range tr.Iterations {
		for _, tn := range iter.Transfers {
			if !iter.Nodes[tn.SrcIdx].Invalidated {
				t.Fatalf("iter %d: transfer src not invalidated", it)
			}
			if iter.Nodes[tn.DstIdx].Invalidated {
				t.Fatalf("iter %d: transfer dst invalidated", it)
			}
		}
		for _, up := range iter.Updates {
			if iter.Nodes[up.DstIdx].Invalidated {
				t.Fatalf("iter %d: update dst invalidated", it)
			}
			if up.WriteBytes <= 0 || up.ReadBytes <= 0 {
				t.Fatalf("iter %d: empty update", it)
			}
		}
	}
}

func TestTraceStatsMatchNodes(t *testing.T) {
	tr := record(t, 3000, 2)
	for _, iter := range tr.Iterations {
		inval := 0
		for _, n := range iter.Nodes {
			if n.Invalidated {
				inval++
			}
			if n.D1 <= 0 {
				t.Fatal("node without data1 size")
			}
		}
		if inval != iter.Stats.Invalidated {
			t.Fatalf("invalidated mismatch: %d vs %d", inval, iter.Stats.Invalidated)
		}
		if len(iter.Nodes) != iter.Stats.LiveNodes {
			t.Fatalf("live mismatch: %d vs %d", len(iter.Nodes), iter.Stats.LiveNodes)
		}
	}
}

func TestDIMMMappingBalancedAndOrdered(t *testing.T) {
	tr := record(t, 4000, 4)
	const nd = 8
	counts := make([]int, nd)
	prev := -1
	q := AppendQuantiles(nil, tr.Iterations[0].Nodes)
	for _, n := range tr.Iterations[0].Nodes { // ascending key order
		d := dimmOf(q, n.Key, nd)
		if d < prev {
			t.Fatal("DIMM mapping not monotonic in key order")
		}
		prev = d
		counts[d]++
	}
	total := len(tr.Iterations[0].Nodes)
	for d, c := range counts {
		frac := float64(c) / float64(total)
		if frac < 0.08 || frac > 0.18 {
			t.Fatalf("DIMM %d holds %.1f%% of nodes (want ~12.5%%)", d, frac*100)
		}
	}
}

func TestDIMMOfEdgeCases(t *testing.T) {
	if AppendQuantiles(nil, nil) != nil {
		t.Fatal("an iteration without nodes must have an empty table")
	}
	if dimmOf(nil, dna.Kmer(123), 8) != 0 {
		t.Fatal("empty quantiles must map to 0")
	}
	tr := record(t, 1000, 5)
	q := AppendQuantiles(nil, tr.Iterations[0].Nodes)
	if len(q) != QuantileEdges {
		t.Fatalf("table of %d edges, want %d", len(q), QuantileEdges)
	}
	if dimmOf(q, dna.Kmer(0), 1) != 0 {
		t.Fatal("single DIMM must map to 0")
	}
	max := dimmOf(q, dna.Kmer(^uint64(0)), 8)
	if max != 7 {
		t.Fatalf("max key maps to %d want 7", max)
	}
	// A one-edge table has no bucket.
	if d := dimmOf([]dna.Kmer{5}, dna.Kmer(9), 8); d != 0 {
		t.Fatalf("one-edge table maps to %d want 0", d)
	}
}

// clone returns a deep copy of tr's contents, its digest not yet taken.
func clone(tr *Trace) *Trace {
	c := &Trace{K: tr.K, Iterations: slices.Clone(tr.Iterations)}
	for i := range c.Iterations {
		it := &c.Iterations[i]
		it.Nodes = slices.Clone(it.Nodes)
		it.Transfers = slices.Clone(it.Transfers)
		it.Updates = slices.Clone(it.Updates)
	}
	return c
}

// The digest is a function of the trace's contents: a deep copy
// reproduces it, and changing one recorded operation changes it.
func TestDigestSurvivesRoundTrip(t *testing.T) {
	tr := record(t, 2000, 3)
	got := clone(tr)
	if got.Digest() != tr.Digest() {
		t.Fatalf("digest of the copy %#x, of the original %#x", got.Digest(), tr.Digest())
	}
	other := clone(tr)
	other.Iterations[len(other.Iterations)-1].Nodes[0].D2++
	if other.Digest() == tr.Digest() {
		t.Fatal("a trace with a different node size has the same digest")
	}
}

// Only the first call hashes the trace; later calls read the cached value
// without allocating.
func TestDigestCachedAllocationFree(t *testing.T) {
	tr := record(t, 2000, 3)
	want := tr.Digest()
	var got uint64
	if allocs := testing.AllocsPerRun(100, func() { got = tr.Digest() }); allocs != 0 {
		t.Fatalf("cached Digest allocates %v times per call", allocs)
	}
	if got != want {
		t.Fatalf("second call %#x, first %#x", got, want)
	}
}

// Concurrent first calls agree on one value (and are race-free under
// -race).
func TestDigestConcurrent(t *testing.T) {
	tr := record(t, 2000, 3)
	fresh := clone(tr)
	const g = 8
	got := make([]uint64, g)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = fresh.Digest()
		}()
	}
	wg.Wait()
	for i, d := range got {
		if d != tr.Digest() {
			t.Fatalf("goroutine %d digest %#x, want %#x", i, d, tr.Digest())
		}
	}
}

// Memo computes each key once, even under concurrent first requests, and
// keeps keys apart.
func TestMemoOncePerKey(t *testing.T) {
	tr := &Trace{K: 5}
	var calls [2]atomic.Int32
	const g = 8
	got := make([]any, 2*g)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := i % 2
			got[i] = tr.Memo(fmt.Sprint("key", k), func() any {
				calls[k].Add(1)
				return k * 10
			})
		}()
	}
	wg.Wait()
	for k := range calls {
		if c := calls[k].Load(); c != 1 {
			t.Errorf("key %d computed %d times", k, c)
		}
	}
	for i, v := range got {
		if v != (i%2)*10 {
			t.Errorf("request %d got %v, want %d", i, v, (i%2)*10)
		}
	}
}
