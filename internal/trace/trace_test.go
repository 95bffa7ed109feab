package trace

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"reflect"
	"strings"
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

// save gob-encodes tr, the form Load reads.
func save(w io.Writer, tr *Trace) error { return gob.NewEncoder(w).Encode(tr) }

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

func TestSaveLoadRoundTrip(t *testing.T) {
	tr := record(t, 2000, 3)
	var buf bytes.Buffer
	if err := save(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != tr.K || len(got.Iterations) != len(tr.Iterations) {
		t.Fatal("round trip mismatch")
	}
	if !reflect.DeepEqual(got.Iterations, tr.Iterations) {
		t.Fatal("operations mismatch")
	}
}

// A saved trace is untrusted input: an operation naming a node outside its
// iteration must make Load fail with the iteration in the error, not make
// a later replay index out of range.
func TestLoadRejectsOutOfRangeIndices(t *testing.T) {
	tr := record(t, 2000, 3)
	last := len(tr.Iterations) - 1
	for _, tc := range []struct {
		name    string
		corrupt func(it *Iteration)
	}{
		{"transfer src negative", func(it *Iteration) { it.Transfers[0].SrcIdx = -1 }},
		{"transfer src past end", func(it *Iteration) { it.Transfers[0].SrcIdx = int32(len(it.Nodes)) }},
		{"transfer dst negative", func(it *Iteration) { it.Transfers[0].DstIdx = -5 }},
		{"transfer dst past end", func(it *Iteration) { it.Transfers[0].DstIdx = 1 << 30 }},
		{"update dst negative", func(it *Iteration) { it.Updates[0].DstIdx = -1 }},
		{"update dst past end", func(it *Iteration) { it.Updates[0].DstIdx = int32(len(it.Nodes)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := save(&buf, tr); err != nil {
				t.Fatal(err)
			}
			bad, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			it := -1
			for i := last; i >= 0; i-- {
				if len(bad.Iterations[i].Transfers) > 0 && len(bad.Iterations[i].Updates) > 0 {
					it = i
					break
				}
			}
			if it < 0 {
				t.Fatal("trace has no iteration with both transfers and updates")
			}
			tc.corrupt(&bad.Iterations[it])
			buf.Reset()
			if err := save(&buf, bad); err != nil {
				t.Fatal(err)
			}
			_, err = Load(&buf)
			if err == nil {
				t.Fatal("Load accepted an out-of-range index")
			}
			if want := fmt.Sprintf("iteration %d:", it); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %q", err, want)
			}
		})
	}
}

func TestDIMMMappingBalancedAndOrdered(t *testing.T) {
	tr := record(t, 4000, 4)
	const nd = 8
	counts := make([]int, nd)
	prev := -1
	for _, n := range tr.Iterations[0].Nodes { // ascending key order
		d := tr.DIMMOf(n.Key, nd)
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
	tr := &Trace{}
	if tr.DIMMOf(dna.Kmer(123), 8) != 0 {
		t.Fatal("empty quantiles must map to 0")
	}
	tr2 := record(t, 1000, 5)
	if tr2.DIMMOf(dna.Kmer(0), 1) != 0 {
		t.Fatal("single DIMM must map to 0")
	}
	max := tr2.DIMMOf(dna.Kmer(^uint64(0)), 8)
	if max != 7 {
		t.Fatalf("max key maps to %d want 7", max)
	}
	// A one-edge table (only a loaded trace can hold one) has no bucket.
	one := &Iteration{Quantiles: []dna.Kmer{5}}
	if d := one.DIMMOf(dna.Kmer(9), 8); d != 0 {
		t.Fatalf("one-edge table maps to %d want 0", d)
	}
}

// The digest is a function of the trace's contents: an encode/Load round trip
// reproduces it, and changing one recorded operation changes it.
func TestDigestSurvivesRoundTrip(t *testing.T) {
	tr := record(t, 2000, 3)
	var buf bytes.Buffer
	if err := save(&buf, tr); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	got, err := Load(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != tr.Digest() {
		t.Fatalf("digest after round trip %#x, before %#x", got.Digest(), tr.Digest())
	}
	other, err := Load(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
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
	var buf bytes.Buffer
	if err := save(&buf, tr); err != nil {
		t.Fatal(err)
	}
	fresh, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
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
